#include "runtime/harq.h"

#include <algorithm>

#include "common/check.h"

namespace pp::runtime {

double Harq_combiner::absorb(const phy::Uplink_scenario& sc,
                             const Slot_result& r) {
  PP_CHECK(!passed(), "a passed HARQ block takes no further attempt");
  const phy::Uplink_config& cfg = sc.config();
  PP_CHECK(r.symbols.size() == cfg.n_ue,
           "HARQ combining needs the attempt's equalized symbols");
  if (!decoded_) {
    // First executed attempt: fixes the combining base (layer count) and
    // seeds the symbol average unless the block is already done.
    decoded_ = true;
    base_ue_ = cfg.n_ue;
    combined_ = 1;
    best_ber_ = r.ber;
    if (!passed()) sum_ = r.symbols;
    return best_ber_;
  }
  if (cfg.n_ue != base_ue_) return best_ber_;  // degraded shape: no combining

  // Chase combining: accumulate, decode the running average, keep the best
  // of (previous best, this attempt alone, the combined decode).
  uint64_t nerr = 0, nbits = 0;
  for (uint32_t l = 0; l < base_ue_; ++l) {
    PP_CHECK(r.symbols[l].size() == sum_[l].size(),
             "HARQ attempt symbol count mismatch");
    for (size_t i = 0; i < sum_[l].size(); ++i) sum_[l][i] += r.symbols[l][i];
  }
  ++combined_;
  const double inv = 1.0 / static_cast<double>(combined_);
  std::vector<phy::cd> avg;
  for (uint32_t l = 0; l < base_ue_; ++l) {
    avg.assign(sum_[l].begin(), sum_[l].end());
    for (auto& v : avg) v *= inv;
    const auto bits = phy::qam_demodulate(cfg.qam, avg);
    const auto& want = sc.tx_bits(l);
    PP_CHECK(bits.size() == want.size(), "HARQ payload size mismatch");
    for (size_t i = 0; i < bits.size(); ++i) nerr += bits[i] != want[i];
    nbits += bits.size();
  }
  const double combined_ber =
      static_cast<double>(nerr) / static_cast<double>(nbits);
  best_ber_ = std::min(best_ber_, std::min(r.ber, combined_ber));
  if (passed()) sum_.clear();
  return best_ber_;
}

}  // namespace pp::runtime
