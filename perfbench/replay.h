// Traced replays of the host receive chains, for the per-layer numbers.
//
// The backends run their kernels inside one call, so the benchmark cannot
// put a span around a single stage of Backend::run_slot_into.  Instead the
// traced run replays each slot through the same public kernels the
// backends are built from - fixed:: Q15 kernels plus runtime::quantize_into
// for the `fixed` chain, phy:: sub-steps plus ref:: kernels for the double
// chain - one span around each phase.  The replay must produce the
// backend's result bit for bit (payload bits, EVM, BER, sigma2_hat); the
// workloads check that against their oracle, so a replay that drifts from
// the backend it stands for fails the run instead of reporting numbers for
// a different chain.
#ifndef PERFBENCH_REPLAY_H
#define PERFBENCH_REPLAY_H

#include <vector>

#include "bench.h"
#include "common/complex16.h"
#include "common/grid.h"
#include "runtime/pipeline.h"

namespace perfbench {

// The oracle check of every slot: payload bits, EVM, BER and sigma2_hat
// identical.
inline bool same_decode(const pp::runtime::Slot_result& a,
                        const pp::runtime::Slot_result& b) {
  return a.bits == b.bits && a.evm == b.evm && a.ber == b.ber &&
         a.sigma2_hat == b.sigma2_hat;
}

// Kernel invocations, the complex MACs they stand for, and marshaled
// elements, summed over replayed slots.  MACs follow Table I
// (pusch/complexity.h); Gram + matched filter, which Table I leaves out,
// count the Hermitian half of H^H H plus H^H y.
struct Fixed_counts {
  uint64_t fft = 0, bf = 0, che = 0, ne = 0, gram = 0, chol_solve = 0;
  double fft_macs = 0, bf_macs = 0, che_macs = 0, ne_macs = 0, gram_macs = 0,
         chol_solve_macs = 0;
  uint64_t marshal = 0;        // quantize / dequantize passes
  uint64_t marshal_elems = 0;  // complex elements converted
};

// fixed.<kernel>_ms, .calls and .gcmac_s per replayed slot (fixed.marshal
// has .gelem_s), from the replay's spans and counts.
void put_fixed_metrics(const Tracer& tr, const Fixed_counts& c, double slots,
                       Metrics& m);

// Self time of a replay's <family>.front and <family>.back spans: the part
// of the chain no kernel or marshal span covers.
double glue_seconds(const Tracer& tr, const std::string& family);

// Fixed_backend's chain on one worker (backend_fixed.cpp), phase by phase.
// Spans: fixed.front / fixed.back, with children fixed.fft, fixed.bf,
// fixed.che, fixed.ne, fixed.gram, fixed.chol_solve and fixed.marshal.
// What the children do not cover (buffer set-up, the NE fold, QAM
// demodulation) is the self time of the two parents: the chain's glue.
class Fixed_replay {
 public:
  void run(const pp::runtime::Pipeline& p, const pp::phy::Uplink_scenario& sc,
           bool simd, Tracer* tr, int64_t slot, pp::runtime::Slot_result& out);

  Fixed_counts counts;

 private:
  using cq15 = pp::common::cq15;
  using cd = pp::phy::cd;
  std::vector<cq15> bq_, tq_, fout_, aq_, cq_;
  std::vector<cd> freq_;
  pp::common::Ws_grid<cd> beams_;
  std::vector<std::vector<cq15>> pilots_q_, y_sep_q_;
  std::vector<cq15> h_q_, y_est_, h_est_, gh_q_, y_q_, g_, rhs_, xs_;
  std::vector<cd> h_hat_, x_;
  std::vector<uint32_t> contribs_;
};

// The double chain of Reference_backend (phy::golden_front_into +
// golden_back_into), stage by stage.  Spans: ref.front / ref.back, with
// children ref.fft, ref.bf, ref.che, ref.ne, ref.mimo and ref.demod.
class Ref_replay {
 public:
  void run(const pp::phy::Uplink_scenario& sc, Tracer* tr, int64_t slot,
           pp::runtime::Slot_result& out);

 private:
  using cd = pp::phy::cd;
  pp::common::Ws_grid<cd> beams_;
  std::vector<std::vector<cd>> freq_;
  std::vector<cd> ft_, h_hat_;
  std::vector<double> sig_terms_, evm_terms_;
  pp::phy::Mimo_ws mimo_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H
