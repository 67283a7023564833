// HARQ soft combining across retransmission attempts of one slot.
//
// The scheduler's HARQ loop (scheduler.h, max_harq > 0) re-enqueues slots
// whose decoded BER exceeds the threshold as deterministic retransmissions:
// the same transport block (every attempt's scenario draws the same payload
// bits) under a fresh channel/noise realization (phy::kHarqStream).  This
// accumulator implements chase combining over the equalized symbols each
// attempt produced (Slot_result::symbols): attempts are averaged
// symbol-wise, the average re-demodulated against the attempt scenario's
// own tx_bits, and the block's decoded BER is the minimum over every
// per-attempt and combined decode - monotone non-increasing in the attempt
// count by construction, which is the fuzz suite's core invariant.
//
// The worker that decodes an attempt folds it in, right after recording
// the slot, without a lock (a round holds at most one attempt per block,
// and rounds are separated by the worker pool's join - docs/DETERMINISM.md
// §9), so each combiner still sums its attempts in attempt order on plain
// doubles and the verdict stream is bit-identical for any worker count.
// The symbol sums are kept only while the block can still retransmit: a
// decode that passes the threshold releases them, and a passed block
// takes no further attempt.
//
// Degrade interplay: combining accumulates only attempts executed at the
// base attempt's layer count (the first executed attempt fixes the shape).
// An attempt the admission controller re-planned to a different UE count
// decodes a different transport block, so it neither joins the average nor
// lowers the block's BER; it still consumes one of the max_harq attempts.
#ifndef PUSCHPOOL_RUNTIME_HARQ_H
#define PUSCHPOOL_RUNTIME_HARQ_H

#include <vector>

#include "phy/uplink.h"
#include "runtime/pipeline.h"

namespace pp::runtime {

class Harq_combiner {
 public:
  // A block passes once its best BER is at most `pass_ber`.
  explicit Harq_combiner(double pass_ber) : pass_ber_(pass_ber) {}

  // Fold one executed attempt (its scenario + slot result) into the
  // accumulator and return the block's best decoded BER so far.
  double absorb(const phy::Uplink_scenario& sc, const Slot_result& r);

  // True once any attempt of this block executed (a block whose every
  // attempt was dropped by admission has no decode and never passes).
  bool decoded() const { return decoded_; }
  // Best (lowest) BER over all per-attempt and combined decodes; 1.0 until
  // the first decode.
  double best_ber() const { return best_ber_; }
  // The block's HARQ verdict: decoded, and its best BER within threshold.
  bool passed() const { return decoded_ && best_ber_ <= pass_ber_; }
  // Attempts folded into the running symbol average.
  uint32_t combined() const { return combined_; }

 private:
  double pass_ber_;
  bool decoded_ = false;
  uint32_t base_ue_ = 0;
  uint32_t combined_ = 0;
  std::vector<std::vector<phy::cd>> sum_;  // [ue][item] symbol sums
  double best_ber_ = 1.0;
};

}  // namespace pp::runtime

#endif  // PUSCHPOOL_RUNTIME_HARQ_H
