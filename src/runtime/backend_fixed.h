// Fixed-point host backend: the sim backend's Q1.15 arithmetic at host
// speed.
//
// Fixed_backend replays the exact marshaling of Sim_backend - the same
// input quantization, Q15-to-Q15 block rescales between kernels
// (runtime::Q15_rescale) and host-side loop order - but executes each
// kernel's functional Q15 math through the host subsystem in src/fixed/
// instead of the cycle-approximate simulator.
// Because the simulated kernels separate functional values from timing
// tokens, the result is **bit-identical** to the sim backend: same payload
// bits, same EVM/BER doubles, same sigma2_hat - an exact cross-check where
// the double-precision backends only offer tolerances.
//
// Parallel structure (common::Thread_pool, like Parallel_backend):
//
//   OFDM FFT     per-(symbol, antenna) transforms; with fewer transforms
//                than workers each FFT is computed cooperatively, butterfly
//                ranges tiled per stage with a Counting_barrier
//   beamforming  blocks of (symbol, sub-carrier) output rows of the MMM
//   CHE          per-sub-carrier estimate rows
//   NE           one Q2.30 partial per *simulated core block* (the sim's
//                uint32 fold is partition-dependent, so the simulated
//                partition is replayed no matter the worker count), folded
//                serially in block order
//   LMMSE MIMO   contiguous (symbol, sub-carrier) runs, each sub-carrier's
//                Gramian + Cholesky + substitutions fused (vector lanes
//                across sub-carriers with SIMD); EVM/BER epilogue serial in
//                slot order
//
// Every parallel tile performs exact integer arithmetic on disjoint
// outputs, so the result is independent of the worker count - pinned at
// 1/2/8 workers by tests/test_backend_fixed.cpp.  SIMD (src/fixed/simd.h)
// is on by default where the host supports it; `use_simd = false` forces
// the scalar paths (bit-identical by contract, used by the parity tests).
#ifndef PUSCHPOOL_RUNTIME_BACKEND_FIXED_H
#define PUSCHPOOL_RUNTIME_BACKEND_FIXED_H

#include "common/complex16.h"
#include "common/thread_pool.h"
#include "runtime/backend.h"

namespace pp::runtime {

class Fixed_backend final : public Backend {
 public:
  // workers: 0 = one per hardware thread (the pool persists across slots).
  explicit Fixed_backend(uint32_t workers = 0, bool use_simd = true)
      : pool_(workers), simd_(use_simd), fft_ws_(pool_.workers()) {}

  std::string_view name() const override { return "fixed"; }
  bool cycle_accurate() const override { return false; }
  uint32_t workers() const { return pool_.workers(); }
  // True when the vector paths are both requested and available on this
  // host; false means every kernel runs its scalar loops.
  bool simd_active() const;

  void run_slot_into(const Pipeline& p, const phy::Uplink_scenario& sc,
                     Slot_result& out) override;
  // Stage-split entry points (scheduler stage pipelining), cut at the beam
  // grid like the parallel backend: the split is bit-identical to the
  // whole slot.
  bool can_split() const override { return true; }
  void run_front_into(const Pipeline& p, const phy::Uplink_scenario& sc,
                      Slot_front& out) override;
  void run_back_into(const Pipeline& p, const phy::Uplink_scenario& sc,
                     const Slot_front& front, Slot_result& out) override;
  size_t workspace_bytes() const override;

 private:
  void front_into(const Pipeline& p, const phy::Uplink_scenario& sc,
                  common::Ws_grid<common::cq15>& beams);
  void back_into(const Pipeline& p, const phy::Uplink_scenario& sc,
                 const common::Ws_grid<common::cq15>& beams, Slot_result& out);

  common::Thread_pool pool_;
  bool simd_;

  // Per-worker marshaling scratch (FFT staging buffers + a block of MMM
  // input rows); workers touch only their own entry inside a dispatch, so
  // no synchronization beyond the pool's join is needed.
  struct Worker_ws {
    std::vector<common::cq15> buf, fout, aq;
    size_t footprint_bytes() const {
      return (buf.capacity() + fout.capacity() + aq.capacity()) *
             sizeof(common::cq15);
    }
  };

  // Slot workspaces (grow-then-stabilize; every reused element fully
  // overwritten per slot before the kernels read it).  Between kernels the
  // slot stays in Q1.15, each grid at its consumer's block scale.
  std::vector<Worker_ws> fft_ws_;            // one per worker
  std::vector<common::cq15> coop_buf_, coop_fout_;  // cooperative-FFT shared
  std::vector<common::cq15> bq_;             // quantized codebook
  common::Ws_grid<common::cq15> freq_;       // [symb * rx][sc] MMM inputs
  common::Ws_grid<common::cq15> beams_;      // fused-path beam grid
  // Back half: CHE inputs/outputs, NE operands, MIMO batch staging.
  std::vector<std::vector<common::cq15>> pilots_q_, y_sep_q_;  // grow-only
  std::vector<common::cq15> h_q_, h_est_, gh_q_;  // CHE output at 3 scales
  std::vector<common::cq15> y_est_;
  std::vector<uint32_t> contribs_;
  common::Ws_grid<common::cq15> y_q_;        // [batch symbol][sc * beam]
  std::vector<common::cq15> xs_;
  std::vector<phy::cd> x_;  // epilogue per-sub-carrier dequantize
};

}  // namespace pp::runtime

#endif  // PUSCHPOOL_RUNTIME_BACKEND_FIXED_H
