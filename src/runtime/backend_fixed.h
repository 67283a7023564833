// Fixed-point host backend: the sim backend's Q1.15 arithmetic at host
// speed.
//
// Fixed_backend is the Q1.15 chain's host executor: Q15_backend
// (runtime/q15_chain.h) runs the chain's marshaling - input quantization,
// the Q15-to-Q15 block rescales between kernels and the EVM/BER epilogue -
// exactly as for the sim backend, and this class runs each kernel's
// functional Q15 math through the host subsystem in src/fixed/ instead of
// the cycle-approximate simulator.
// Because the simulated kernels separate functional values from timing
// tokens, the result is **bit-identical** to the sim backend: same payload
// bits, same EVM/BER doubles, same sigma2_hat - an exact cross-check where
// the double-precision backends only offer tolerances.
//
// Parallel structure (common::Thread_pool, like Parallel_backend):
//
//   OFDM FFT     contiguous runs of per-(symbol, antenna) transforms; a
//                worker beyond the transform count gets an empty run
//   beamforming  blocks of (symbol, sub-carrier) output rows of the MMM
//   CHE          per-sub-carrier estimate rows, each tile handed on to NE's
//                and the Gramian's scale by the worker that computed it
//   NE           one Q2.30 partial per *simulated core block* (the sim's
//                uint32 fold is partition-dependent, so the simulated
//                partition is replayed no matter the worker count), folded
//                serially in block order
//   LMMSE MIMO   once per slot, contiguous sub-carrier runs of the
//                Gramian + Cholesky factor; per data-symbol batch,
//                contiguous (symbol, sub-carrier) runs of the matched
//                filter + both substitutions against those factors (vector
//                lanes across sub-carriers with SIMD); EVM/BER epilogue
//                serial in slot order
//
// Every parallel tile performs exact integer arithmetic on disjoint
// outputs, so the result is independent of the worker count - pinned at
// 1, 2, 3, 7, 8 and 16 workers by tests/test_backend_fixed.cpp.  SIMD
// (src/fixed/simd.h) is on by default where the host supports it;
// `use_simd = false` forces the scalar paths (bit-identical by contract,
// used by the parity tests).
#ifndef PUSCHPOOL_RUNTIME_BACKEND_FIXED_H
#define PUSCHPOOL_RUNTIME_BACKEND_FIXED_H

#include "common/complex16.h"
#include "common/thread_pool.h"
#include "runtime/backend.h"

namespace pp::runtime {

class Fixed_backend final : public Q15_backend {
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

  size_t workspace_bytes() const override;

 private:
  void fft_beamform(const Q15_chain& c,
                    common::Ws_grid<common::cq15>& beams) override;
  void che(const Q15_chain& c) override;
  double ne(const Q15_chain& c) override;
  void mimo(const Q15_chain& c, const common::Ws_grid<common::cq15>& beams,
            uint32_t s0, double sigma2_hat) override;

  common::Thread_pool pool_;
  bool simd_;

  // Per-worker kernel scratch (FFT staging buffers + a block of MMM input
  // rows); workers touch only their own entry inside a dispatch, so no
  // synchronization beyond the pool's join is needed.
  struct Worker_ws {
    std::vector<common::cq15> buf, fout, aq;
    size_t footprint_bytes() const {
      return (buf.capacity() + fout.capacity() + aq.capacity()) *
             sizeof(common::cq15);
    }
  };

  // Kernel outputs between a stage and its hand-off (grow-then-stabilize;
  // every reused element fully overwritten per slot before it is read).
  std::vector<Worker_ws> fft_ws_;        // one per worker
  common::Ws_grid<common::cq15> freq_;   // [symb * rx][sc] MMM inputs
  std::vector<common::cq15> h_q_;        // CHE output at CHE's scale
  std::vector<common::cq15> chol_;       // [sc][ue][ue] the slot's factors
  std::vector<uint32_t> contribs_;       // NE fold, one per core block
};

}  // namespace pp::runtime

#endif  // PUSCHPOOL_RUNTIME_BACKEND_FIXED_H
