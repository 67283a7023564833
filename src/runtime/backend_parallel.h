// Intra-slot parallel host backend (the paper's core mapping on the host).
//
// Parallel_backend runs the double-precision receive chain of
// phy::golden_receive, split across a persistent common::Thread_pool the
// way §IV maps each kernel onto cores:
//
//   OFDM FFT     per-symbol fan-out over the antenna transforms, each
//                worker owning whole transforms (ref::fft_into); workers
//                beyond the antenna count sit the stage out
//   beamforming  the matched-filter MMM, row-block tiled over sub-carriers
//                (ref::matmul_rows)
//   CHE / NE     per-(UE, sub-carrier) row tiles / per-element residuals
//   LMMSE MIMO   per-UE-batch Gram + Cholesky + forward/backward
//                substitution, batches of (symbol, sub-carrier) problems
//                statically sliced across workers (ref::lmmse)
//
// Determinism contract (pinned by tests/test_backend_parallel.cpp and
// documented in docs/DETERMINISM.md): the result is bit-identical to
// phy::golden_receive for any worker count.  Workers own statically-sliced
// disjoint output tiles whose arithmetic matches the serial loop exactly,
// and every floating-point reduction (EVM, noise estimate) is accumulated
// serially in slot order after the parallel region.  At one worker every
// dispatch runs inline on the calling thread: make_backend("reference")
// is that configuration, reporting itself as "reference".
#ifndef PUSCHPOOL_RUNTIME_BACKEND_PARALLEL_H
#define PUSCHPOOL_RUNTIME_BACKEND_PARALLEL_H

#include <string>

#include "common/thread_pool.h"
#include "runtime/backend.h"

namespace pp::runtime {

class Parallel_backend final : public Backend {
 public:
  // 0 = one worker per hardware thread.  The pool persists across slots,
  // so per-slot dispatch cost stays at one wake-up.  `name` is what name()
  // and Slot_result::backend report.
  explicit Parallel_backend(uint32_t workers = 0,
                            std::string_view name = "parallel")
      : name_(name), pool_(workers), mimo_ws_(pool_.workers()) {}

  std::string_view name() const override { return name_; }
  bool cycle_accurate() const override { return false; }
  uint32_t workers() const { return pool_.workers(); }

  void run_front_into(const Pipeline& p, const phy::Uplink_scenario& sc,
                      Slot_front& out) override;
  void run_back_into(const Pipeline& p, const phy::Uplink_scenario& sc,
                     const Slot_front& front, Slot_result& out) override;
  size_t workspace_bytes() const override;

 private:
  std::string name_;
  common::Thread_pool pool_;

  // Slot workspaces (grow-then-stabilize; every buffer fully overwritten
  // per slot).  Front half: per-antenna spectra + the beamforming
  // transpose; back half: channel estimate, NE/EVM term arrays, and one
  // MIMO solver workspace per pool worker (workers write disjoint item
  // tiles but each needs private solver scratch).
  std::vector<std::vector<phy::cd>> freq_;  // grow-only outer
  std::vector<phy::cd> ft_;
  std::vector<phy::cd> h_hat_;
  std::vector<double> sig_terms_;
  std::vector<double> evm_terms_;
  std::vector<phy::Mimo_ws> mimo_ws_;  // one per worker
};

}  // namespace pp::runtime

#endif  // PUSCHPOOL_RUNTIME_BACKEND_PARALLEL_H
