// Pluggable execution backends for functional pipeline runs.
//
// A Backend takes a Pipeline description plus an uplink scenario and
// produces a Slot_result.  Three implementations exist, one per
// arithmetic family plus the simulator:
//
//   Sim_backend        the cycle-approximate fixed-point kernels on the
//                      simulated many-core cluster (pipeline.cluster());
//                      reports per-stage cycles and instruction counts
//   Parallel_backend   the double-precision host models (baseline/) split
//                      across a worker pool with the paper's per-kernel
//                      decomposition; no cycles, runs in milliseconds.
//                      make_backend("reference") is this backend at one
//                      worker - the golden functional cross-check
//                      (backend_parallel.h)
//   Fixed_backend      the sim backend's Q1.15 kernel math (src/fixed/) on a
//                      host worker pool with optional SIMD; **bit-identical**
//                      to Sim_backend - same payload bits, EVM/BER and
//                      sigma2_hat - at host speed (backend_fixed.h)
//
// All emit the same Slot_result, so a single scenario can be scored on the
// simulator and on any host path through the same Pipeline::execute()
// call.
#ifndef PUSCHPOOL_RUNTIME_BACKEND_H
#define PUSCHPOOL_RUNTIME_BACKEND_H

#include <memory>
#include <string_view>

#include "common/complex16.h"
#include "common/grid.h"
#include "runtime/pipeline.h"

namespace pp::runtime {

// Hand-off state between the two halves of a stage-split slot: the
// beam-domain grid after OFDM FFT + beamforming, one row per OFDM symbol,
// row layout [sc * beam].  Produced by Backend::run_front_into(), consumed
// by Backend::run_back_into().  The double-precision backends fill
// `beams` in true units; the Q15 backend keeps the beamforming kernel's
// output as is in `beams_q` (at the beamform stage's rescale), so the slot
// never leaves Q1.15 between its two halves.  Flat workspace storage: the
// scheduler's stage pipeline recycles Slot_fronts across slots, so the
// grids' capacity survives and the steady state allocates nothing.
struct Slot_front {
  common::Ws_grid<phy::cd> beams;
  common::Ws_grid<common::cq15> beams_q;
};

class Backend {
 public:
  virtual ~Backend() = default;
  virtual std::string_view name() const = 0;
  virtual bool cycle_accurate() const = 0;

  // Whole-slot execution into caller-owned result storage whose capacity
  // is reused across calls.  Every field of `out` is overwritten, so a
  // recycled result equals a fresh one bit for bit.
  virtual void run_slot_into(const Pipeline& p, const phy::Uplink_scenario& sc,
                             Slot_result& out) = 0;

  // Stage-split execution, used by runtime::Slot_scheduler to overlap the
  // front half (FFT + beamforming) of slot n+1 with the back half (CHE, NE,
  // LMMSE MIMO, demodulation) of slot n.  Contract: run_front_into then
  // run_back_into on its Slot_front is bit-identical to run_slot_into.
  // Backends that cannot split (the simulator models a whole slot as one
  // launch sequence) keep the default can_split() = false and abort in the
  // split entry points.
  virtual bool can_split() const { return false; }
  virtual void run_front_into(const Pipeline& p, const phy::Uplink_scenario& sc,
                              Slot_front& out);
  virtual void run_back_into(const Pipeline& p, const phy::Uplink_scenario& sc,
                             const Slot_front& front, Slot_result& out);

  // High-water bytes held by this backend's slot workspaces (0 when the
  // backend keeps none).  Observability for the growth-then-stable tests;
  // monotone under the ws_grow discipline.
  virtual size_t workspace_bytes() const { return 0; }
};

class Sim_backend final : public Backend {
 public:
  Sim_backend();
  ~Sim_backend() override;
  std::string_view name() const override { return "sim"; }
  bool cycle_accurate() const override { return true; }
  void run_slot_into(const Pipeline& p, const phy::Uplink_scenario& sc,
                     Slot_result& out) override;
  size_t workspace_bytes() const override;

 private:
  struct Ws;  // marshaling buffers (quantize scratch); sim cores re-run
              // the slot out of simulated L1, which is per-Machine state
  std::unique_ptr<Ws> ws_;
};

// Fills `out.stages` with the per-stage launch counts the sim backend would
// perform for this pipeline and scenario (FFT gang batching and Cholesky
// symbol batching included).  Shared by the two host backends so their
// stage tables line up with the simulator's row by row.
void mirror_sim_stage_runs(const Pipeline& p, const phy::Uplink_config& cfg,
                           Slot_result& out);

// "sim", "reference", "parallel" or "fixed"; aborts on anything else.
// `intra` is the intra-slot worker count of the "parallel" and "fixed"
// backends (0 = one worker per hardware thread) and is ignored by the rest:
// "reference" is the parallel backend at one worker, under its own name.
std::unique_ptr<Backend> make_backend(std::string_view name,
                                      uint32_t intra = 0);

// The names make_backend() accepts, in registration order - the CLI `--list`
// surface and the validation list for readable unknown-backend errors.
std::vector<std::string> backend_names();

}  // namespace pp::runtime

#endif  // PUSCHPOOL_RUNTIME_BACKEND_H
