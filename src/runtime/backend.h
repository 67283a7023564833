// Pluggable execution backends for functional pipeline runs.
//
// A Backend takes a Pipeline description plus an uplink scenario and
// produces a Slot_result.  Three implementations exist, one per
// arithmetic family plus the simulator:
//
//   Sim_backend        the cycle-approximate fixed-point kernels on the
//                      simulated many-core cluster (pipeline.cluster());
//                      the only backend that reports per-stage rows:
//                      cycles, instructions, stalls and kernel launches
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
// Sim_backend and Fixed_backend are the two executors of one Q1.15 chain:
// Q15_backend runs its marshaling (runtime/q15_chain.h) once for both, and
// each supplies only how a stage's kernels run.
//
// Every backend runs a slot in one shape: a front half (OFDM FFT +
// beamforming) into a Slot_front, then a back half from it.
// Backend::run_slot_into is those two calls on a Slot_front the backend
// keeps; a caller that times the halves apart makes the same two calls.
//
// All emit the same Slot_result, so a single scenario can be scored on the
// simulator and on any host path through the same Pipeline::execute()
// call; the host backends leave its per-stage rows empty.
#ifndef PUSCHPOOL_RUNTIME_BACKEND_H
#define PUSCHPOOL_RUNTIME_BACKEND_H

#include <memory>
#include <string_view>

#include "common/complex16.h"
#include "common/grid.h"
#include "runtime/pipeline.h"
#include "runtime/q15_chain.h"

namespace pp::runtime {

// Hand-off state between the two halves of a slot: the
// beam-domain grid after OFDM FFT + beamforming, one row per OFDM symbol,
// row layout [sc * beam].  Produced by Backend::run_front_into(), consumed
// by Backend::run_back_into().  The double-precision backends fill
// `beams` in true units; the Q15 backend keeps the beamforming kernel's
// output as is in `beams_q` (at the beamform stage's rescale), so the slot
// never leaves Q1.15 between its two halves.  Flat workspace storage: a
// caller that reuses one Slot_front across slots keeps the grids' capacity,
// so its steady state allocates nothing.
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
  // is reused across calls: the two halves below, on the Slot_front this
  // backend keeps for it.  Every field of `out` is overwritten, so a
  // recycled result equals a fresh one bit for bit.
  void run_slot_into(const Pipeline& p, const phy::Uplink_scenario& sc,
                     Slot_result& out) {
    run_front_into(p, sc, front_);
    run_back_into(p, sc, front_, out);
  }

  // The two halves of a slot, so each can be timed on its own: the front
  // half (OFDM FFT + beamforming) and the back half (CHE, NE, LMMSE MIMO,
  // demodulation).  run_back_into consumes the Slot_front of the
  // run_front_into call just before it on the same backend and scenario
  // (the simulator's machine lives from one to the other).
  virtual void run_front_into(const Pipeline& p, const phy::Uplink_scenario& sc,
                              Slot_front& out) = 0;
  virtual void run_back_into(const Pipeline& p, const phy::Uplink_scenario& sc,
                             const Slot_front& front, Slot_result& out) = 0;

  // High-water bytes held by this backend's slot workspaces, the
  // run_slot_into Slot_front included.  Observability for the
  // growth-then-stable tests; monotone under the ws_grow discipline.
  virtual size_t workspace_bytes() const {
    return front_.beams.footprint_bytes() + front_.beams_q.footprint_bytes();
  }

 private:
  Slot_front front_;
};

// The Q1.15 receive chain over a kernel executor.  The entry points run
// the chain's shared steps once: quantize the scenario inputs, hand each
// stage's output to the next at the chain's block scales, convert the NE
// value to sigma2_hat, and dequantize, score and demodulate the equalized
// symbols (EVM in (data symbol, sub-carrier, UE) order, BER through
// phy::payload_ber).  A derived backend implements the executor below;
// every executor call takes Q1.15 in and gives Q1.15 out at the scales of
// its Q15_chain.
class Q15_backend : public Backend {
 public:
  void run_front_into(const Pipeline& p, const phy::Uplink_scenario& sc,
                      Slot_front& out) final;
  void run_back_into(const Pipeline& p, const phy::Uplink_scenario& sc,
                     const Slot_front& front, Slot_result& out) final;
  // The Slot_front and the chain's marshaling workspace; executors add
  // their own.
  size_t workspace_bytes() const override;

 protected:
  // OFDM FFT of every (symbol, antenna) at s_time, then beamforming
  // against ws.bq into `beams` ([symbol][sc * beam] at s_grid).
  virtual void fft_beamform(const Q15_chain& c,
                            common::Ws_grid<common::cq15>& beams) = 0;
  // Channel estimate from ws.pilots and ws.y_sep, handed on through
  // c.hand_on_che.
  virtual void che(const Q15_chain& c) = 0;
  // Noise estimate from ws.y_est, ws.h_est and ws.pilots: the kernel's
  // value, kernels::ne_sigma2 of its accumulator word.
  virtual double ne(const Q15_chain& c) = 0;
  // Gramian + Cholesky + solves of data symbols [s0, s0 + batch), the beam
  // rows handed on through c.hand_on_rhs, into ws.xs.  A slot's batches
  // come after NE and in order from its first data symbol, so an executor
  // may compute what depends only on ws.h_gram and sigma2_hat once, at
  // the first.
  virtual void mimo(const Q15_chain& c,
                    const common::Ws_grid<common::cq15>& beams, uint32_t s0,
                    double sigma2_hat) = 0;
  // After the last stage of a slot: this executor's rows of out.stages.
  // A host executor launches no kernels and leaves none, cleared so that
  // a recycled result equals a fresh one.
  virtual void close_slot(const Q15_chain&, Slot_result& out) {
    out.stages.clear();
  }

 private:
  Q15_ws ws_;
};

// The executor on the simulated cluster: one machine per slot, every stage
// a kernel launch, per-stage cycles, instructions and stalls summed over
// the launches.
class Sim_backend final : public Q15_backend {
 public:
  Sim_backend();
  ~Sim_backend() override;
  std::string_view name() const override { return "sim"; }
  bool cycle_accurate() const override { return true; }

 private:
  void fft_beamform(const Q15_chain& c,
                    common::Ws_grid<common::cq15>& beams) override;
  void che(const Q15_chain& c) override;
  double ne(const Q15_chain& c) override;
  void mimo(const Q15_chain& c, const common::Ws_grid<common::cq15>& beams,
            uint32_t s0, double sigma2_hat) override;
  void close_slot(const Q15_chain& c, Slot_result& out) override;

  struct Slot;  // the slot's machine, kernels and stage rows
  std::unique_ptr<Slot> slot_;
};

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
