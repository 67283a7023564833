// Declarative kernel pipelines over the registry.
//
// A Pipeline is an ordered list of Stage_specs - each naming a registry
// kernel, its Params, a per-slot repetition count, an optional single-core
// baseline, and the block-rescaling factor applied to data entering the
// stage.  The description is consumed by two engines:
//
//   measure()   analytic roll-up: run one instance of every stage on the
//               simulated cluster and scale by its repetition count (the
//               paper's Fig. 9c methodology)
//   execute()   functional slot execution: stream an uplink scenario through
//               the stages on a pluggable Backend (backend.h) - the
//               cycle-approximate simulator ("sim"), the double-precision
//               host models ("parallel", or "reference" at one worker) or
//               the simulator's Q15 arithmetic on the host ("fixed") - and
//               score EVM/BER against the transmitted data
//
// Presets for the paper's use case and the end-to-end uplink slot live in
// presets.h.
#ifndef PUSCHPOOL_RUNTIME_PIPELINE_H
#define PUSCHPOOL_RUNTIME_PIPELINE_H

#include <array>
#include <string>
#include <vector>

#include "arch/topology.h"
#include "phy/uplink.h"
#include "runtime/params.h"
#include "sim/stats.h"

namespace pp::runtime {

class Backend;

// Functional role of a stage inside the PUSCH receive chain.  The functional
// engines dispatch on the role; the analytic roll-up ignores it.
enum class Stage_role { fft, beamform, che, ne, gram, mimo_solve, custom };

// One kernel execution: registry key + configuration + per-slot repetitions.
struct Exec_spec {
  std::string kernel;  // registry key; empty = not present
  Params params;
  uint64_t repeat = 1;
};

struct Stage_spec {
  std::string name;  // display label ("OFDM FFT", ...)
  Stage_role role = Stage_role::custom;
  Exec_spec run;       // the measured parallel mapping
  Exec_spec serial;    // optional same-work single-core baseline
  // Block rescaling the host applies when quantizing data into this stage.
  // Stages whose inputs arrive directly from a previous kernel's fixed-point
  // output (e.g. mimo_solve, fed by gram/chol) inherit the producer's scale
  // and ignore this field.
  double rescale = 1.0;
  bool core_set = true;  // counts toward the roll-up's parallel total
};

// Kernel-ready params of an Exec_spec: the stage-level scheduling key
// symb_batch (consumed by the execution engines, not by kernel factories)
// is stripped.  Both measure() and the backends build kernel params
// through this.
Params kernel_params(const Exec_spec& spec);

// Resolves an fft stage's concurrent gang count against a cluster: an
// explicit "inst" param wins, 0/absent fills the cluster - n_cores /
// (fft_size / 16) concurrent FFTs, the paper's gang of N/16 cores each;
// the result is clamped to [1, max_inst].  The one gang rule of the
// fft.parallel kernel, the use-case preset and the sim backend, so their
// launch counts agree.
uint32_t resolve_fft_gangs(const arch::Cluster_config& cluster,
                           uint32_t fft_size, const Params& params,
                           uint32_t max_inst = UINT32_MAX);

// ---- analytic roll-up options (paper Fig. 9c) -----------------------------

// How Pipeline::measure runs its per-stage simulations.  Every combination
// of these knobs produces bit-identical Rollup_results: stages run on
// independent fresh machines, streamed one job at a time - construct the
// machine, bind its inputs, launch, release - with the binds taken in
// declaration order (so the shared stimulus Rng draws in a fixed
// sequence), results merge by stage index, and cycle counts are
// data-independent by the Kernel contract (kernel.h).  The differential
// suite (tests/test_sim_differential.cpp) pins the invariances, and
// tests/test_pipeline.cpp the live-machine bound.
struct Measure_options {
  uint64_t seed = 2023;  // stimulus seed (cycle counts do not depend on it)
  // Host threads running the per-stage machines (>= 1).  Each takes the
  // next job from a shared cursor, constructs and binds it under the
  // cursor's lock and launches it outside, so at most `shards` machines
  // are alive at once and a bind never waits on a launch.
  uint32_t shards = 1;
  // Reuse launch reports across measure() calls in this process: a stage's
  // report on a fresh machine is a pure function of (cluster, kernel,
  // params), so repeated configurations skip simulation entirely.
  bool reuse_reports = true;
  // Force the pre-batching reference scheduler (sim::Machine reference
  // loop) for every stage; reports are kept apart from fast-path ones.
  bool reference_loop = false;
};

// ---- analytic roll-up result (paper Fig. 9c) ------------------------------

struct Rollup_stage {
  std::string name;
  sim::Kernel_report rep;  // one measured instance
  uint64_t times = 1;      // instances per slot
  uint64_t total_cycles() const { return rep.cycles * times; }
};

struct Rollup_result {
  std::vector<Rollup_stage> stages;
  uint64_t parallel_cycles = 0;  // sum over core_set stages
  uint64_t serial_cycles = 0;    // same work on one core
  double speedup() const {
    return parallel_cycles
               ? static_cast<double>(serial_cycles) / parallel_cycles
               : 0.0;
  }
  double ms_at_1ghz() const { return parallel_cycles * 1e-6; }
};

// ---- functional slot result ----------------------------------------------

struct Slot_result {
  // Per-stage reports of the simulated cluster, one row per pipeline stage
  // with cycles, instructions and stalls summed over the stage's kernel
  // launches (`runs`).  Only the sim backend launches kernels; the host
  // backends leave `stages` empty.  Counters are 64-bit
  // throughout: a sustained TeraPool serve trace accumulates > 4e9 WFI
  // stall cycles per stage well before a slot count worth benchmarking,
  // so 32-bit accumulators would silently wrap
  // (tests/test_sim_differential.cpp pins the width).
  struct Stage {
    std::string name;
    uint64_t cycles = 0;
    uint64_t instrs = 0;
    std::array<uint64_t, sim::n_stall_kinds> stall{};
    uint64_t runs = 0;
  };
  std::vector<Stage> stages;

  std::vector<std::vector<uint8_t>> bits;  // recovered payload per UE
  // Equalized data symbols per UE, in (data symbol, sub-carrier) item order
  // - exactly the vector the backend demodulated into `bits`.  The HARQ
  // combiner (runtime/harq.h) accumulates these across retransmission
  // attempts for the combined decode.
  std::vector<std::vector<phy::cd>> symbols;
  double evm = 0.0;         // vs transmitted constellation points
  double ber = 0.0;
  double sigma2_hat = 0.0;  // NE output (beam-grid units)
  std::string backend;      // which backend produced this result

  uint64_t total_cycles() const {
    uint64_t t = 0;
    for (const auto& s : stages) t += s.cycles;
    return t;
  }
};

// ---- the pipeline ---------------------------------------------------------

class Pipeline {
 public:
  Pipeline(std::string name, arch::Cluster_config cluster)
      : name_(std::move(name)), cluster_(std::move(cluster)) {}

  Pipeline& add(Stage_spec s) {
    stages_.push_back(std::move(s));
    return *this;
  }

  const std::string& name() const { return name_; }
  const arch::Cluster_config& cluster() const { return cluster_; }
  const std::vector<Stage_spec>& stages() const { return stages_; }

  // First stage with the given role, or nullptr.
  const Stage_spec* find(Stage_role role) const {
    for (const auto& s : stages_) {
      if (s.role == role) return &s;
    }
    return nullptr;
  }

  // Analytic roll-up: measures each stage once (fresh machine per stage,
  // released after its launch; synthetic stimulus) and scales by its
  // repetition count.
  Rollup_result measure(uint64_t seed = 2023) const;
  Rollup_result measure(const Measure_options& opt) const;

  // Functional slot execution on the given backend: execute_into() into a
  // fresh result.
  Slot_result execute(const phy::Uplink_scenario& sc, Backend& backend) const;

  // execute() into caller-owned result storage (capacity reused across
  // slots); forwards to Backend::run_slot_into - the serving loop's
  // zero-allocation entry point.
  void execute_into(const phy::Uplink_scenario& sc, Backend& backend,
                    Slot_result& out) const;

 private:
  std::string name_;
  arch::Cluster_config cluster_;
  std::vector<Stage_spec> stages_;
};

}  // namespace pp::runtime

#endif  // PUSCHPOOL_RUNTIME_PIPELINE_H
