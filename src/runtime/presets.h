// Pipeline presets for the paper's PUSCH workloads.
//
// use_case_pipeline() builds the declarative stage list of the paper's
// Fig. 9c use case (64 antennas, 4096-point grid, 32 beams, 4 UEs, 14
// symbols); run_use_case() measures it - one simulated instance per stage,
// scaled by the per-slot repetition counts, plus the single-core baselines.
//
// uplink_pipeline() builds the end-to-end functional receive chain for an
// uplink scenario; execute it on a runtime::Backend ("sim" or "reference").
#ifndef PUSCHPOOL_RUNTIME_PRESETS_H
#define PUSCHPOOL_RUNTIME_PRESETS_H

#include <utility>

#include "pusch/complexity.h"
#include "runtime/pipeline.h"

namespace pp::runtime {

// Configuration of the analytic use-case roll-up (paper SVI, Fig. 9c).
struct Use_case_options {
  arch::Cluster_config cluster = arch::Cluster_config::terapool();
  pusch::Pusch_dims dims;
  bool batch_cholesky = true;       // schedule 4 data symbols per batch
  bool include_estimation = false;  // extension: CHE/NE/gram/solve rows
  // Roll-up measurement knobs (Measure_options): host threads for the
  // per-stage machines and report reuse.  Bit-identical for any setting.
  uint32_t sim_shards = 1;
  bool reuse_reports = true;
};

Pipeline use_case_pipeline(const Use_case_options& opt);

// Measures the use-case pipeline: equivalent to
// use_case_pipeline(opt).measure().
Rollup_result run_use_case(const Use_case_options& opt);

// Configuration knobs of the functional uplink chain.
struct Uplink_options {
  uint32_t chol_symb_batch = 1;  // data symbols per Cholesky/solve launch
};

Pipeline uplink_pipeline(const arch::Cluster_config& cluster,
                         const Uplink_options& opt = {});

// (name, summary) of the built-in pipeline presets, in registration order -
// the CLI `--list` surface next to Registry::list() and backend_names().
std::vector<std::pair<std::string, std::string>> preset_names();

}  // namespace pp::runtime

#endif  // PUSCHPOOL_RUNTIME_PRESETS_H
