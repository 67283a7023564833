#include "runtime/admission.h"

#include <algorithm>
#include <deque>

#include "common/check.h"
#include "phy/uplink.h"

namespace pp::runtime {

std::vector<std::string> overload_names() {
  return {"off", "drop", "queue", "degrade"};
}

bool is_overload_name(const std::string& name) {
  for (const auto& n : overload_names()) {
    if (n == name) return true;
  }
  return false;
}

Overload_policy overload_from_name(const std::string& name) {
  if (name == "off") return Overload_policy::off;
  if (name == "drop") return Overload_policy::drop;
  if (name == "queue") return Overload_policy::queue;
  if (name == "degrade") return Overload_policy::degrade;
  PP_CHECK(false,
           "unknown overload policy (registered: off, drop, queue, degrade)");
  return Overload_policy::off;  // unreachable
}

std::vector<Admission_verdict> admit_jobs(
    const std::vector<Slot_job>& jobs,
    const std::vector<uint32_t>& shard_of_group, uint32_t n_shards,
    uint32_t service_units, const arch::Cluster_config& cluster,
    double clock_ghz, const Admission_options& opt) {
  PP_CHECK(n_shards >= 1, "admission needs at least one shard");
  Admission_state state(n_shards, std::max(1u, service_units));
  std::vector<Admission_verdict> verdicts(jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    const Slot_job& job = jobs[i];
    PP_CHECK(job.group < shard_of_group.size(), "slot job group out of range");
    verdicts[i] = admit_one(job, shard_of_group[job.group], cluster,
                            clock_ghz, opt, state);
  }
  return verdicts;
}

Admission_verdict admit_one(const Slot_job& job, uint32_t shard,
                            const arch::Cluster_config& cluster,
                            double clock_ghz, const Admission_options& opt,
                            Admission_state& state) {
  PP_CHECK(shard < state.shards.size(),
           "placement returned an out-of-range shard");
  PP_CHECK(opt.min_ue >= 1, "degrade floor must keep at least one UE layer");
  Admission_verdict v;
  v.shard = shard;
  v.cfg = job.cfg;
  Admission_state::Shard_clock& clock = state.shards[shard];

  const double start = clock.fcfs.start(job.arrival_s);
  double service = analytic_service_seconds(v.cfg, cluster, clock_ghz);
  v.predicted_delay_s = start + service - job.arrival_s;

  switch (opt.policy) {
    case Overload_policy::off:
      break;
    case Overload_policy::drop:
      if (job.budget_s > 0.0 && v.predicted_delay_s > job.budget_s) {
        v.outcome = Admission_verdict::Outcome::dropped;
      }
      break;
    case Overload_policy::queue:
      // Predicted starts are non-decreasing in arrival order (a shard's
      // earliest-free time never decreases), so the deque front is the
      // oldest pending start and its size after popping the past ones is
      // the backlog at this arrival.
      while (!clock.starts.empty() && clock.starts.front() <= job.arrival_s) {
        clock.starts.pop_front();
      }
      if (clock.starts.size() >= opt.queue_limit) {
        v.outcome = Admission_verdict::Outcome::dropped;
      }
      break;
    case Overload_policy::degrade:
      while (job.budget_s > 0.0 && v.predicted_delay_s > job.budget_s &&
             v.cfg.n_ue > opt.min_ue) {
        v.cfg = phy::degrade_to_layers(v.cfg, v.cfg.n_ue - 1);
        service = analytic_service_seconds(v.cfg, cluster, clock_ghz);
        v.predicted_delay_s = start + service - job.arrival_s;
      }
      if (v.cfg.n_ue != job.cfg.n_ue) {
        v.outcome = Admission_verdict::Outcome::degraded;
      }
      break;
  }

  if (v.outcome != Admission_verdict::Outcome::dropped) {
    clock.fcfs.serve(job.arrival_s, service);
    clock.starts.push_back(start);
  }
  return v;
}

void replay_one(const Slot_job& job, const Admission_verdict& v,
                const arch::Cluster_config& cluster, double clock_ghz,
                Admission_state& state) {
  if (v.outcome == Admission_verdict::Outcome::dropped) return;
  PP_CHECK(v.shard < state.shards.size(), "replayed verdict shard mismatch");
  Admission_state::Shard_clock& clock = state.shards[v.shard];
  // Retire starts that are past this arrival (harmless for policies that
  // never read the backlog), then occupy the earliest-free server with the
  // verdict's FINAL config - a degraded job loads its re-planned service.
  while (!clock.starts.empty() && clock.starts.front() <= job.arrival_s) {
    clock.starts.pop_front();
  }
  const double start = clock.fcfs.start(job.arrival_s);
  clock.fcfs.serve(job.arrival_s,
                   analytic_service_seconds(v.cfg, cluster, clock_ghz));
  clock.starts.push_back(start);
}

}  // namespace pp::runtime
