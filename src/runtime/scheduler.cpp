#include "runtime/scheduler.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <thread>

#include <algorithm>

#include "common/check.h"
#include "common/table.h"
#include "pusch/complexity.h"
#include "runtime/admission.h"
#include "runtime/backend.h"
#include "runtime/harq.h"
#include "runtime/placement.h"

namespace pp::runtime {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Positions of `jobs` in (arrival, stream index) order: the order every
// FCFS clock is fed in, by admission and by the deadline accounting alike.
std::vector<uint64_t> chronological(const std::vector<Slot_job>& jobs) {
  std::vector<uint64_t> order(jobs.size());
  std::iota(order.begin(), order.end(), uint64_t{0});
  std::sort(order.begin(), order.end(), [&](uint64_t a, uint64_t b) {
    if (jobs[a].arrival_s != jobs[b].arrival_s) {
      return jobs[a].arrival_s < jobs[b].arrival_s;
    }
    return a < b;
  });
  return order;
}

}  // namespace

double analytic_service_seconds(const phy::Uplink_config& cfg,
                                const arch::Cluster_config& cluster,
                                double clock_ghz) {
  PP_CHECK(clock_ghz > 0.0, "service model needs a positive clock");
  pusch::Pusch_dims d;
  d.n_sc = cfg.n_sc;
  d.fft_size = cfg.fft_size;
  d.n_symb = cfg.n_symb;
  d.n_pilot_symb = cfg.n_pilot_symb;
  d.n_rx = cfg.n_rx;
  d.n_beams = cfg.n_beams;
  d.n_ue = cfg.n_ue;
  const double cycles = pusch::pusch_macs(d).total() / cluster.n_cores();
  return cycles / (clock_ghz * 1e9);
}

Slot_scheduler::Slot_scheduler(Scheduler_options opt) : opt_(std::move(opt)) {}

Schedule_result Slot_scheduler::run(const Slot_source& src) const {
  const uint64_t n_initial = src.n_slots();
  const uint32_t n_shards = std::max(1u, opt_.shards);
  const uint32_t service_units = std::max(1u, opt_.service_units);
  PP_CHECK(!(opt_.virtual_only && opt_.max_harq > 0),
           "HARQ retransmission verdicts need executed decodes; "
           "virtual-only runs cannot close the loop");

  const Pipeline pipeline = uplink_pipeline(opt_.cluster, opt_.uplink);

  // Probe the backend once for cycle accuracy (cheap: intra = 1 spawns no
  // pool threads).
  const bool cycle_accurate = make_backend(opt_.backend, 1)->cycle_accurate() &&
                              !opt_.virtual_only && !opt_.analytic_service;
  const bool pipelined = opt_.pipelined && !opt_.virtual_only;

  // ---- serial pre-pass: resolve and place ------------------------------
  // job(i) is pure and cheap (the expensive scenario construction stays in
  // the workers), so resolving the whole stream serially keeps the
  // placement and admission decisions trivially host-independent.
  std::vector<Slot_job> jobs(n_initial);
  for (uint64_t i = 0; i < n_initial; ++i) {
    jobs[i] = src.job(i);
    PP_CHECK(jobs[i].group < src.n_groups(), "slot job group out of range");
  }
  // HARQ bookkeeping: which original slot each job serves and its attempt
  // number.  The exogenous stream is its own parent at attempt 0;
  // retransmission jobs appended by the HARQ loop extend these in step
  // with `jobs`.
  std::vector<uint64_t> parent(n_initial);
  std::vector<uint32_t> attempt(n_initial, 0);
  for (uint64_t i = 0; i < n_initial; ++i) parent[i] = i;

  // Placement sees the exogenous stream only - retransmissions inherit
  // their parent's group and therefore its shard, so closing the HARQ loop
  // never migrates a cell.
  const std::vector<uint32_t> shard_of_group = place_groups(
      opt_.placement,
      opt_.placement == "load-aware"
          ? group_service_seconds(jobs, src.n_groups(), opt_.cluster,
                                  opt_.clock_ghz)
          : std::vector<double>(),
      src.n_groups(), n_shards);

  Admission_options aopt;
  aopt.policy = overload_from_name(opt_.overload);
  aopt.queue_limit = opt_.queue_limit;
  aopt.min_ue = opt_.degrade_min_ue;

  // Full per-slot results are retained only when the caller asks for them
  // (keep_slots).  Otherwise the serving loop runs in summary mode - each
  // thread equalizes into one private reusable Slot_result, folds it into
  // its HARQ block if the loop is on, and records only the per-slot scalars
  // the aggregation below needs, so with max_harq = 0 the steady state
  // allocates nothing (a failing HARQ block's combiner state is the
  // declared exemption, docs/DETERMINISM.md §10).
  struct Slot_stats {
    double evm = 0.0;
    double ber = 0.0;
    double sigma2_hat = 0.0;
    uint64_t cycles = 0;
  };
  std::vector<Admission_verdict> verdicts;
  std::vector<Slot_result> slots;
  std::vector<Slot_stats> stats;
  std::vector<double> wall_service, wall_synth;
  double wall_seconds = 0.0;
  uint32_t workers_used = 0;
  // One chase combiner per original slot when the HARQ loop is on.
  std::vector<Harq_combiner> blocks(opt_.max_harq > 0 ? n_initial : 0,
                                    Harq_combiner(opt_.harq_ber));

  // Per-thread state persists across rounds: the backends (and the slot
  // workspaces they grew on round 0) and the summary-mode result scratch.
  std::vector<std::unique_ptr<Backend>> backends;
  std::vector<Slot_result> scratch;

  // Execute jobs[first..jobs.size()) that survived admission - the whole
  // initial stream on round 0, each round's retransmissions afterwards.
  //
  // Every thread runs one loop: take the next position in the admitted
  // stream from the cursor and serve that job whole on the thread's private
  // Backend, writing into the job's own pre-sized element - no locks, no
  // shared mutable kernel state (the lazily-built twiddle / QAM tables are
  // call_once-guarded and immutable afterwards).  Scenarios come from the
  // admission verdict's final config, so a degraded slot executes its
  // re-planned layer count.  The thread that serves a slot also folds it
  // into its HARQ block: a round holds at most one attempt per block (round
  // 0 one job per block, each later round one retransmission per block
  // still failing), and the join below separates rounds, so every combiner
  // sums its attempts in attempt order without a lock.  Which thread served
  // a slot changes nothing but the clock.
  auto execute_batch = [&](uint64_t first) {
    // Compact execution stream: dropped jobs are shed before any backend
    // sees them - that is the point of admission control.  The admitted
    // jobs are dispatched longest-predicted-first (the analytic service
    // time of the verdict's config, ties in index order), so a round's
    // largest slots start at once and the short ones fill in behind them
    // instead of one large slot running alone at the round's end.
    std::vector<uint64_t> exec;
    std::vector<double> predicted(jobs.size() - first, 0.0);
    exec.reserve(jobs.size() - first);
    for (uint64_t i = first; i < jobs.size(); ++i) {
      if (verdicts[i].outcome != Admission_verdict::Outcome::dropped) {
        exec.push_back(i);
        predicted[i - first] = analytic_service_seconds(
            verdicts[i].cfg, opt_.cluster, opt_.clock_ghz);
      }
    }
    std::sort(exec.begin(), exec.end(), [&](uint64_t a, uint64_t b) {
      const double pa = predicted[a - first], pb = predicted[b - first];
      return pa != pb ? pa > pb : a < b;
    });

    uint32_t workers = opt_.workers;
    if (workers == 0) {
      workers = std::max(1u, std::thread::hardware_concurrency());
    }
    if (workers > exec.size()) {
      workers = static_cast<uint32_t>(std::max<size_t>(exec.size(), 1));
    }
    if (workers_used == 0) workers_used = workers;
    // Pipelined, each worker gets a second thread of the same kind.
    const uint32_t threads = static_cast<uint32_t>(
        std::min<uint64_t>(pipelined ? 2 * workers : workers, exec.size()));
    std::atomic<uint64_t> cursor{0};

    // Grow the persistent per-thread state (never shrink: a later HARQ
    // round with fewer jobs still reuses the backends round 0 built).
    if (backends.size() < threads) backends.resize(threads);
    if (scratch.size() < threads) scratch.resize(threads);
    // Synthesizes job i's scenario and serves it whole on `backend`.
    auto serve_whole = [&](uint64_t i, Backend& backend, Slot_result& spare) {
      const auto t_synth = Clock::now();
      const phy::Uplink_scenario sc(verdicts[i].cfg);
      wall_synth[i] = seconds_since(t_synth);
      const auto t0 = Clock::now();
      Slot_result& dst = opt_.keep_slots ? slots[i] : spare;
      pipeline.execute_into(sc, backend, dst);
      wall_service[i] = seconds_since(t0);
      stats[i] = {dst.evm, dst.ber, dst.sigma2_hat, dst.total_cycles()};
      if (!blocks.empty()) blocks[parent[i]].absorb(sc, dst);
    };
    auto work = [&](uint32_t t) {
      if (!backends[t]) backends[t] = make_backend(opt_.backend, opt_.intra);
      for (;;) {
        const uint64_t p = cursor.fetch_add(1, std::memory_order_relaxed);
        if (p >= exec.size()) break;
        serve_whole(exec[p], *backends[t], scratch[t]);
      }
    };

    const auto t0 = Clock::now();
    if (!exec.empty() && !opt_.virtual_only) {
      std::vector<std::thread> pool;
      pool.reserve(threads - 1);
      // The calling thread serves as thread 0.
      for (uint32_t t = 1; t < threads; ++t) pool.emplace_back(work, t);
      work(0);
      for (auto& t : pool) t.join();
    }
    wall_seconds += seconds_since(t0);
  };

  // ---- the serving loop: admit, execute, judge -------------------------
  // One pass per round.  Round 0 is the exogenous stream; each later round
  // holds the HARQ retransmissions the previous round spawned, and the
  // loop ends with the first round that spawns none (round 0 itself when
  // max_harq = 0).  Every admission and HARQ decision runs on this thread,
  // in an order that is a pure function of the per-slot results.
  std::vector<uint32_t> spawned(blocks.size(), 0);
  std::vector<Schedule_result::Harq_entry> harq_log;
  std::vector<uint64_t> order;  // every job so far, chronologically
  for (uint64_t first = 0;;) {
    // Admit the round by running the predictor chronologically over the
    // whole stream so far: earlier rounds' verdicts are replayed (occupancy
    // only - decisions are final) and this round's jobs decided interleaved
    // at their true arrivals, so a retransmission contends with exactly the
    // load present around its arrival.  On round 0 the chronological order
    // is the index order, since a Slot_source's arrivals are non-decreasing.
    order = chronological(jobs);
    verdicts.resize(jobs.size());
    Admission_state astate(n_shards, service_units);
    for (const uint64_t i : order) {
      if (i < first) {
        replay_one(jobs[i], verdicts[i], opt_.cluster, opt_.clock_ghz, astate);
      } else {
        verdicts[i] = admit_one(jobs[i], shard_of_group[jobs[i].group],
                                opt_.cluster, opt_.clock_ghz, aopt, astate);
      }
    }

    if (opt_.keep_slots) slots.resize(jobs.size());
    stats.resize(jobs.size());
    wall_service.resize(jobs.size(), 0.0);
    wall_synth.resize(jobs.size(), 0.0);
    execute_batch(first);

    if (opt_.max_harq == 0) break;
    // Judge the round in stream order: the threads already folded every
    // executed attempt into its block's chase combiner, so record each
    // block's verdict and queue a retransmission for each block still
    // failing with attempts left.  A block whose attempt was dropped by
    // admission gets no decode this round - NACK-on-silence: it is
    // retransmitted all the same.
    const uint64_t round_end = jobs.size();
    struct Pending {
      Slot_job job;
      uint64_t parent = 0;
      uint32_t attempt = 0;
    };
    std::vector<Pending> next;
    next.reserve(round_end - first);
    harq_log.reserve(round_end);
    for (uint64_t i = first; i < round_end; ++i) {
      const uint64_t p = parent[i];
      const Harq_combiner& blk = blocks[p];
      harq_log.push_back({p, attempt[i], blk.best_ber(), blk.passed()});
      if (!blk.passed() && spawned[p] < opt_.max_harq) {
        ++spawned[p];
        Pending r;
        r.job = jobs[p];
        // Same transport block under a fresh fade (phy::kHarqStream),
        // arriving one deadline budget per attempt after the original
        // (batch jobs have no budget and re-arrive immediately).
        r.job.cfg.harq_attempt = spawned[p];
        r.job.arrival_s = jobs[p].arrival_s + spawned[p] * jobs[p].budget_s;
        r.parent = p;
        r.attempt = spawned[p];
        next.push_back(std::move(r));
      }
    }
    if (next.empty()) break;
    // Retransmissions enter the stream in (arrival, parent) order, so a
    // round is itself a valid job stream (non-decreasing arrivals) and
    // its order is a pure function of the verdicts above.
    std::sort(next.begin(), next.end(),
              [](const Pending& a, const Pending& b) {
                if (a.job.arrival_s != b.job.arrival_s) {
                  return a.job.arrival_s < b.job.arrival_s;
                }
                return a.parent < b.parent;
              });
    first = round_end;
    for (size_t k = 0; k < next.size(); ++k) {
      next[k].job.index = first + k;
      jobs.push_back(next[k].job);
      parent.push_back(next[k].parent);
      attempt.push_back(next[k].attempt);
    }
  }
  const uint64_t n_jobs = jobs.size();

  // ---- deterministic virtual-time deadline accounting ------------------
  // Service times: simulated cycles at the virtual clock when the backend
  // reports them, the analytic MAC model otherwise; both are pure functions
  // of the executed slot configuration.  Each shard drains its admitted
  // jobs through its own FCFS clock over `service_units` virtual clusters,
  // independent of host scheduling and of the other shards.  The last
  // round's chronological order covers every job, and a shard's
  // subsequence of it is that shard's own (arrival, index) order.  On host
  // backends the clocks see exactly what the last admission pass replayed
  // into them, so the accounting agrees with the predictor by construction.
  std::vector<Fcfs_clock> shard_clocks(n_shards, Fcfs_clock(service_units));
  std::vector<double> completion_s(n_jobs, 0.0);
  for (const uint64_t i : order) {
    const Admission_verdict& v = verdicts[i];
    if (v.outcome == Admission_verdict::Outcome::dropped) continue;
    const double service =
        cycle_accurate
            ? static_cast<double>(stats[i].cycles) / (opt_.clock_ghz * 1e9)
            : analytic_service_seconds(v.cfg, opt_.cluster, opt_.clock_ghz);
    completion_s[i] = shard_clocks[v.shard].serve(jobs[i].arrival_s, service);
  }

  // ---- aggregation, strictly in slot-index order -----------------------
  Schedule_result out;
  out.source = src.name();
  out.backend = opt_.backend;
  out.placement = opt_.placement;
  out.overload = opt_.overload;
  out.workers = workers_used;
  out.pipelined = pipelined;
  out.total_slots = n_jobs;
  out.wall_seconds = wall_seconds;
  out.shards.resize(n_shards);

  out.groups.resize(src.n_groups());
  for (uint32_t g = 0; g < src.n_groups(); ++g) {
    out.groups[g].label = src.group_label(g);
    out.groups[g].shard = shard_of_group[g];
    ++out.shards[shard_of_group[g]].groups;
  }
  // Each job is counted once, on its group; the shard and global roll-ups
  // are folded from the groups afterwards.
  std::vector<double> group_evm2(out.groups.size(), 0.0);
  std::vector<double> group_ber(out.groups.size(), 0.0);
  std::vector<double> group_sigma2(out.groups.size(), 0.0);
  for (uint64_t i = 0; i < n_jobs; ++i) {
    const Slot_job& job = jobs[i];
    const Admission_verdict& v = verdicts[i];
    auto& grp = out.groups[job.group];
    ++grp.slots;
    // A retransmission job, admitted or not, is offered load the HARQ loop
    // generated.
    if (attempt[i] > 0) ++grp.harq_retx;
    if (v.outcome == Admission_verdict::Outcome::dropped) {
      ++grp.dropped;
      continue;
    }
    ++grp.admitted;
    if (v.outcome == Admission_verdict::Outcome::degraded) ++grp.degraded;
    const Slot_stats& s = stats[i];
    group_evm2[job.group] += s.evm * s.evm;
    group_ber[job.group] += s.ber;
    group_sigma2[job.group] += s.sigma2_hat;
    grp.cycles += s.cycles;
    out.total_cycles += s.cycles;

    const double latency = completion_s[i] - job.arrival_s;
    grp.latency.record(latency);
    if (!opt_.virtual_only) {
      out.wall_service.record(wall_service[i]);
      out.wall_synth.record(wall_synth[i]);
    }
    out.virtual_makespan_s = std::max(out.virtual_makespan_s, completion_s[i]);
    if (job.budget_s > 0.0) {
      ++grp.deadline_slots;
      if (latency > job.budget_s) ++grp.deadline_misses;
    }
  }
  for (size_t g = 0; g < out.groups.size(); ++g) {
    auto& grp = out.groups[g];
    if (grp.admitted > 0) {
      grp.evm = std::sqrt(group_evm2[g] / grp.admitted);
      grp.ber = group_ber[g] / grp.admitted;
      grp.sigma2_hat = group_sigma2[g] / grp.admitted;
    }
  }
  if (opt_.max_harq > 0) {
    // Per-block HARQ outcome, in original slot order: a block that ever
    // retransmitted either recovered (finally passed the threshold) or
    // exhausted its attempts still failing.  Blocks that passed on the
    // initial transmission never retransmitted and count as neither.
    for (uint64_t p = 0; p < n_initial; ++p) {
      if (spawned[p] == 0) continue;
      auto& grp = out.groups[jobs[p].group];
      ++(blocks[p].passed() ? grp.harq_recovered : grp.harq_exhausted);
    }
  }
  for (const auto& grp : out.groups) out.shards[grp.shard] += grp;
  for (const auto& shard : out.shards) out += shard;
  out.harq = std::move(harq_log);
  if (opt_.keep_slots) out.slots = std::move(slots);
  return out;
}

Serving_counters& Serving_counters::operator+=(const Serving_counters& o) {
  slots += o.slots;
  admitted += o.admitted;
  dropped += o.dropped;
  degraded += o.degraded;
  deadline_slots += o.deadline_slots;
  deadline_misses += o.deadline_misses;
  latency.merge(o.latency);
  harq_retx += o.harq_retx;
  harq_recovered += o.harq_recovered;
  harq_exhausted += o.harq_exhausted;
  return *this;
}

namespace {

// The one comparison behind deterministic_equal and scenario_equal;
// `numerics` adds the fields that differ between arithmetic families (EVM,
// sigma2_hat and simulated cycles).
bool surfaces_equal(const Schedule_result& a, const Schedule_result& b,
                    bool numerics) {
  const auto group_equal = [&](const Schedule_result::Group& x,
                               const Schedule_result::Group& y) {
    return static_cast<const Serving_counters&>(x) == y &&
           x.label == y.label && x.shard == y.shard && x.ber == y.ber &&
           (!numerics || (x.evm == y.evm && x.sigma2_hat == y.sigma2_hat &&
                          x.cycles == y.cycles));
  };
  return std::equal(a.groups.begin(), a.groups.end(), b.groups.begin(),
                    b.groups.end(), group_equal) &&
         a.shards == b.shards &&
         static_cast<const Serving_counters&>(a) == b && a.harq == b.harq &&
         a.virtual_makespan_s == b.virtual_makespan_s &&
         a.total_slots == b.total_slots &&
         (!numerics || a.total_cycles == b.total_cycles);
}

}  // namespace

bool Schedule_result::deterministic_equal(const Schedule_result& o) const {
  return surfaces_equal(*this, o, true);
}

bool Schedule_result::scenario_equal(const Schedule_result& o) const {
  return surfaces_equal(*this, o, false);
}

std::string Schedule_result::str() const {
  const bool serving = shards.size() > 1 || overload != "off";
  common::Table t({"group", "shard", "slots", "adm/dr/dg", "EVM %", "BER",
                   "sigma2^", "cycles", "miss/dl", "p50 us", "p99 us"});
  for (const auto& g : groups) {
    t.add_row({g.label,
               common::Table::fmt(static_cast<uint64_t>(g.shard)),
               common::Table::fmt(static_cast<uint64_t>(g.slots)),
               common::Table::fmt(g.admitted) + "/" +
                   common::Table::fmt(g.dropped) + "/" +
                   common::Table::fmt(g.degraded),
               common::Table::fmt(100.0 * g.evm, 2),
               common::Table::fmt(g.ber, 5),
               common::Table::fmt(g.sigma2_hat, 8),
               common::Table::fmt(g.cycles),
               common::Table::fmt(g.deadline_misses) + "/" +
                   common::Table::fmt(g.deadline_slots),
               common::Table::fmt(1e6 * g.latency.percentile(0.50), 2),
               common::Table::fmt(1e6 * g.latency.percentile(0.99), 2)});
  }
  std::string shard_table;
  if (shards.size() > 1) {
    common::Table st({"shard", "groups", "slots", "adm/dr/dg", "miss/dl",
                      "p50 us", "p99 us"});
    for (size_t s = 0; s < shards.size(); ++s) {
      const Shard& sh = shards[s];
      st.add_row({common::Table::fmt(static_cast<uint64_t>(s)),
                  common::Table::fmt(static_cast<uint64_t>(sh.groups)),
                  common::Table::fmt(sh.slots),
                  common::Table::fmt(sh.admitted) + "/" +
                      common::Table::fmt(sh.dropped) + "/" +
                      common::Table::fmt(sh.degraded),
                  common::Table::fmt(sh.deadline_misses) + "/" +
                      common::Table::fmt(sh.deadline_slots),
                  common::Table::fmt(1e6 * sh.latency.percentile(0.50), 2),
                  common::Table::fmt(1e6 * sh.latency.percentile(0.99), 2)});
    }
    shard_table = st.str();
  }
  char footer[512];
  std::snprintf(
      footer, sizeof footer,
      "%llu slots from '%s' on the %s backend, %u worker%s%s: %.3f s wall, "
      "%.1f slots/s, synthesis p50 %.1f us\nvirtual clock: makespan %.3f "
      "ms, latency p50/p99/p999 %.1f/%.1f/%.1f us, %llu/%llu deadline "
      "misses\n",
      static_cast<unsigned long long>(total_slots), source.c_str(),
      backend.c_str(), workers, workers == 1 ? "" : "s",
      pipelined ? " (two threads each)" : "", wall_seconds, slots_per_second(),
      1e6 * wall_synth.percentile(0.50), 1e3 * virtual_makespan_s,
      1e6 * latency.percentile(0.50), 1e6 * latency.percentile(0.99),
      1e6 * latency.percentile(0.999),
      static_cast<unsigned long long>(deadline_misses),
      static_cast<unsigned long long>(deadline_slots));
  std::string serving_line;
  if (serving) {
    char line[224];
    std::snprintf(
        line, sizeof line,
        "serving: %zu shard%s, placement %s, overload %s: "
        "%llu admitted, %llu dropped, %llu degraded\n",
        shards.size(), shards.size() == 1 ? "" : "s", placement.c_str(),
        overload.c_str(), static_cast<unsigned long long>(admitted),
        static_cast<unsigned long long>(dropped),
        static_cast<unsigned long long>(degraded));
    serving_line = line;
  }
  std::string harq_line;
  if (!harq.empty()) {
    char line[160];
    std::snprintf(line, sizeof line,
                  "harq: %llu retransmissions, %llu recovered, "
                  "%llu exhausted\n",
                  static_cast<unsigned long long>(harq_retx),
                  static_cast<unsigned long long>(harq_recovered),
                  static_cast<unsigned long long>(harq_exhausted));
    harq_line = line;
  }
  return t.str() + shard_table + footer + serving_line + harq_line;
}

}  // namespace pp::runtime
