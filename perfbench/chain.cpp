// Closed-loop single-slot workloads over prebuilt slots:
//
//   mimo-q15      `fixed` backend, SIMD on, one worker; 1024 sub-carriers,
//                 8 rx, 8 beams, 4 UEs, 16-QAM.  Oracle: `fixed`, SIMD off.
//   front-double  `parallel` backend, intra = nproc; 4096 sub-carriers,
//                 16 rx, 8 beams, 1 UE, QPSK.  Oracle: `reference`.
//
// One slot is in flight at a time: the next Pipeline::execute_into starts
// when the previous returns.  Every measured slot is compared with the
// oracle's decode of the same input (payload bits, EVM, BER, sigma2_hat).
#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>

#include "bench.h"
#include "common/rng.h"
#include "fixed/simd.h"
#include "replay.h"
#include "runtime/backend.h"
#include "runtime/backend_fixed.h"
#include "runtime/backend_parallel.h"
#include "runtime/presets.h"

namespace perfbench {

namespace {

using pp::phy::Uplink_config;
using pp::phy::Uplink_scenario;
using pp::runtime::Backend;
using pp::runtime::Pipeline;
using pp::runtime::Slot_result;

constexpr int kSetupReps = 3;       // set-ups per run; setup_s is their median
constexpr uint64_t kMinSlots = 100;  // p90 keeps >= 10 samples beyond it
constexpr size_t kWindow = 10;       // slots per window (quietest_windows)
constexpr size_t kPooled = 100;      // slots pooled from the quietest windows

struct Chain_spec {
  const char* name;
  Uplink_config base;  // per-slot seeds are derived from the run seed
  uint32_t n_slots;
  uint32_t intra;      // intra-slot workers of the measured backend
  std::function<std::unique_ptr<Backend>()> measured, oracle;
  bool fixed_chain;    // replay the Q15 chain (else the double chain)
};

// Per-antenna noise for a target SNR, as the sweep and traffic sources set
// it: each of the n_ue Rayleigh paths contributes (gain * power)^2.
Uplink_config slot_config(uint32_t n_sc, uint32_t n_rx, uint32_t n_beams,
                          uint32_t n_ue, pp::phy::Qam qam, double snr_db) {
  Uplink_config c;
  c.n_sc = c.fft_size = n_sc;
  c.n_rx = n_rx;
  c.n_beams = n_beams;
  c.n_ue = n_ue;
  c.n_symb = 14;
  c.n_pilot_symb = 2;
  c.qam = qam;
  const double gp = c.channel_gain * c.ue_power;
  c.sigma2 = n_ue * gp * gp * std::pow(10.0, -snr_db / 10.0);
  return c;
}

struct Setup {
  std::unique_ptr<Pipeline> pipeline;
  std::unique_ptr<Backend> backend;
  std::vector<std::unique_ptr<const Uplink_scenario>> slots;
  std::vector<Slot_result> oracle;
  uint64_t failed = 0;  // warm-up slots that differed from the oracle
};

// Backend construction, input synthesis, oracle pass and one warm-up pass.
void set_up(const Chain_spec& spec, const Options& opt, Tracer* tr,
            Setup& s) {
  s.pipeline = std::make_unique<Pipeline>(
      pp::runtime::uplink_pipeline(pp::arch::Cluster_config::terapool()));
  s.backend = spec.measured();
  for (uint32_t i = 0; i < spec.n_slots; ++i) {
    Uplink_config cfg = spec.base;
    cfg.seed = pp::common::Rng::derive_seed(opt.seed, i);
    Scope span(tr, "phy.scenario_build", i);
    s.slots.push_back(std::make_unique<const Uplink_scenario>(cfg));
  }
  const auto oracle = spec.oracle();
  for (const auto& sc : s.slots) {
    s.oracle.push_back(s.pipeline->execute(*sc, *oracle));
  }
  Slot_result res;
  for (size_t i = 0; i < s.slots.size(); ++i) {
    s.pipeline->execute_into(*s.slots[i], *s.backend, res);
    s.failed += !same_decode(res, s.oracle[i]);
  }
}

Outcome run_chain(const Chain_spec& spec, const Options& opt) {
  Outcome out;
  if (!opt.trace) {
    // ---- end-to-end run ---------------------------------------------------
    Setup s;
    const double setup_s = timed_setups(
        kSetupReps, s, [&](Setup& x) { set_up(spec, opt, nullptr, x); });
    Slot_result res;
    std::vector<double> ms, end_s;
    ms.reserve(1 << 16);
    end_s.reserve(1 << 16);
    uint64_t failed = s.failed;
    const auto t_begin = Clock::now();
    double wall = 0.0;
    for (uint64_t k = 0;; ++k) {
      wall = seconds_between(t_begin, Clock::now());
      if ((wall >= opt.seconds && k >= kMinSlots) || wall >= 3 * opt.seconds) {
        break;
      }
      const size_t i = k % s.slots.size();
      const auto t0 = Clock::now();
      s.pipeline->execute_into(*s.slots[i], *s.backend, res);
      const auto t1 = Clock::now();
      ms.push_back(1e3 * seconds_between(t0, t1));
      failed += !same_decode(res, s.oracle[i]);
      end_s.push_back(seconds_between(t_begin, Clock::now()));
    }
    const double n = static_cast<double>(ms.size());
    out.attempted = ms.size();
    out.failed = failed;
    const Window_stats w = quietest_windows(ms, end_s, kWindow, kPooled);
    add_window_notes(out, w, n / wall, median(ms));
    out.metrics.put("slots_per_s", w.slots_per_s, "1/s");
    out.metrics.put("slot_ms_p50", w.p50_ms, "ms");
    out.metrics.put("slot_ms_p90", w.p90_ms, "ms");
    out.metrics.put("served_ratio", (n - static_cast<double>(failed)) / n,
                    "ratio");
    out.metrics.put("setup_s", setup_s, "s");
    out.metrics.put("peak_rss_mb", peak_rss_mb(), "MiB");
    return out;
  }

  // ---- traced run -------------------------------------------------------
  Tracer tracer(kTraceSpans);
  Tracer* tr = &tracer;
  Setup s;
  {
    Scope span(tr, "setup", -1);
    set_up(spec, opt, tr, s);
  }
  uint64_t failed = s.failed, attempted = 0;
  double ber_sum = 0.0;

  // Measured phase, interleaved: even passes over the prebuilt slots run
  // untraced through Pipeline::execute_into (the end-to-end loop), odd
  // passes run the same slots split at the beam grid with spans on.
  // Their rates give the tracing overhead.
  Slot_result res;
  pp::runtime::Slot_front front;
  double t_plain = 0.0, t_traced = 0.0;
  uint64_t n_plain = 0, n_traced = 0;
  std::vector<double> plain_ms;
  const auto t_begin = Clock::now();
  for (uint64_t pass = 0;; ++pass) {
    const double wall = seconds_between(t_begin, Clock::now());
    if ((wall >= opt.seconds && pass >= 2) || wall >= 3 * opt.seconds) break;
    const bool traced = pass % 2 == 1;
    const auto t0 = Clock::now();
    for (size_t i = 0; i < s.slots.size(); ++i) {
      const int64_t id = static_cast<int64_t>(attempted);
      if (traced) {
        Scope slot(tr, "slot", id);
        {
          Scope f(tr, "backend.front", id);
          s.backend->run_front_into(*s.pipeline, *s.slots[i], front);
        }
        Scope b(tr, "backend.back", id);
        s.backend->run_back_into(*s.pipeline, *s.slots[i], front, res);
      } else {
        const auto ts = Clock::now();
        s.pipeline->execute_into(*s.slots[i], *s.backend, res);
        plain_ms.push_back(1e3 * seconds_between(ts, Clock::now()));
      }
      failed += !same_decode(res, s.oracle[i]);
      ber_sum += res.ber;
      ++attempted;
    }
    const double dt = seconds_between(t0, Clock::now());
    (traced ? t_traced : t_plain) += dt;
    (traced ? n_traced : n_plain) += s.slots.size();
  }

  // Per-stage replay of the same slots (see replay.h), checked against the
  // oracle like every measured slot.
  Fixed_replay fixed;
  Ref_replay ref;
  uint64_t replayed = 0;
  const bool simd = pp::fixed::simd_available();
  const auto r_begin = Clock::now();
  while (replayed < s.slots.size() ||
         seconds_between(r_begin, Clock::now()) < 0.3 * opt.seconds) {
    const size_t i = replayed % s.slots.size();
    const int64_t id = static_cast<int64_t>(attempted);
    if (spec.fixed_chain) {
      fixed.run(*s.pipeline, *s.slots[i], simd, tr, id, res);
    } else {
      ref.run(*s.slots[i], tr, id, res);
    }
    failed += !same_decode(res, s.oracle[i]);
    ++attempted;
    ++replayed;
  }

  const double slots = static_cast<double>(replayed);
  auto per_slot_ms = [&](const char* span) {
    return 1e3 * tr->total(span).seconds / slots;
  };
  Metrics& m = out.metrics;
  if (spec.fixed_chain) {
    put_fixed_metrics(*tr, fixed.counts, slots, m);
  } else {
    for (const char* st : {"ref.fft", "ref.bf", "ref.che", "ref.ne",
                           "ref.mimo", "ref.demod"}) {
      m.put(std::string(st) + "_ms", per_slot_ms(st), "ms");
    }
    // Intra-slot scaling: the same slots at intra 1 against the measured
    // backend's untraced slot time at intra N.
    pp::runtime::Parallel_backend one(1);
    std::vector<double> one_ms;
    for (size_t i = 0; i < s.slots.size(); ++i) {
      const auto t0 = Clock::now();
      s.pipeline->execute_into(*s.slots[i], one, res);
      one_ms.push_back(1e3 * seconds_between(t0, Clock::now()));
      failed += !same_decode(res, s.oracle[i]);
      ++attempted;
    }
    m.put("pool.efficiency",
          median(one_ms) / (spec.intra * median(plain_ms)), "ratio");
  }
  const double traced_slots = static_cast<double>(tr->total("slot").count);
  m.put("backend.front_ms",
        1e3 * tr->total("backend.front").seconds / traced_slots, "ms");
  m.put("backend.back_ms",
        1e3 * tr->total("backend.back").seconds / traced_slots, "ms");
  m.put("backend.glue_ms",
        1e3 * glue_seconds(*tr, spec.fixed_chain ? "fixed" : "ref") / slots,
        "ms");
  m.put("backend.workspace_kib",
        static_cast<double>(s.backend->workspace_bytes()) / 1024.0, "KiB");
  m.put("pool.dispatch_us", pool_dispatch_us(spec.intra), "us");
  const auto build = tr->total("phy.scenario_build");
  m.put("phy.scenario_build_ms", 1e3 * build.seconds / build.count, "ms");
  m.put("phy.ber", ber_sum / static_cast<double>(n_plain + n_traced), "ratio");
  const double plain_rate = static_cast<double>(n_plain) / t_plain;
  const double traced_rate = static_cast<double>(n_traced) / t_traced;
  m.put("trace.overhead", plain_rate / traced_rate - 1.0, "ratio");

  out.attempted = attempted;
  out.failed = failed;
  out.notes.push_back("tracing overhead: untraced " +
                      std::to_string(plain_rate) + " slots/s vs traced " +
                      std::to_string(traced_rate) + " slots/s");
  out.notes.push_back("per-stage replay of " + std::to_string(replayed) +
                      " slots; " + std::to_string(tr->recorded()) +
                      " spans recorded, " + std::to_string(tr->dropped()) +
                      " beyond the buffer");
  if (!opt.trace_file.empty() &&
      !tr->write_chrome(opt.trace_file, spec.name, opt.seed)) {
    out.notes.push_back("could not write " + opt.trace_file);
    ++out.failed;
  }
  return out;
}

}  // namespace

Outcome run_mimo_q15(const Options& opt) {
  Chain_spec spec;
  spec.name = "mimo-q15";
  spec.base = slot_config(1024, 8, 8, 4, pp::phy::Qam::qam16, 30.0);
  spec.n_slots = 8;
  spec.intra = 1;
  spec.measured = [] {
    return std::make_unique<pp::runtime::Fixed_backend>(1, true);
  };
  spec.oracle = [] {
    return std::make_unique<pp::runtime::Fixed_backend>(1, false);
  };
  spec.fixed_chain = true;
  return run_chain(spec, opt);
}

Outcome run_front_double(const Options& opt) {
  Chain_spec spec;
  spec.name = "front-double";
  spec.base = slot_config(4096, 16, 8, 1, pp::phy::Qam::qpsk, 30.0);
  spec.n_slots = 4;
  spec.intra = opt.nproc;
  spec.measured = [n = opt.nproc] {
    return std::make_unique<pp::runtime::Parallel_backend>(n);
  };
  spec.oracle = [] { return pp::runtime::make_backend("reference"); };
  spec.fixed_chain = false;
  return run_chain(spec, opt);
}

}  // namespace perfbench
