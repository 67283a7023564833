// Pipeline equivalence and backend cross-checks.
//
// The use case and the uplink slot are presets over runtime::Pipeline
// (runtime/presets.h).  These tests pin them to the kernel classes:
//
//  * the use-case roll-up preset reproduces the exact cycle counts of the
//    same kernel configurations driven directly through their classes (the
//    pre-refactor code path);
//  * the uplink preset on the sim backend reproduces the exact per-stage
//    cycles AND the exact EVM/BER/payloads of a hand-rolled legacy chain
//    that drives the kernel classes directly;
//  * one scenario executed through the same Pipeline call on the "sim" and
//    "reference" backends decodes the same payloads;
//  * measure() streams its jobs: it never holds more than one simulated
//    machine per shard, and its reports do not depend on the shard count
//    or report reuse.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <span>
#include <string>

#include "bench/bench_util.h"
#include "kernels/che_ne.h"
#include "kernels/cholesky.h"
#include "kernels/fft.h"
#include "kernels/gram.h"
#include "kernels/mmm.h"
#include "runtime/backend.h"
#include "runtime/presets.h"
#include "runtime/registry.h"

namespace {

using namespace pp;
using common::cq15;
using phy::cd;

phy::Uplink_config small_cfg() {
  phy::Uplink_config cfg;
  cfg.n_sc = 64;
  cfg.fft_size = 64;
  cfg.n_rx = 4;
  cfg.n_beams = 4;
  cfg.n_ue = 2;
  cfg.n_symb = 4;
  cfg.n_pilot_symb = 2;
  cfg.qam = phy::Qam::qpsk;
  cfg.sigma2 = 1e-7;
  cfg.ue_power = 0.08;
  cfg.seed = 11;
  return cfg;
}

// ---- legacy chain, hand-rolled over the concrete kernel classes ----------
// A faithful transcription of the pre-refactor pusch::run_sim_uplink (the
// deleted sim_chain.cpp): same kernel construction order, same block
// rescaling, same launch sequence.  The Pipeline + sim-backend port must
// reproduce it cycle for cycle and bit for bit.

constexpr double s_time = 8.0;
constexpr double s_grid = 4.0;
constexpr double s_est = 4.0;
constexpr double s_rhs = 4.0;

std::vector<cq15> quantize(const std::vector<cd>& x, double scale) {
  std::vector<cq15> q(x.size());
  for (size_t i = 0; i < x.size(); ++i) q[i] = common::to_cq15(x[i] * scale);
  return q;
}

std::vector<cd> dequantize(const std::vector<cq15>& q, double scale) {
  std::vector<cd> x(q.size());
  for (size_t i = 0; i < q.size(); ++i) x[i] = common::to_cd(q[i]) / scale;
  return x;
}

struct Legacy_result {
  std::vector<uint64_t> stage_cycles;  // 6 stages, legacy order
  std::vector<std::vector<uint8_t>> bits;
  double evm = 0.0;
  double sigma2_hat = 0.0;
};

Legacy_result legacy_run_sim_uplink(const phy::Uplink_scenario& sc,
                                    const arch::Cluster_config& cluster) {
  const auto& cfg = sc.config();
  const uint32_t n = cfg.fft_size;
  const uint32_t gang = n / 16;
  const uint32_t n_cores = cluster.n_cores();
  const uint32_t fft_inst = std::min(cfg.n_rx, n_cores / gang);

  sim::Machine m(cluster);
  arch::L1_alloc alloc(m.config());

  Legacy_result out;
  out.stage_cycles.assign(6, 0);

  kernels::Fft_parallel fft(m, alloc, n, fft_inst, 1);
  kernels::Mmm mmm(m, alloc, kernels::Mmm_dims{n, cfg.n_rx, cfg.n_beams});
  kernels::Che che(m, alloc, n, cfg.n_beams, cfg.n_ue, n_cores);
  kernels::Ne ne(m, alloc, n, cfg.n_beams, cfg.n_ue, n_cores);
  const uint32_t per_core = n / n_cores > 0 ? n / n_cores : 1;
  kernels::Gram_batch gram(m, alloc, n, cfg.n_beams, cfg.n_ue, n_cores);
  kernels::Chol_batch chol(m, alloc, cfg.n_ue, per_core, n_cores);
  kernels::Trisolve_batch solve(m, alloc, cfg.n_ue, per_core, n_cores);

  std::vector<cq15> bq(sc.codebook().size());
  for (size_t i = 0; i < bq.size(); ++i) {
    bq[i] = common::to_cq15(sc.codebook()[i]);
  }

  std::vector<std::vector<cd>> beams(cfg.n_symb);
  for (uint32_t s = 0; s < cfg.n_symb; ++s) {
    std::vector<std::vector<cd>> freq(cfg.n_rx);
    for (uint32_t r0 = 0; r0 < cfg.n_rx; r0 += fft_inst) {
      const uint32_t batch = std::min(fft_inst, cfg.n_rx - r0);
      for (uint32_t i = 0; i < batch; ++i) {
        fft.set_input(i, 0, quantize(sc.antenna_time(s, r0 + i), s_time));
      }
      out.stage_cycles[0] += fft.run().cycles;
      for (uint32_t i = 0; i < batch; ++i) {
        freq[r0 + i] = dequantize(
            fft.output(i, 0), s_time / std::sqrt(static_cast<double>(n)));
      }
    }
    std::vector<cd> a(static_cast<size_t>(n) * cfg.n_rx);
    for (uint32_t scx = 0; scx < n; ++scx) {
      for (uint32_t r0 = 0; r0 < cfg.n_rx; ++r0) {
        a[static_cast<size_t>(scx) * cfg.n_rx + r0] = freq[r0][scx];
      }
    }
    mmm.set_a(quantize(a, s_grid));
    mmm.set_b(bq);
    out.stage_cycles[1] += mmm.run_parallel().cycles;
    beams[s] = dequantize(mmm.c(), s_grid);
  }

  for (uint32_t l = 0; l < cfg.n_ue; ++l) {
    che.set_pilot(l, quantize(sc.pilot(l), 1.0));
    che.set_y_sep(l, quantize(sc.pilot_obs_beam(l), s_est));
  }
  out.stage_cycles[2] += che.run().cycles;
  const auto h_hat = dequantize(che.h(), s_est);

  for (uint32_t l = 0; l < cfg.n_ue; ++l) {
    ne.set_pilot(l, quantize(sc.pilot(l), 1.0));
  }
  ne.set_y(quantize(beams[0], s_est));
  ne.set_h(quantize(h_hat, s_est));
  out.stage_cycles[3] += ne.run().cycles;
  const double sigma2_hat = ne.sigma2() / (s_est * s_est);
  out.sigma2_hat = sigma2_hat;

  gram.set_h(quantize(h_hat, 1.0));
  gram.set_sigma2(common::to_q15(sigma2_hat));
  out.bits.resize(cfg.n_ue);
  std::vector<std::vector<cd>> eq(cfg.n_ue);
  double evm_acc = 0.0;
  uint64_t evm_cnt = 0;

  for (uint32_t s = cfg.n_pilot_symb; s < cfg.n_symb; ++s) {
    gram.set_y(quantize(beams[s], s_rhs));
    out.stage_cycles[4] += gram.run().cycles;
    for (uint32_t scx = 0; scx < n; ++scx) {
      chol.set_g(scx / per_core, scx % per_core, gram.g(scx));
    }
    out.stage_cycles[5] += chol.run().cycles;
    for (uint32_t scx = 0; scx < n; ++scx) {
      solve.set_system(scx / per_core, scx % per_core,
                       chol.l(scx / per_core, scx % per_core), gram.rhs(scx));
    }
    out.stage_cycles[5] += solve.run().cycles;

    for (uint32_t scx = 0; scx < n; ++scx) {
      const auto x =
          dequantize(solve.x(scx / per_core, scx % per_core), s_rhs);
      for (uint32_t l = 0; l < cfg.n_ue; ++l) {
        const cd sym = x[l] / cfg.ue_power;
        eq[l].push_back(sym);
        const cd want = sc.tx_grid(l, s)[scx] / cfg.ue_power;
        evm_acc += std::norm(sym - want);
        ++evm_cnt;
      }
    }
  }
  out.evm = std::sqrt(evm_acc / static_cast<double>(evm_cnt));
  for (uint32_t l = 0; l < cfg.n_ue; ++l) {
    out.bits[l] = phy::qam_demodulate(cfg.qam, eq[l]);
  }
  return out;
}

TEST(PipelineEquivalence, UplinkPresetMatchesLegacyChainExactly) {
  const phy::Uplink_scenario sc(small_cfg());
  const auto cluster = arch::Cluster_config::minipool();

  const auto legacy = legacy_run_sim_uplink(sc, cluster);
  runtime::Sim_backend sim;
  const auto ported = runtime::uplink_pipeline(cluster).execute(sc, sim);

  ASSERT_EQ(ported.stages.size(), 6u);
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(ported.stages[i].cycles, legacy.stage_cycles[i])
        << ported.stages[i].name;
  }
  EXPECT_EQ(ported.bits, legacy.bits);
  EXPECT_DOUBLE_EQ(ported.evm, legacy.evm);
  EXPECT_DOUBLE_EQ(ported.sigma2_hat, legacy.sigma2_hat);
  EXPECT_EQ(ported.backend, "sim");
}

// ---- use-case roll-up: preset == direct kernel-class measurement ---------

TEST(PipelineEquivalence, UseCasePresetMatchesDirectKernelMeasurement) {
  runtime::Use_case_options cfg;
  cfg.cluster = arch::Cluster_config::minipool();
  cfg.dims.fft_size = 256;
  cfg.dims.n_rx = 4;
  cfg.dims.n_beams = 4;
  cfg.dims.n_ue = 4;
  const auto res = runtime::run_use_case(cfg);
  ASSERT_EQ(res.stages.size(), 3u);

  // FFT stage: the preset must pick 1 gang x 4 reps on 16 cores and scale
  // by 14 symbols; its measured cycles must equal a direct run.
  {
    sim::Machine m(cfg.cluster);
    arch::L1_alloc alloc(m.config());
    kernels::Fft_parallel fft(m, alloc, 256, 1, 4);
    common::Rng rng(1);
    for (uint32_t r = 0; r < 4; ++r) {
      fft.set_input(0, r, bench::random_signal(256, 40 + r));
    }
    EXPECT_EQ(res.stages[0].rep.cycles, fft.run().cycles);
    EXPECT_EQ(res.stages[0].times, 14u);
  }
  // MMM stage: one 256x4x4 slice, 14 symbols.
  {
    sim::Machine m(cfg.cluster);
    arch::L1_alloc alloc(m.config());
    kernels::Mmm mmm(m, alloc, kernels::Mmm_dims{256, 4, 4});
    mmm.set_a(bench::random_signal(256 * 4, 1));
    mmm.set_b(bench::random_signal(4 * 4, 2));
    EXPECT_EQ(res.stages[1].rep.cycles, mmm.run_parallel().cycles);
    EXPECT_EQ(res.stages[1].times, 14u);
  }
  // Cholesky stage: 16 decompositions per core (L1 limits the symbol batch
  // to 1 at this scale), 12 data symbols.
  {
    sim::Machine m(cfg.cluster);
    arch::L1_alloc alloc(m.config());
    kernels::Chol_batch chol(m, alloc, 4, 16, 16);
    for (uint32_t c = 0; c < 16; ++c) {
      const auto g = bench::random_spd(4, c);
      for (uint32_t i = 0; i < 16; ++i) chol.set_g(c, i, g);
    }
    EXPECT_EQ(res.stages[2].rep.cycles, chol.run().cycles);
    EXPECT_EQ(res.stages[2].times, 12u);
  }

  EXPECT_EQ(res.parallel_cycles, res.stages[0].total_cycles() +
                                     res.stages[1].total_cycles() +
                                     res.stages[2].total_cycles());
  EXPECT_GT(res.serial_cycles, res.parallel_cycles);
}

TEST(PipelineEquivalence, MeasureIsDeterministic) {
  runtime::Use_case_options cfg;
  cfg.cluster = arch::Cluster_config::minipool();
  cfg.dims.fft_size = 256;
  cfg.dims.n_rx = 4;
  cfg.dims.n_beams = 4;
  cfg.dims.n_ue = 4;
  const auto a = runtime::run_use_case(cfg);
  const auto b = runtime::run_use_case(cfg);
  ASSERT_EQ(a.stages.size(), b.stages.size());
  for (size_t i = 0; i < a.stages.size(); ++i) {
    EXPECT_EQ(a.stages[i].rep.cycles, b.stages[i].rep.cycles);
  }
  EXPECT_EQ(a.serial_cycles, b.serial_cycles);
}

// ---- measure() streams its jobs: one live machine per shard ---------------

// Live instances of Counted_kernel, and the most seen at once.
std::atomic<int> live_kernels{0};
std::atomic<int> peak_live_kernels{0};

// A registry kernel wrapping a real one, counting its live instances.
// measure() builds a job's kernel right after its machine and drops it just
// before the machine, so the count bounds the live machines - without
// instrumenting production code.
class Counted_kernel : public runtime::Kernel {
 public:
  explicit Counted_kernel(std::unique_ptr<runtime::Kernel> inner)
      : Kernel(inner->desc()), inner_(std::move(inner)) {
    const int now = ++live_kernels;
    int peak = peak_live_kernels.load();
    while (now > peak && !peak_live_kernels.compare_exchange_weak(peak, now)) {
    }
  }
  ~Counted_kernel() override { --live_kernels; }

  void bind(std::string_view port, uint32_t slot,
            std::span<const cq15> data) override {
    inner_->bind(port, slot, data);
  }
  void bind_default_inputs(common::Rng& rng) override {
    inner_->bind_default_inputs(rng);
  }
  sim::Kernel_report launch() override { return inner_->launch(); }
  std::vector<cq15> fetch(std::string_view port,
                          uint32_t slot) const override {
    return inner_->fetch(port, slot);
  }

 private:
  std::unique_ptr<runtime::Kernel> inner_;
};

// The use-case roll-up on minipool (three stages, each with a serial row:
// six jobs), every kernel wrapped as "counted.<name>".
runtime::Pipeline counted_use_case(const std::string& cluster_name) {
  static const bool registered = [] {
    const std::pair<const char*, std::vector<std::string>> kernels[] = {
        {"fft.parallel", {"n", "inst", "reps", "folded"}},
        {"fft.serial", {"n", "reps", "core"}},
        {"mmm", {"m", "k", "p", "wr", "wc", "mode", "cores", "core"}},
        {"chol.batch", {"n", "per_core", "cores"}},
        {"chol.serial", {"n", "reps", "core"}}};
    for (const auto& [name, keys] : kernels) {
      const std::string inner = name;
      runtime::Registry::instance().add(
          "counted." + inner, "live-instance counting wrapper", keys,
          [inner](sim::Machine& m, arch::L1_alloc& alloc,
                  const runtime::Params& p) {
            return std::make_unique<Counted_kernel>(
                runtime::make_kernel(inner, m, alloc, p));
          });
    }
    return true;
  }();
  EXPECT_TRUE(registered);
  runtime::Use_case_options uc;
  uc.cluster = arch::Cluster_config::minipool();
  uc.dims.fft_size = 256;
  uc.dims.n_rx = 4;
  uc.dims.n_beams = 4;
  uc.dims.n_ue = 4;
  // The cluster name is part of the report memo key and nothing else: a
  // fresh name gives each measurement fresh memo entries.
  uc.cluster.name = cluster_name;
  const runtime::Pipeline plain = runtime::use_case_pipeline(uc);
  runtime::Pipeline out("counted", uc.cluster);
  for (runtime::Stage_spec st : plain.stages()) {
    EXPECT_FALSE(st.serial.kernel.empty()) << st.name;
    st.run.kernel = "counted." + st.run.kernel;
    st.serial.kernel = "counted." + st.serial.kernel;
    out.add(std::move(st));
  }
  return out;
}

void expect_same_rollup(const runtime::Rollup_result& a,
                        const runtime::Rollup_result& b,
                        const std::string& what) {
  ASSERT_EQ(a.stages.size(), b.stages.size()) << what;
  for (size_t i = 0; i < a.stages.size(); ++i) {
    const auto& x = a.stages[i];
    const auto& y = b.stages[i];
    EXPECT_EQ(x.name, y.name) << what;
    EXPECT_EQ(x.times, y.times) << what;
    EXPECT_EQ(x.rep.cycles, y.rep.cycles) << what << " " << x.name;
    EXPECT_EQ(x.rep.instrs, y.rep.instrs) << what << " " << x.name;
    EXPECT_EQ(x.rep.n_cores, y.rep.n_cores) << what << " " << x.name;
    EXPECT_EQ(x.rep.stall, y.rep.stall) << what << " " << x.name;
  }
  EXPECT_EQ(a.parallel_cycles, b.parallel_cycles) << what;
  EXPECT_EQ(a.serial_cycles, b.serial_cycles) << what;
}

TEST(PipelineStreaming, MeasureHoldsAtMostOneMachinePerShard) {
  runtime::Measure_options ref_opt;
  ref_opt.reuse_reports = false;
  peak_live_kernels = 0;
  const auto want = counted_use_case("minipool.ref").measure(ref_opt);
  EXPECT_EQ(peak_live_kernels.load(), 1);  // construct-bind-launch-release
  EXPECT_EQ(live_kernels.load(), 0);

  for (const bool reuse : {false, true}) {
    for (const uint32_t shards : {1u, 2u, 8u}) {
      const std::string what = "shards " + std::to_string(shards) +
                               (reuse ? " reuse" : " no-reuse");
      runtime::Measure_options opt;
      opt.shards = shards;
      opt.reuse_reports = reuse;
      const auto p = counted_use_case("minipool." + what);
      for (int pass = 0; pass < 2; ++pass) {  // reuse: fill, then hit
        peak_live_kernels = 0;
        expect_same_rollup(p.measure(opt), want, what);
        EXPECT_LE(peak_live_kernels.load(), static_cast<int>(shards))
            << what;
        EXPECT_EQ(live_kernels.load(), 0) << what;
        if (reuse && pass == 1) {
          EXPECT_EQ(peak_live_kernels.load(), 0) << what << ": memo hits";
        }
      }
    }
  }
}

// ---- backend cross-check -------------------------------------------------

TEST(BackendCrossCheck, SimAndReferenceDecodeTheSamePayloads) {
  const phy::Uplink_scenario sc(small_cfg());
  const auto pipeline =
      runtime::uplink_pipeline(arch::Cluster_config::minipool());

  runtime::Sim_backend sim_b;
  const auto ref_b = runtime::make_backend("reference");
  const auto on_sim = pipeline.execute(sc, sim_b);
  const auto on_ref = pipeline.execute(sc, *ref_b);

  EXPECT_EQ(on_sim.backend, "sim");
  EXPECT_EQ(on_ref.backend, "reference");
  EXPECT_GT(on_sim.total_cycles(), 0u);
  EXPECT_EQ(on_ref.total_cycles(), 0u);  // not cycle-accurate
  // Only the simulator launches kernels, so only it reports stage rows.
  EXPECT_EQ(on_sim.stages.size(), pipeline.stages().size());
  EXPECT_TRUE(on_ref.stages.empty());

  // Same payloads; the fixed-point EVM is worse than double but bounded.
  EXPECT_EQ(on_sim.bits, on_ref.bits);
  EXPECT_EQ(on_sim.ber, 0.0);
  EXPECT_EQ(on_ref.ber, 0.0);
  EXPECT_GE(on_sim.evm, on_ref.evm * 0.5);
  EXPECT_LT(on_sim.evm, on_ref.evm + 0.25);
}

TEST(BackendCrossCheck, HostBackendsLeaveStageRowsEmptyFreshAndRecycled) {
  // The stage rows count kernel launches on the simulated cluster.  A host
  // backend leaves them empty, also in a result recycled from a sim slot,
  // so the recycled result equals a fresh one.
  const phy::Uplink_scenario sc(small_cfg());
  const auto pipeline =
      runtime::uplink_pipeline(arch::Cluster_config::minipool());
  runtime::Sim_backend sim_b;
  const auto on_sim = pipeline.execute(sc, sim_b);
  ASSERT_EQ(on_sim.stages.size(), pipeline.stages().size());

  for (const char* name : {"reference", "parallel", "fixed"}) {
    const auto backend = runtime::make_backend(name, 2);
    const auto fresh = pipeline.execute(sc, *backend);
    EXPECT_TRUE(fresh.stages.empty()) << name;
    runtime::Slot_result recycled = on_sim;
    pipeline.execute_into(sc, *backend, recycled);
    EXPECT_TRUE(recycled.stages.empty()) << name;
    EXPECT_EQ(recycled.backend, fresh.backend) << name;
    EXPECT_EQ(recycled.bits, fresh.bits) << name;
    EXPECT_EQ(recycled.symbols, fresh.symbols) << name;
    EXPECT_EQ(recycled.evm, fresh.evm) << name;
    EXPECT_EQ(recycled.ber, fresh.ber) << name;
    EXPECT_EQ(recycled.sigma2_hat, fresh.sigma2_hat) << name;
  }
}

TEST(BackendCrossCheck, MakeBackendByName) {
  EXPECT_EQ(runtime::make_backend("sim")->name(), "sim");
  EXPECT_EQ(runtime::make_backend("reference")->name(), "reference");
  EXPECT_EQ(runtime::make_backend("parallel", 2)->name(), "parallel");
  EXPECT_TRUE(runtime::make_backend("sim")->cycle_accurate());
  EXPECT_FALSE(runtime::make_backend("reference")->cycle_accurate());
  EXPECT_FALSE(runtime::make_backend("parallel", 2)->cycle_accurate());
}

TEST(BackendCrossCheck, MakeBackendRejectsUnknownNames) {
  EXPECT_DEATH(runtime::make_backend("cuda"), "unknown backend");
  EXPECT_DEATH(runtime::make_backend(""), "unknown backend");
  EXPECT_DEATH(runtime::make_backend("Reference"), "unknown backend");
}

// ---- new scheduling capability: Cholesky symbol batching -----------------

TEST(PipelineScheduling, CholSymbolBatchingKeepsValuesAndCutsLaunches) {
  const phy::Uplink_scenario sc(small_cfg());
  const auto cluster = arch::Cluster_config::minipool();
  runtime::Sim_backend backend;

  runtime::Uplink_options one;
  const auto base = runtime::uplink_pipeline(cluster, one).execute(sc, backend);

  runtime::Uplink_options batched;
  batched.chol_symb_batch = 2;  // both data symbols in one launch
  const auto fast =
      runtime::uplink_pipeline(cluster, batched).execute(sc, backend);

  // Identical decoded values (scheduling never changes arithmetic) ...
  EXPECT_EQ(base.bits, fast.bits);
  EXPECT_DOUBLE_EQ(base.evm, fast.evm);
  // ... with half the chol+solve launches and fewer total cycles there.
  EXPECT_EQ(base.stages[5].runs, 4u);
  EXPECT_EQ(fast.stages[5].runs, 2u);
  EXPECT_LT(fast.stages[5].cycles, base.stages[5].cycles);
}

// The same Pipeline object supports both engines: scheduling keys on the
// stage specs (symb_batch) must not leak into the kernel factories when the
// analytic roll-up instantiates the stages.
TEST(PipelineScheduling, UplinkPresetIsMeasurable) {
  runtime::Uplink_options opt;
  opt.chol_symb_batch = 2;
  const auto r =
      runtime::uplink_pipeline(arch::Cluster_config::mempool(), opt).measure();
  ASSERT_EQ(r.stages.size(), 6u);
  for (const auto& st : r.stages) {
    EXPECT_GT(st.rep.cycles, 0u) << st.name;
  }
}

}  // namespace
