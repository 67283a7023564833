// Fixed_backend bit-exactness and SIMD parity tests.
//
// The load-bearing guarantee (docs/DETERMINISM.md section 7): the fixed-point
// host backend is **bit-identical to the sim backend** - same payload bits,
// same EVM/BER doubles, same sigma2_hat - across the scenario grid, at any
// intra-slot worker count, through the split/pipelined path, and with the
// SIMD kernels on or off.  Unlike the parallel/reference pair (which shares
// double-precision models), fixed and sim share only the Q15 value chain, so
// these tests pin the whole src/fixed/ subsystem against the simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fixed/q15_kernels.h"
#include "fixed/simd.h"
#include "runtime/backend.h"
#include "runtime/backend_fixed.h"
#include "runtime/sweep.h"

namespace {

using namespace pp;
using common::cq15;

// ---- registry wiring -------------------------------------------------------

TEST(FixedBackend, MakeBackendByNameAndWorkerCount) {
  const auto b = runtime::make_backend("fixed", 3);
  EXPECT_EQ(b->name(), "fixed");
  EXPECT_FALSE(b->cycle_accurate());
  EXPECT_EQ(static_cast<runtime::Fixed_backend*>(b.get())->workers(), 3u);
  runtime::Fixed_backend all(0);
  EXPECT_GE(all.workers(), 1u);
  // The SIMD resolution is a host property, not a per-call coin flip.
  runtime::Fixed_backend scalar(1, false);
  EXPECT_FALSE(scalar.simd_active());
  runtime::Fixed_backend simd(1, true);
  EXPECT_EQ(simd.simd_active(), fixed::simd_available());
}

TEST(FixedBackend, BackendNamesStayInSyncWithMakeBackend) {
  // Every advertised name must construct, agree on its own name, and the
  // fixed backend must be advertised - the CLI --list / validation surface
  // (bench_util, pusch_sweep, pusch_serve) is generated from this list.
  const auto names = runtime::backend_names();
  for (const auto& name : names) {
    const auto b = runtime::make_backend(name, 1);
    ASSERT_NE(b, nullptr) << name;
    EXPECT_EQ(b->name(), name);
  }
  EXPECT_NE(std::find(names.begin(), names.end(), "fixed"), names.end());
}

// ---- bit parity vs. the simulator ------------------------------------------

void expect_slot_bits_equal(const runtime::Slot_result& sim,
                            const runtime::Slot_result& fix,
                            const std::string& what) {
  EXPECT_EQ(sim.bits, fix.bits) << what;
  EXPECT_EQ(sim.evm, fix.evm) << what;
  EXPECT_EQ(sim.ber, fix.ber) << what;
  EXPECT_EQ(sim.sigma2_hat, fix.sigma2_hat) << what;
  EXPECT_TRUE(fix.stages.empty()) << what << ": only sim reports stage rows";
}

TEST(FixedBackend, BitIdenticalToSimAcrossScenarioGridAndWorkers) {
  // Numerology x UE x QAM grid, two SNR points each; every slot checked at
  // 1, 2 and 8 intra-slot workers against the simulated sweep.  EVM and BER
  // are compared with ==: the fixed backend reproduces the sim backend's
  // Q15 arithmetic exactly, not approximately.
  runtime::Sweep_grid grid;
  grid.fft_sizes = {16, 64};
  grid.ue_counts = {2, 4};
  grid.qam_orders = {phy::Qam::qpsk, phy::Qam::qam16};
  grid.snr_db = {10, 30};

  runtime::Scheduler_options sim_opt;
  sim_opt.backend = "sim";
  sim_opt.workers = 2;
  const auto sim =
      runtime::Slot_scheduler(sim_opt).run(runtime::Grid_source(grid));
  ASSERT_EQ(sim.total_slots, 16u);

  for (const uint32_t intra : {1u, 2u, 8u}) {
    runtime::Scheduler_options fix_opt;
    fix_opt.backend = "fixed";
    fix_opt.workers = 2;  // compose slot-level x intra-slot parallelism
    fix_opt.intra = intra;
    const auto fix =
        runtime::Slot_scheduler(fix_opt).run(runtime::Grid_source(grid));
    ASSERT_EQ(fix.slots.size(), sim.slots.size());
    for (size_t i = 0; i < sim.slots.size(); ++i) {
      expect_slot_bits_equal(
          sim.slots[i], fix.slots[i],
          "slot " + std::to_string(i) + " intra " + std::to_string(intra));
      EXPECT_EQ(fix.slots[i].backend, "fixed");
    }
    for (size_t p = 0; p < sim.groups.size(); ++p) {
      EXPECT_EQ(sim.groups[p].evm, fix.groups[p].evm) << "point " << p;
      EXPECT_EQ(sim.groups[p].ber, fix.groups[p].ber) << "point " << p;
      EXPECT_EQ(sim.groups[p].sigma2_hat, fix.groups[p].sigma2_hat)
          << "point " << p;
    }
  }
}

TEST(FixedBackend, CooperativeFftPathBitIdenticalToSim) {
  // Fewer transforms than workers: the workers beyond the transform count
  // get empty FFT slices, and those idle workers must change no bit.
  phy::Uplink_config cfg;
  cfg.n_sc = 64;
  cfg.fft_size = 64;
  cfg.n_rx = 2;
  cfg.n_beams = 4;
  cfg.n_ue = 2;
  cfg.n_symb = 3;
  cfg.n_pilot_symb = 2;
  cfg.seed = 99;
  const phy::Uplink_scenario sc(cfg);
  const auto pipeline =
      runtime::uplink_pipeline(arch::Cluster_config::minipool());

  const auto sim = pipeline.execute(sc, *runtime::make_backend("sim"));
  for (const uint32_t intra : {7u, 16u}) {  // 6 transforms < workers
    runtime::Fixed_backend backend(intra);
    const auto fix = pipeline.execute(sc, backend);
    expect_slot_bits_equal(sim, fix, "intra " + std::to_string(intra));
  }
}

TEST(FixedBackend, BatchedMimoAndFftGangsBitIdenticalToSim) {
  // Cholesky symbol batching changes how sim groups its launches, never a
  // value: the fixed backend's symbol-group loop must reproduce every batch
  // size, whole-slot and split, at one and at several intra-slot workers.
  phy::Uplink_config cfg;
  cfg.n_sc = 64;
  cfg.fft_size = 64;
  cfg.n_rx = 4;
  cfg.n_beams = 4;
  cfg.n_ue = 2;
  cfg.n_symb = 8;
  cfg.n_pilot_symb = 2;  // 6 data symbols: batches of 1, 2 and 3 divide
  cfg.seed = 1234;
  const phy::Uplink_scenario sc(cfg);
  const auto cluster = arch::Cluster_config::minipool();

  for (const uint32_t batch : {1u, 2u, 3u}) {
    runtime::Uplink_options opt;
    opt.chol_symb_batch = batch;
    const auto pipeline = runtime::uplink_pipeline(cluster, opt);
    const auto sim = pipeline.execute(sc, *runtime::make_backend("sim"));
    ASSERT_EQ(sim.stages.size(), 6u);
    EXPECT_EQ(sim.stages[5].runs, 2u * 6u / batch) << "batch " << batch;
    for (const uint32_t intra : {1u, 3u}) {
      const std::string what = "batch " + std::to_string(batch) + " intra " +
                               std::to_string(intra);
      runtime::Fixed_backend whole(intra);
      expect_slot_bits_equal(sim, pipeline.execute(sc, whole),
                             what + " whole");
      runtime::Fixed_backend split(intra);
      runtime::Slot_front front;
      runtime::Slot_result res;
      split.run_front_into(pipeline, sc, front);
      split.run_back_into(pipeline, sc, front, res);
      expect_slot_bits_equal(sim, res, what + " split");
    }
  }
}

TEST(FixedBackend, FactorOncePerSlotBitIdenticalToSimOverTwelveDataSymbols) {
  // The fixed backend factors each sub-carrier once per slot and solves all
  // 12 data symbols of a 14-symbol slot against it; sim launches the
  // Gramian and Cholesky per symbol batch.  At 3 workers the factor and
  // solve slices cut four-sub-carrier lane groups (at sub-carriers 22, 43).
  phy::Uplink_config cfg;
  cfg.n_sc = 64;
  cfg.fft_size = 64;
  cfg.n_rx = 4;
  cfg.n_beams = 8;
  cfg.n_ue = 4;
  cfg.n_symb = 14;
  cfg.n_pilot_symb = 2;
  cfg.qam = phy::Qam::qam16;
  cfg.seed = 2024;
  const phy::Uplink_scenario sc(cfg);
  // The 14-symbol slot outgrows minipool's L1.
  const auto cluster = arch::Cluster_config::mempool();

  for (const uint32_t batch : {1u, 4u}) {
    runtime::Uplink_options opt;
    opt.chol_symb_batch = batch;
    const auto pipeline = runtime::uplink_pipeline(cluster, opt);
    const auto sim = pipeline.execute(sc, *runtime::make_backend("sim"));
    for (const uint32_t intra : {1u, 3u}) {
      runtime::Fixed_backend backend(intra);
      const std::string what =
          "batch " + std::to_string(batch) + " intra " + std::to_string(intra);
      // Twice on one backend: the second slot reuses the kept factor
      // storage and must factor anew.
      for (int rep = 0; rep < 2; ++rep) {
        expect_slot_bits_equal(sim, pipeline.execute(sc, backend), what);
      }
    }
  }
}

TEST(FixedBackend, SplitContractMatchesWholeSlot) {
  // run_back_into(run_front_into()) == run_slot_into - the contract stage
  // pipelining rests on (scheduler.h).
  phy::Uplink_config cfg;
  cfg.n_sc = 64;
  cfg.fft_size = 64;
  cfg.n_rx = 4;
  cfg.n_beams = 4;
  cfg.n_ue = 4;
  cfg.n_symb = 4;
  cfg.n_pilot_symb = 2;
  cfg.seed = 7;
  const phy::Uplink_scenario sc(cfg);
  const auto pipeline =
      runtime::uplink_pipeline(arch::Cluster_config::minipool());

  runtime::Fixed_backend whole(2);
  runtime::Fixed_backend split(2);
  runtime::Slot_result a, b;
  runtime::Slot_front front;
  whole.run_slot_into(pipeline, sc, a);
  split.run_front_into(pipeline, sc, front);
  split.run_back_into(pipeline, sc, front, b);
  EXPECT_EQ(a.bits, b.bits);
  EXPECT_EQ(a.evm, b.evm);
  EXPECT_EQ(a.ber, b.ber);
  EXPECT_EQ(a.sigma2_hat, b.sigma2_hat);
}

TEST(FixedBackend, PipelinedSchedulerBitIdenticalToSim) {
  // The full composition the issue demands: Slot_scheduler with stage
  // pipelining on, the fixed backend underneath, against the simulated run.
  runtime::Sweep_grid grid;
  grid.fft_sizes = {16};
  grid.snr_db = {15, 25};
  grid.slots_per_point = 2;
  const runtime::Grid_source source(grid);

  runtime::Scheduler_options sim_opt;
  sim_opt.backend = "sim";
  sim_opt.workers = 1;
  const auto sim = runtime::Slot_scheduler(sim_opt).run(source);

  runtime::Scheduler_options fix_opt;
  fix_opt.backend = "fixed";
  fix_opt.workers = 2;
  fix_opt.intra = 2;
  fix_opt.pipelined = true;
  const auto fix = runtime::Slot_scheduler(fix_opt).run(source);
  EXPECT_TRUE(fix.pipelined);  // the fixed backend can split
  ASSERT_EQ(fix.slots.size(), sim.slots.size());
  for (size_t i = 0; i < sim.slots.size(); ++i) {
    expect_slot_bits_equal(sim.slots[i], fix.slots[i],
                           "slot " + std::to_string(i));
  }
}

// ---- SIMD parity -----------------------------------------------------------

TEST(FixedBackend, ScalarAndSimdBitIdentical) {
  // A slot large enough to engage every vector path (butterfly runs >= 8,
  // 8-beam CHE rows), at every layer count the vector LMMSE specializes
  // (and one it leaves to the scalar loop): forcing the scalar loops must
  // not change a bit.  On hosts without a SIMD path both runs are scalar
  // and the test is vacuous (the grid test above still covers the backend).
  const auto pipeline =
      runtime::uplink_pipeline(arch::Cluster_config::minipool());
  for (const uint32_t n_ue : {1u, 2u, 3u, 4u, 6u}) {
    phy::Uplink_config cfg;
    cfg.n_sc = 256;
    cfg.fft_size = 256;
    cfg.n_rx = 8;
    cfg.n_beams = 8;
    cfg.n_ue = n_ue;
    cfg.n_symb = 4;
    cfg.n_pilot_symb = 2;
    cfg.qam = phy::Qam::qam64;
    cfg.seed = 41;
    const phy::Uplink_scenario sc(cfg);

    runtime::Fixed_backend simd(2, true);
    runtime::Fixed_backend scalar(2, false);
    const auto a = pipeline.execute(sc, simd);
    const auto b = pipeline.execute(sc, scalar);
    expect_slot_bits_equal(a, b, std::string("isa ") + fixed::simd_isa() +
                                     " n_ue " + std::to_string(n_ue));
  }
}

cq15 random_cq15(common::Rng& rng) {
  // Full int16 range, with extreme values (q15_min in both lanes included)
  // oversampled to exercise the saturation corners.
  auto lane = [&rng]() -> int16_t {
    switch (rng.next_u32() % 8) {
      case 0: return common::q15_min;
      case 1: return common::q15_max;
      default: return static_cast<int16_t>(rng.next_u32());
    }
  };
  return cq15{lane(), lane()};
}

TEST(FixedQ15, SimdCheRowMatchesScalarIncludingCorners) {
  // cmul_double_prefix vs. the scalar CHE row op cadd(t, t), t = cmul(y, x),
  // over adversarial inputs - including the one cmul wrap corner
  // ({-0x8000, -0x8000} x itself) the AVX2 path patches with a blend.
  common::Rng rng(2023);
  for (int round = 0; round < 200; ++round) {
    const uint32_t n = 1 + rng.next_u32() % 64;
    std::vector<cq15> y(n);
    for (auto& v : y) v = random_cq15(rng);
    cq15 x = random_cq15(rng);
    if (round == 0) {  // pin the corner explicitly
      x = cq15{common::q15_min, common::q15_min};
      y.assign(n, cq15{common::q15_min, common::q15_min});
    }
    std::vector<cq15> out(n, cq15{0, 0});
    const uint32_t done = fixed::cmul_double_prefix(y.data(), x, out.data(),
                                                    static_cast<uint32_t>(n));
    ASSERT_LE(done, n);
    for (uint32_t i = 0; i < done; ++i) {
      const cq15 t = common::cmul(y[i], x);
      const cq15 want = common::cadd(t, t);
      EXPECT_EQ(out[i].re, want.re) << "round " << round << " i " << i;
      EXPECT_EQ(out[i].im, want.im) << "round " << round << " i " << i;
    }
  }
}

TEST(FixedQ15, SimdQuantizeMatchesToCq15) {
  // quantize_prefix vs. to_cq15(x * scale): rounding ties in both signs,
  // the doubles just below a tie, signed zeros, the saturation thresholds
  // and far-out-of-range values, plus Gaussian samples at the FFT's scale.
  std::vector<double> parts = {0.0, -0.0, 1e300, -1e300, 0.49999999999999994};
  for (const double t : {0.5, 1.5, 2.5, 32766.5, 32767.0, 32767.5, 32768.0}) {
    for (const double v : {t, std::nextafter(t, 0.0), std::nextafter(t, 1e9)}) {
      parts.push_back(v / 32768.0);
      parts.push_back(-v / 32768.0);
    }
  }
  common::Rng rng(17);
  for (int i = 0; i < 4000; ++i) parts.push_back(rng.normal() * 0.2);
  std::vector<std::complex<double>> x;
  for (size_t i = 0; i + 1 < parts.size(); ++i) {
    x.emplace_back(parts[i], parts[i + 1]);
  }
  for (const double scale : {1.0, 8.0, 0.75}) {
    std::vector<cq15> got(x.size());
    const uint32_t done = fixed::quantize_prefix(
        x.data(), scale, got.data(), static_cast<uint32_t>(x.size()));
    ASSERT_LE(done, x.size());
    for (uint32_t i = 0; i < done; ++i) {
      ASSERT_EQ(got[i], common::to_cq15(x[i] * scale))
          << "scale " << scale << " x " << x[i];
    }
  }
}

TEST(FixedQ15, SimdMmmMatchesScalarAcrossShapes) {
  // Column lanes (groups of four) over many rows vs. the scalar row loop,
  // on full-range operands: odd column counts exercise the scalar tail,
  // sub-ranges the row offset.
  common::Rng rng(11);
  for (const uint32_t k_dim : {1u, 4u, 8u, 17u, 64u}) {
    for (const uint32_t p : {1u, 3u, 4u, 5u, 8u, 12u, 32u}) {
      const uint32_t rows = 1 + rng.next_u32() % 70;
      std::vector<cq15> a(static_cast<size_t>(rows) * k_dim), b(k_dim * p);
      for (auto& v : a) v = random_cq15(rng);
      for (auto& v : b) v = random_cq15(rng);
      std::vector<cq15> want(static_cast<size_t>(rows) * p),
          got(want.size());
      const uint32_t i0 = rows / 3;
      fixed::mmm_rows(a.data(), b.data(), want.data(), k_dim, p, i0, rows,
                      false);
      fixed::mmm_rows(a.data(), b.data(), got.data(), k_dim, p, i0, rows,
                      true);
      for (size_t i = static_cast<size_t>(i0) * p; i < want.size(); ++i) {
        ASSERT_EQ(want[i], got[i]) << "k " << k_dim << " p " << p << " i " << i;
      }
    }
  }
}

// The per-symbol sequence the LMMSE factor/solve pair replaces: Gramian and
// matched filter, then Cholesky and both substitutions per sub-carrier.
std::vector<cq15> lmmse_reference(const std::vector<cq15>& h,
                                  const std::vector<cq15>& y, cq15 sigma,
                                  uint32_t n_b, uint32_t n_l, uint32_t n_sc) {
  std::vector<cq15> g(static_cast<size_t>(n_sc) * n_l * n_l);
  std::vector<cq15> rhs(static_cast<size_t>(n_sc) * n_l);
  std::vector<cq15> x(rhs.size());
  fixed::gram_subcarriers(h.data(), y.data(), sigma, g.data(), rhs.data(), n_b,
                          n_l, 0, n_sc);
  cq15 l[64];
  for (uint32_t sc = 0; sc < n_sc; ++sc) {
    fixed::cholesky(g.data() + static_cast<size_t>(sc) * n_l * n_l, l, n_l);
    fixed::trisolve(l, rhs.data() + static_cast<size_t>(sc) * n_l,
                    x.data() + static_cast<size_t>(sc) * n_l, n_l);
  }
  return x;
}

TEST(FixedQ15, LmmseFactorSolveMatchPerSymbolSequence) {
  // lmmse_factor once, then lmmse_solve for several beam rows, against
  // gram_subcarriers + cholesky + trisolve per row; the factor and each
  // solve scalar or SIMD in every combination (the two write one factor
  // layout), over sub-ranges whose cuts fall inside four-sub-carrier lane
  // groups and differ between the factor and the solves.  Two input
  // regimes: the backend's (channel estimates a quarter of full scale, so
  // the Gramians are well conditioned) and full-range adversarial values,
  // whose Gramians drive the factorization into zero diagonals (div_q15's
  // saturating branch), non-positive sqrt arguments and saturated
  // quotients.  Layer counts above 4 run the scalar path either way.
  common::Rng rng(5);
  constexpr uint32_t kRows = 3;  // data symbols against one factor
  for (const bool full_range : {false, true}) {
    for (const uint32_t n_l : {1u, 2u, 3u, 4u, 5u, 6u, 8u}) {
      for (const uint32_t n_b : {1u, 3u, 8u, 13u, 32u, 64u, 65u}) {
        if (n_b < n_l) continue;
        const uint32_t n_sc = 1 + rng.next_u32() % 23;
        std::vector<cq15> h(static_cast<size_t>(n_sc) * n_b * n_l);
        for (auto& v : h) {
          v = random_cq15(rng);
          if (!full_range) v = cq15{static_cast<int16_t>(v.re >> 2),
                                    static_cast<int16_t>(v.im >> 2)};
        }
        std::vector<std::vector<cq15>> ys(kRows);
        for (auto& y : ys) {
          y.resize(static_cast<size_t>(n_sc) * n_b);
          for (auto& v : y) v = random_cq15(rng);
        }
        const cq15 sigma{static_cast<int16_t>(rng.next_u32() % 4096), 0};
        for (const bool simd_factor : {false, true}) {
          std::vector<cq15> l(static_cast<size_t>(n_sc) * n_l * n_l);
          const uint32_t cut = n_sc / 3;
          fixed::lmmse_factor(h.data(), sigma, l.data(), n_b, n_l, 0, cut,
                              simd_factor);
          fixed::lmmse_factor(h.data(), sigma, l.data(), n_b, n_l, cut, n_sc,
                              simd_factor);
          for (const bool simd_solve : {false, true}) {
            for (uint32_t r = 0; r < kRows; ++r) {
              const auto want =
                  lmmse_reference(h, ys[r], sigma, n_b, n_l, n_sc);
              std::vector<cq15> got(want.size());
              const uint32_t mid = (n_sc + r) / 2;
              fixed::lmmse_solve(h.data(), l.data(), ys[r].data(), got.data(),
                                 n_b, n_l, 0, mid, simd_solve);
              fixed::lmmse_solve(h.data(), l.data(), ys[r].data(), got.data(),
                                 n_b, n_l, mid, n_sc, simd_solve);
              for (size_t i = 0; i < want.size(); ++i) {
                ASSERT_EQ(want[i], got[i])
                    << "n_l " << n_l << " n_b " << n_b << " sc " << i / n_l
                    << " row " << r << " simd factor " << simd_factor
                    << " simd solve " << simd_solve << " full range "
                    << full_range;
              }
            }
          }
        }
      }
    }
  }
}

TEST(FixedQ15, SimdFftMatchesScalarAcrossSizes) {
  common::Rng rng(7);
  for (const uint32_t n : {16u, 64u, 256u, 1024u}) {
    const auto& plan = fixed::fft_plan(n);
    for (int round = 0; round < 4; ++round) {
      std::vector<cq15> in(n);
      for (auto& v : in) v = random_cq15(rng);
      std::vector<cq15> buf_s = in, out_s(n), buf_v = in, out_v(n);
      fixed::fft_transform(plan, buf_s.data(), out_s.data(), false);
      fixed::fft_transform(plan, buf_v.data(), out_v.data(), true);
      for (uint32_t i = 0; i < n; ++i) {
        EXPECT_EQ(out_s[i].re, out_v[i].re) << "n " << n << " bin " << i;
        EXPECT_EQ(out_s[i].im, out_v[i].im) << "n " << n << " bin " << i;
      }
      // Stage by stage over uneven butterfly ranges (the cooperative
      // FFT's tiling): ranges that start mid-group take the scalar loop.
      std::vector<cq15> buf_r = in, out_r(n);
      const uint32_t q = n / 4;
      for (uint32_t k = 0; k < plan.geom.stages; ++k) {
        for (const auto& [g0, g1] :
             {std::pair{0u, q / 3}, std::pair{q / 3, q / 2 + 1},
              std::pair{q / 2 + 1, q}}) {
          fixed::fft_stage(plan, k, buf_r.data(), out_r.data(), g0, g1, true);
        }
      }
      EXPECT_EQ(out_s, out_r) << "n " << n << " ranged stages";
    }
  }
}

}  // namespace
