// The runtime layer: Params parsing, the kernel registry, and adapter
// parity - a kernel driven through the uniform bind/launch/fetch lifecycle
// must report exactly the cycles (and produce exactly the outputs) of the
// same configuration driven through its concrete class.
#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "kernels/cholesky.h"
#include "kernels/fft.h"
#include "kernels/mmm.h"
#include "runtime/registry.h"

namespace {

using namespace pp;
using common::cq15;
using runtime::Params;

bool same_q15(const std::vector<cq15>& a, const std::vector<cq15>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].re != b[i].re || a[i].im != b[i].im) return false;
  }
  return true;
}

TEST(Params, TypedAccessorsAndParse) {
  const auto p = Params::parse("n=1024,inst=4,folded=0,mode=serial,flag");
  EXPECT_EQ(p.getu("n", 0), 1024u);
  EXPECT_EQ(p.getu("inst", 0), 4u);
  EXPECT_FALSE(p.getb("folded", true));
  EXPECT_TRUE(p.getb("flag", false));
  EXPECT_EQ(p.gets("mode", "parallel"), "serial");
  EXPECT_EQ(p.getu("absent", 7), 7u);
  EXPECT_FALSE(p.has("absent"));
}

TEST(Params, SetOverwritesAndDescribes) {
  Params p;
  p.set("n", 64u).set("n", 128u).set("mode", "serial");
  EXPECT_EQ(p.getu("n", 0), 128u);
  EXPECT_EQ(p.describe(), "n=128 mode=serial");
}

TEST(Params, PlainIntLiteralsAndKeyManagement) {
  // The documented quickstart style: un-suffixed integer literals.
  Params p = Params().set("n", 256).set("inst", 4).set("folded", false);
  EXPECT_EQ(p.getu("n", 0), 256u);
  EXPECT_EQ(p.keys(), (std::vector<std::string>{"n", "inst", "folded"}));
  p.unset("inst");
  EXPECT_FALSE(p.has("inst"));
  EXPECT_EQ(p.keys(), (std::vector<std::string>{"n", "folded"}));
}

TEST(Registry, ListsAllBuiltinKernels) {
  const auto& reg = runtime::Registry::instance();
  for (const char* name :
       {"fft.serial", "fft.parallel", "mmm", "chol.batch", "chol.pair",
        "chol.serial", "trisolve.batch", "gram.batch", "che", "ne"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
  }
  EXPECT_FALSE(reg.contains("nonexistent"));
  EXPECT_GE(reg.list().size(), 10u);
}

// Every registered kernel launches with default stimulus on the small test
// cluster and reports a plausible region.
TEST(Registry, EveryKernelRunsWithDefaultStimulus) {
  const auto cfg = arch::Cluster_config::minipool();
  const std::vector<std::pair<std::string, Params>> cases = {
      {"fft.serial", Params().set("n", 64u)},
      {"fft.parallel", Params().set("n", 64u).set("inst", 2u)},
      {"mmm", Params().set("m", 32u).set("k", 8u).set("p", 8u)},
      {"chol.batch", Params().set("n", 4u).set("per_core", 2u)},
      {"chol.pair", Params().set("n", 8u).set("pairs", 2u)},
      {"chol.serial", Params().set("n", 4u).set("reps", 2u)},
      {"trisolve.batch", Params().set("n", 4u).set("per_core", 2u)},
      {"gram.batch", Params().set("sc", 32u).set("b", 4u).set("l", 2u)},
      {"che", Params().set("sc", 32u).set("b", 4u).set("l", 2u)},
      {"ne", Params().set("sc", 32u).set("b", 4u).set("l", 2u)},
  };
  for (const auto& [name, params] : cases) {
    const auto r = bench::measure_kernel(cfg, name, params);
    EXPECT_GT(r.rep.cycles, 0u) << name;
    EXPECT_GT(r.rep.instrs, 0u) << name;
    EXPECT_GT(r.desc.cores, 0u) << name;
    EXPECT_EQ(r.desc.name, name);
  }
}

// The desc reflects resolved parameters (cluster-dependent defaults).
TEST(Registry, DescResolvesClusterDefaults) {
  const auto cfg = arch::Cluster_config::minipool();  // 16 cores
  sim::Machine m(cfg);
  arch::L1_alloc alloc(m.config());
  // inst=0 means "fill the cluster": 64-pt FFT needs 4 cores per gang.
  auto k = runtime::make_kernel("fft.parallel", m, alloc,
                                Params().set("n", 64u).set("inst", 0u));
  EXPECT_EQ(k->desc().params.getu("inst", 0), 4u);
  EXPECT_EQ(k->desc().cores, 16u);
}

// ---- adapter parity: registry lifecycle == direct kernel class ----------

TEST(AdapterParity, FftParallelMatchesDirectClass) {
  const auto cfg = arch::Cluster_config::minipool();
  const uint32_t n = 256, inst = 1, reps = 2;
  const auto x0 = bench::random_signal(n, 11);
  const auto x1 = bench::random_signal(n, 12);

  sim::Machine m1(cfg);
  arch::L1_alloc a1(m1.config());
  kernels::Fft_parallel direct(m1, a1, n, inst, reps);
  direct.set_input(0, 0, x0);
  direct.set_input(0, 1, x1);
  const auto want = direct.run();

  sim::Machine m2(cfg);
  arch::L1_alloc a2(m2.config());
  auto k = runtime::make_kernel(
      "fft.parallel", m2, a2,
      Params().set("n", n).set("inst", inst).set("reps", reps));
  k->bind("x", 0, x0);
  k->bind("x", 1, x1);
  const auto got = k->launch();

  EXPECT_EQ(got.cycles, want.cycles);
  EXPECT_EQ(got.instrs, want.instrs);
  EXPECT_EQ(got.n_cores, want.n_cores);
  EXPECT_TRUE(same_q15(k->fetch("y", 0), direct.output(0, 0)));
  EXPECT_TRUE(same_q15(k->fetch("y", 1), direct.output(0, 1)));
}

TEST(AdapterParity, MmmMatchesDirectClass) {
  const auto cfg = arch::Cluster_config::minipool();
  const kernels::Mmm_dims d{32, 8, 8};
  const auto a = bench::random_signal(size_t{d.m} * d.k, 1);
  const auto b = bench::random_signal(size_t{d.k} * d.p, 2);

  sim::Machine m1(cfg);
  arch::L1_alloc a1(m1.config());
  kernels::Mmm direct(m1, a1, d);
  direct.set_a(a);
  direct.set_b(b);
  const auto want = direct.run_parallel();

  sim::Machine m2(cfg);
  arch::L1_alloc a2(m2.config());
  auto k = runtime::make_kernel(
      "mmm", m2, a2, Params().set("m", d.m).set("k", d.k).set("p", d.p));
  k->bind("a", 0, a);
  k->bind("b", 0, b);
  const auto got = k->launch();

  EXPECT_EQ(got.cycles, want.cycles);
  EXPECT_EQ(got.instrs, want.instrs);
  EXPECT_TRUE(same_q15(k->fetch("c"), direct.c()));
  EXPECT_EQ(k->desc().macs, direct.cmacs());
}

TEST(AdapterParity, CholBatchMatchesDirectClass) {
  const auto cfg = arch::Cluster_config::minipool();
  const uint32_t per_core = 2, n_cores = cfg.n_cores();

  sim::Machine m1(cfg);
  arch::L1_alloc a1(m1.config());
  kernels::Chol_batch direct(m1, a1, 4, per_core, n_cores);
  sim::Machine m2(cfg);
  arch::L1_alloc a2(m2.config());
  auto k = runtime::make_kernel("chol.batch", m2, a2,
                                Params().set("n", 4u).set("per_core", per_core));

  for (uint32_t c = 0; c < n_cores; ++c) {
    const auto g = bench::random_spd(4, 100 + c);
    for (uint32_t i = 0; i < per_core; ++i) {
      direct.set_g(c, i, g);
      k->bind("g", c * per_core + i, g);
    }
  }
  const auto want = direct.run();
  const auto got = k->launch();

  EXPECT_EQ(got.cycles, want.cycles);
  EXPECT_EQ(got.instrs, want.instrs);
  for (uint32_t c = 0; c < n_cores; ++c) {
    for (uint32_t i = 0; i < per_core; ++i) {
      EXPECT_TRUE(same_q15(k->fetch("l", c * per_core + i), direct.l(c, i)));
    }
  }
}

// Scalar ports: NE produces its estimate through fetch_scalar.
TEST(AdapterParity, NeScalarOutput) {
  const auto cfg = arch::Cluster_config::minipool();
  sim::Machine m(cfg);
  arch::L1_alloc alloc(m.config());
  auto k = runtime::make_kernel(
      "ne", m, alloc, Params().set("sc", 32u).set("b", 4u).set("l", 2u));
  common::Rng rng(5);
  k->bind_default_inputs(rng);
  k->launch();
  const double s2 = k->fetch_scalar("sigma2");
  EXPECT_GT(s2, 0.0);
  EXPECT_LT(s2, 1.0);
}

}  // namespace
