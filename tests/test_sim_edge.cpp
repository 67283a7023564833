// Edge cases and failure injection: barrier deadlock detection, allocator
// exhaustion, wake-before-WFI races, and selective wake-up semantics.
#include <gtest/gtest.h>

#include "sim/barrier.h"
#include "sim/machine.h"

namespace {

using namespace pp;
using sim::Core;
using sim::Machine;
using sim::Prog;
using sim::Tok;
using sim::Wake_set;

arch::Cluster_config cfg16() { return arch::Cluster_config::minipool(); }

// A core sleeping with nobody to wake it is a deadlock; the machine aborts
// with a diagnostic instead of hanging.
TEST(SimEdgeDeathTest, DeadlockIsDetected) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        Machine m(cfg16());
        auto prog = [](Core& c) -> Prog { co_await c.wfi(); };
        std::vector<Machine::Launch> l;
        l.push_back({0, prog(m.core(0))});
        m.run_programs("deadlock", std::move(l));
      },
      "deadlock");
}

// Barrier participant count mismatch (a core missing) also deadlocks.
TEST(SimEdgeDeathTest, MissingBarrierParticipantDeadlocks) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        Machine m(cfg16());
        arch::L1_alloc alloc(m.config());
        sim::Barrier bar = sim::Barrier::create(alloc, m.config(), {0, 1, 2});
        auto prog = [](Core& c, sim::Barrier* b) -> Prog {
          co_await sim::barrier_wait(c, *b);
        };
        std::vector<Machine::Launch> l;
        l.push_back({0, prog(m.core(0), &bar)});
        l.push_back({1, prog(m.core(1), &bar)});
        // core 2 never arrives
        m.run_programs("mismatch", std::move(l));
      },
      "deadlock");
}

TEST(SimEdgeDeathTest, L1OverflowIsCaught) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  const auto cfg = cfg16();  // outlives the allocator, which points at it
  EXPECT_DEATH(
      {
        arch::L1_alloc alloc(cfg);
        alloc.alloc(cfg.l1_words() + 1);
      },
      "SRAM");
}

// A wake-up trigger that fires while the target is still running must be
// latched: the next WFI falls through instead of sleeping forever.
TEST(SimEdge, WakeBeforeWfiIsLatched) {
  Machine m(cfg16());

  auto waker = [](Core& c) -> Prog {
    Wake_set w;
    w.kind = Wake_set::Kind::cores;
    w.cores = {1};
    c.csr_wake(w);  // fires at ~cycle wakeup_latency
    co_return;
  };
  auto sleeper = [](Core& c) -> Prog {
    c.alu(200);        // still busy when the trigger fires
    co_await c.wfi();  // must fall through (latched wake)
    c.alu(1);
  };
  std::vector<Machine::Launch> l;
  l.push_back({0, waker(m.core(0))});
  l.push_back({1, sleeper(m.core(1))});
  // Completes without deadlock.
  const auto r = m.run_programs("latched", std::move(l));
  EXPECT_GT(r.instrs, 200u);
}

// Selective wake-up only releases the targeted core.
TEST(SimEdge, SelectiveWakeTargetsOneCore) {
  Machine m(cfg16());

  static uint64_t woke_at_1, woke_at_2;
  auto waker = [](Core& c) -> Prog {
    c.alu(50);
    Wake_set w1;
    w1.kind = Wake_set::Kind::cores;
    w1.cores = {1};
    c.csr_wake(w1);
    c.alu(300);
    Wake_set w2;
    w2.kind = Wake_set::Kind::cores;
    w2.cores = {2};
    c.csr_wake(w2);
    co_return;
  };
  auto sleeper = [](Core& c, uint64_t* out) -> Prog {
    co_await c.wfi();
    *out = c.t;
  };
  std::vector<Machine::Launch> l;
  l.push_back({0, waker(m.core(0))});
  l.push_back({1, sleeper(m.core(1), &woke_at_1)});
  l.push_back({2, sleeper(m.core(2), &woke_at_2)});
  m.run_programs("selective", std::move(l));
  // Core 1 released long before core 2.
  EXPECT_LT(woke_at_1 + 250, woke_at_2);
}

// Group-granularity wake releases exactly the group's cores.
TEST(SimEdge, GroupWakeReleasesWholeGroup) {
  const auto cfg = cfg16();
  Machine m(cfg);
  const uint32_t cpg = cfg.tiles_per_group * cfg.cores_per_tile;

  static std::vector<int> woke;
  woke.assign(cfg.n_cores(), 0);

  auto waker = [](Core& c) -> Prog {
    c.alu(100);
    Wake_set w;
    w.kind = Wake_set::Kind::groups;
    w.group_mask = 0b10;  // group 1 only
    c.csr_wake(w);
    co_return;
  };
  auto sleeper = [](Core& c) -> Prog {
    co_await c.wfi();
    woke[c.id] = 1;
  };
  std::vector<Machine::Launch> l;
  l.push_back({0, waker(m.core(0))});
  for (arch::core_id c = cpg; c < 2 * cpg; ++c) {
    l.push_back({c, sleeper(m.core(c))});
  }
  m.run_programs("group-wake", std::move(l));
  for (arch::core_id c = cpg; c < 2 * cpg; ++c) EXPECT_EQ(woke[c], 1);
}

// Back-to-back kernels on one machine keep a consistent timeline: the
// second report starts where the first ended.
TEST(SimEdge, SequentialKernelsShareTimeline) {
  Machine m(cfg16());
  auto prog = [](Core& c) -> Prog {
    c.alu(100);
    co_return;
  };
  std::vector<Machine::Launch> l1, l2;
  l1.push_back({0, prog(m.core(0))});
  const uint64_t t0 = m.now();
  m.run_programs("first", std::move(l1));
  const uint64_t t1 = m.now();
  l2.push_back({0, prog(m.core(0))});
  m.run_programs("second", std::move(l2));
  const uint64_t t2 = m.now();
  EXPECT_GE(t1, t0 + 100);
  EXPECT_GE(t2, t1 + 100);
}

}  // namespace
