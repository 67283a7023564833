// Unit tests for the simulated core: issue accounting, RAW stalls,
// divider/ext-unit stalls, LSU depth (and its validation), and
// instruction-fetch behaviour.
#include <gtest/gtest.h>

#include "arch/address_map.h"
#include "sim/machine.h"

namespace {

using namespace pp;
using sim::Core;
using sim::Machine;
using sim::Prog;
using sim::Stall;
using sim::Tok;

arch::Cluster_config test_cfg() { return arch::Cluster_config::minipool(); }

// One core issuing n ALU ops takes n cycles (plus cold icache refills).
TEST(SimCore, AluCyclesAndInstrCount) {
  Machine m(test_cfg());
  auto prog = [](Core& c) -> Prog {
    c.alu(10);
    co_return;
  };
  std::vector<Machine::Launch> l;
  l.push_back({0, prog(m.core(0))});
  auto r = m.run_programs("alu", std::move(l));
  EXPECT_EQ(r.instrs, 10u);
  // 10 instruction cycles + cold L0 misses.
  EXPECT_EQ(r.cycles, r.instrs + r.stall[size_t(Stall::icache)]);
  EXPECT_GT(r.stall[size_t(Stall::icache)], 0u);
}

// A loop body that fits in L0 only pays fetch penalties on the first
// iteration.
TEST(SimCore, IcacheHitsAfterFirstIteration) {
  Machine m(test_cfg());
  auto prog = [](Core& c) -> Prog {
    for (int i = 0; i < 100; ++i) c.alu(4);
    co_return;
  };
  std::vector<Machine::Launch> l;
  l.push_back({0, prog(m.core(0))});
  auto r = m.run_programs("loop", std::move(l));
  EXPECT_EQ(r.instrs, 400u);
  const uint64_t icache = r.stall[size_t(Stall::icache)];
  // One cold line miss (4 instrs = 1 line), penalty = refill cycles.
  EXPECT_EQ(icache, test_cfg().icache_refill_cycles);
}

// An L0 larger than the tags the Core holds inline (16 lines) keeps them on
// the heap with the same behaviour: a 25-line loop body thrashes the
// presets' 16-line L0 but stays resident in a 32-line one, missing only on
// the first iteration.
TEST(SimCore, LargeL0KeepsALongerLoopBodyResident) {
  auto loop = [](Core& c) -> Prog {
    for (int i = 0; i < 10; ++i) c.alu(100);  // 25 lines per iteration
    co_return;
  };
  auto icache_stall = [&](uint32_t l0_instrs) {
    auto cfg = test_cfg();
    cfg.l0_icache_instrs = l0_instrs;
    Machine m(cfg);
    std::vector<Machine::Launch> l;
    l.push_back({0, loop(m.core(0))});
    return m.run_programs("loop", std::move(l)).stall[size_t(Stall::icache)];
  };
  const uint64_t refill = test_cfg().icache_refill_cycles;
  EXPECT_EQ(icache_stall(128), 25 * refill);
  EXPECT_GT(icache_stall(64), 25 * refill);
}

// mul result used immediately -> RAW stall of (mul_latency - 1).
TEST(SimCore, MulRawStall) {
  Machine m(test_cfg());
  auto prog = [](Core& c) -> Prog {
    const uint64_t p = c.mul();
    c.alu_use(1, p);  // consumer
    co_return;
  };
  std::vector<Machine::Launch> l;
  l.push_back({0, prog(m.core(0))});
  auto r = m.run_programs("mul", std::move(l));
  EXPECT_EQ(r.stall[size_t(Stall::raw)], test_cfg().mul_latency - 1);
}

// Back-to-back divides stall on the non-pipelined divider.
TEST(SimCore, DividerExtUnitStall) {
  Machine m(test_cfg());
  auto prog = [](Core& c) -> Prog {
    c.div();
    c.div();  // issues while the divider is busy
    co_return;
  };
  std::vector<Machine::Launch> l;
  l.push_back({0, prog(m.core(0))});
  auto r = m.run_programs("div", std::move(l));
  EXPECT_GE(r.stall[size_t(Stall::extunit)], test_cfg().div_latency - 1);
}

// Local load: token ready exactly 1 cycle after issue (no conflict).
TEST(SimCore, LocalLoadLatency) {
  Machine m(test_cfg());
  arch::L1_alloc alloc(m.config());
  const uint32_t row = alloc.alloc_rows(1);
  const arch::addr_t a = m.map().core_word(0, row, 0);
  m.mem().poke(a, 42);

  auto prog = [](Core& c, arch::addr_t addr) -> Prog {
    const Tok t0 = co_await c.load(addr);
    EXPECT_EQ(t0.value, 42u);
    // Issue cycle was c.t - 1; ready is +lat_tile after that.
    EXPECT_EQ(t0.ready, (c.t - 1) + c.cfg->lat_tile);
  };
  std::vector<Machine::Launch> l;
  l.push_back({0, prog(m.core(0), a)});
  m.run_programs("load", std::move(l));
}

// Load from a remote group costs lat_remote.
TEST(SimCore, RemoteLoadLatency) {
  Machine m(test_cfg());
  const auto& cfg = m.config();
  // A bank in the last tile of the last group, accessed by core 0.
  const arch::bank_id far_bank = cfg.n_banks() - 1;
  ASSERT_EQ(cfg.locality(0, far_bank), arch::Locality::remote);
  const arch::addr_t a = m.map().bank_word(far_bank, 5);
  m.mem().poke(a, 7);

  auto prog = [](Core& c, arch::addr_t addr) -> Prog {
    const Tok t = co_await c.load(addr);
    EXPECT_EQ(t.value, 7u);
    EXPECT_EQ(t.ready, (c.t - 1) + c.cfg->lat_remote);
  };
  std::vector<Machine::Launch> l;
  l.push_back({0, prog(m.core(0), a)});
  m.run_programs("remote", std::move(l));
}

// Same-group (non-local tile) load costs lat_group.
TEST(SimCore, GroupLoadLatency) {
  Machine m(test_cfg());
  const auto& cfg = m.config();
  // Bank in tile 1 (same group as core 0's tile 0).
  const arch::bank_id b = cfg.banks_per_tile();
  ASSERT_EQ(cfg.locality(0, b), arch::Locality::group);
  const arch::addr_t a = m.map().bank_word(b, 0);

  auto prog = [](Core& c, arch::addr_t addr) -> Prog {
    const Tok t = co_await c.load(addr);
    EXPECT_EQ(t.ready, (c.t - 1) + c.cfg->lat_group);
  };
  std::vector<Machine::Launch> l;
  l.push_back({0, prog(m.core(0), a)});
  m.run_programs("group", std::move(l));
}

// Two cores of the same tile hitting the same bank on the same cycle:
// the second is served one cycle later.
TEST(SimCore, BankConflictSerializes) {
  Machine m(test_cfg());
  arch::L1_alloc alloc(m.config());
  const uint32_t row = alloc.alloc_rows(1);
  const arch::addr_t a = m.map().core_word(0, row, 0);

  static uint64_t ready0, ready1;
  auto prog = [](Core& c, arch::addr_t addr, uint64_t* out) -> Prog {
    const Tok t = co_await c.load(addr);
    *out = t.ready;
  };
  std::vector<Machine::Launch> l;
  l.push_back({0, prog(m.core(0), a, &ready0)});
  l.push_back({1, prog(m.core(1), a, &ready1)});
  m.run_programs("conflict", std::move(l));
  EXPECT_EQ(ready1, ready0 + 1);  // serialized at the bank
}

// Hammering a single bank backs transactions up until the LSU queue is full
// and the core stalls; without conflicts (distinct banks) it never does.
TEST(SimCore, LsuDepthBackPressure) {
  auto cfg = test_cfg();

  auto hammer = [](Core& c, bool same_bank, uint32_t n) -> Prog {
    const auto& map = c.machine->map();
    const uint32_t bpt = c.cfg->banks_per_tile();
    for (uint32_t i = 0; i < n; ++i) {
      // Conflicting case: one remote bank; conflict-free: spread over banks.
      co_await c.load(map.bank_word(same_bank ? bpt : bpt + i, i));
    }
  };

  // Four cores hammering one bank: the bank serves 1/cycle, the cores issue
  // 4/cycle, so per-core completions lag and the 8-deep queues fill up.
  Machine m_conflict(cfg);
  std::vector<Machine::Launch> l1;
  for (arch::core_id c = 0; c < 4; ++c) {
    l1.push_back({c, hammer(m_conflict.core(c), true, 8 * cfg.lsu_depth)});
  }
  auto r1 = m_conflict.run_programs("lsu-conflict", std::move(l1));
  EXPECT_GT(r1.stall[size_t(sim::Stall::lsu)], 0u);

  Machine m_free(cfg);
  std::vector<Machine::Launch> l2;
  l2.push_back({0, hammer(m_free.core(0), false, cfg.lsu_depth)});
  auto r2 = m_free.run_programs("lsu-free", std::move(l2));
  EXPECT_EQ(r2.stall[size_t(sim::Stall::lsu)], 0u);
}

// Both ends of the accepted LSU depth simulate: at depth 1 every load after
// the first waits for its predecessor (5-cycle remote round trips), at the
// deepest queue the same loads never fill it.
TEST(SimCore, LsuDepthBoundsAreAccepted) {
  for (const uint32_t depth : {1u, Core::max_lsu_depth}) {
    auto cfg = test_cfg();
    cfg.lsu_depth = depth;
    Machine m(cfg);
    auto prog = [](Core& c) -> Prog {
      const auto& map = c.machine->map();
      const arch::bank_id far_bank = c.cfg->n_banks() - 1;
      for (uint32_t i = 0; i < 8; ++i) {
        co_await c.load(map.bank_word(far_bank, i));
      }
    };
    std::vector<Machine::Launch> l;
    l.push_back({0, prog(m.core(0))});
    const auto r = m.run_programs("lsu-depth", std::move(l));
    EXPECT_LT(r.cycles, 100u) << "depth " << depth;
    if (depth == 1) {
      EXPECT_GT(r.stall[size_t(Stall::lsu)], 0u);
    } else {
      EXPECT_EQ(r.stall[size_t(Stall::lsu)], 0u);
    }
  }
}

// An LSU depth outside [1, Core::max_lsu_depth] is rejected when the machine
// is built: at 0 the first memory op would find no slot and stall the
// core's clock to the end of time; past the per-core completion table the
// queue would silently be simulated as max_lsu_depth deep.
TEST(SimCoreDeathTest, RejectsLsuDepthOutsideTheCompletionTable) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  auto cfg = test_cfg();
  cfg.lsu_depth = 0;
  EXPECT_DEATH({ Machine m(cfg); }, "lsu_depth must be in \\[1, 16\\]");
  cfg.lsu_depth = Core::max_lsu_depth + 1;
  EXPECT_DEATH({ Machine m(cfg); }, "lsu_depth must be in \\[1, 16\\]");
}

// Store then load from another core (sequenced by cycle) sees the value.
TEST(SimCore, StoreVisibleToLaterLoad) {
  Machine m(test_cfg());
  arch::L1_alloc alloc(m.config());
  const arch::addr_t a = alloc.alloc(1);

  auto writer = [](Core& c, arch::addr_t addr) -> Prog {
    co_await c.store(addr, 0xabcd);
  };
  auto reader = [](Core& c, arch::addr_t addr) -> Prog {
    c.alu(50);  // start well after the store
    const Tok t = co_await c.load(addr);
    EXPECT_EQ(t.value, 0xabcdu);
  };
  std::vector<Machine::Launch> l;
  l.push_back({0, writer(m.core(0), a)});
  l.push_back({1, reader(m.core(1), a)});
  m.run_programs("st-ld", std::move(l));
}

// amo_add returns the old value and accumulates atomically.
TEST(SimCore, AmoAddAtomicity) {
  Machine m(test_cfg());
  arch::L1_alloc alloc(m.config());
  const arch::addr_t a = alloc.alloc(1);
  const auto& cfg = m.config();

  static std::vector<uint32_t> observed;
  observed.clear();
  auto prog = [](Core& c, arch::addr_t addr) -> Prog {
    const Tok t = co_await c.amo_add(addr, 1);
    observed.push_back(t.value);
  };
  std::vector<Machine::Launch> l;
  for (arch::core_id c = 0; c < cfg.n_cores(); ++c) {
    l.push_back({c, prog(m.core(c), a)});
  }
  m.run_programs("amo", std::move(l));
  EXPECT_EQ(m.mem().peek(a), cfg.n_cores());
  // All old values distinct, i.e. a permutation of 0..n-1.
  std::sort(observed.begin(), observed.end());
  for (uint32_t i = 0; i < cfg.n_cores(); ++i) EXPECT_EQ(observed[i], i);
}

// Sub-programs run on the awaiting core with correct accounting.
TEST(SimCore, NestedSubPrograms) {
  Machine m(test_cfg());
  auto leaf = [](Core& c) -> Prog {
    c.alu(5);
    co_return;
  };
  auto top = [&](Core& c) -> Prog {
    c.alu(1);
    co_await leaf(c);
    c.alu(1);
    co_await leaf(c);
    co_return;
  };
  std::vector<Machine::Launch> l;
  l.push_back({0, top(m.core(0))});
  auto r = m.run_programs("nested", std::move(l));
  EXPECT_EQ(r.instrs, 12u);
}

// Cycle attribution is conserved: instr + stalls == cores * cycles.
TEST(SimCore, AttributionConserved) {
  Machine m(test_cfg());
  arch::L1_alloc alloc(m.config());
  const arch::addr_t a = alloc.alloc(64);

  auto prog = [](Core& c, arch::addr_t base) -> Prog {
    for (uint32_t i = 0; i < 20; ++i) {
      const Tok t = co_await c.load(base + i);
      const uint64_t p = c.mul(t.ready);
      co_await c.store(base + i, t.value + 1, p);
    }
  };
  std::vector<Machine::Launch> l;
  for (arch::core_id c = 0; c < 4; ++c) l.push_back({c, prog(m.core(c), a)});
  auto r = m.run_programs("conserve", std::move(l));
  uint64_t total = r.instrs;
  for (auto s : r.stall) total += s;
  EXPECT_EQ(total, r.core_cycles());
}

}  // namespace
