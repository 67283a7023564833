// Seeded property fuzz for the simulator's fast path.
//
// Random op/load/store/amo/WFI-barrier sequences run through sim::Machine
// twice - once on the batching fast path, once with the reference event
// loop (set_reference_loop(true), the same engine SIM_REFERENCE_LOOP=1
// selects) - and every observable must match bit for bit: cycles, instrs,
// the per-kind stall breakdown and the final L1 contents (service order is
// functionally visible through conflicting stores and amo chains, so memory
// equality is an order check, not just a value check).  Per-core virtual
// clocks are asserted monotone inside the programs themselves.
//
// Programs are pure functions of a seed via common::Rng::derive_seed
// streams, so every case reproduces from its printed seed.  Three seeds are
// pinned as named regression cases, one per tricky scheduler shape: the
// shared-bank tie chains of the sync-grant paths, the bank-ownership inline
// runs of the folded-layout contract, and launches long enough to push the
// closing-barrier events past the ring horizon into the far-event queue.
// A fourth case pins the closing barrier's arrival cycle on either side of
// the horizon.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "arch/address_map.h"
#include "common/rng.h"
#include "sim/barrier.h"
#include "sim/machine.h"

namespace {

using namespace pp;
using sim::Barrier;
using sim::Core;
using sim::Machine;
using sim::Prog;
using sim::Tok;

// ---- random program plans -------------------------------------------------

struct Op {
  enum Kind : uint8_t { alu, mul_use, div, load, store, amo, barrier };
  Kind kind = alu;
  uint32_t a = 0;        // alu width / stored value
  arch::addr_t addr = 0;
};

struct Plan {
  uint64_t seed = 0;
  bool core_local = false;  // ownership mode: each core stays in its banks
  std::vector<std::vector<Op>> ops;  // per core
  uint64_t region_words = 0;         // shared interleaved region (peeked)
};

// Shared-bank mode: every core draws ops over one interleaved region, so
// loads, stores and amo chains conflict across cores and the service order
// (the thing batching must not change) decides the final memory image.
Plan make_shared_plan(const arch::Cluster_config& cfg, uint64_t seed,
                      uint32_t ops_per_core) {
  Plan plan;
  plan.seed = seed;
  plan.region_words = uint64_t{4} * cfg.n_banks();
  plan.ops.resize(cfg.n_cores());
  for (arch::core_id c = 0; c < cfg.n_cores(); ++c) {
    common::Rng rng(common::Rng::derive_seed(seed, c));
    // Phase boundaries land at different per-core offsets on purpose; the
    // barrier count per core must still agree, so phases split evenly.
    const uint32_t phases = 1 + static_cast<uint32_t>(seed % 3);
    for (uint32_t p = 0; p < phases; ++p) {
      const uint32_t n = ops_per_core / phases + rng.uniform_int(8);
      for (uint32_t i = 0; i < n; ++i) {
        Op op;
        const uint32_t addr = rng.uniform_int(static_cast<uint32_t>(plan.region_words));
        switch (rng.uniform_int(6)) {
          case 0: op = {Op::alu, 1 + rng.uniform_int(8), 0}; break;
          case 1: op = {Op::mul_use, 0, 0}; break;
          case 2: op = {Op::div, 0, 0}; break;
          case 3: op = {Op::load, 0, addr}; break;
          case 4: op = {Op::store, rng.next_u32(), addr}; break;
          default: op = {Op::amo, 0, addr}; break;
        }
        plan.ops[c].push_back(op);
      }
      plan.ops[c].push_back({Op::barrier, 0, 0});
    }
  }
  return plan;
}

// Ownership mode: the folded-layout contract (machine.h set_bank_owner) -
// every core touches only its own local banks until one closing barrier,
// and (per the contract) the per-core timing is identical: all cores run
// the same op stream against their own banks, so every barrier arrival
// lands on the same cycle and the service order is the same-cycle tie
// chain the Cholesky kernels hit.  `target_cycles` sizes the straight-line
// run; above the ring horizon (Machine::ring_size cycles) the non-master
// barrier arrivals park in the far-event queue, which is exactly the path
// worth fuzzing.
Plan make_local_plan(const arch::Cluster_config& cfg, uint64_t seed,
                     uint32_t target_cycles, uint32_t scratch_rows) {
  Plan plan;
  plan.seed = seed;
  plan.core_local = true;
  const uint32_t scratch_words = scratch_rows * cfg.banks_per_core;
  common::Rng rng(common::Rng::derive_seed(seed, 0));
  std::vector<Op> ops;
  uint64_t cost = 0;
  while (cost < target_cycles) {
    Op op;
    const uint32_t s = rng.uniform_int(scratch_words);
    switch (rng.uniform_int(5)) {
      case 0: op = {Op::alu, 1 + rng.uniform_int(16), 0}; break;
      case 1: op = {Op::mul_use, 0, 0}; break;
      case 2: op = {Op::div, 0, 0}; break;
      case 3: op = {Op::load, 0, s}; break;  // resolved to core_word below
      default: op = {Op::store, rng.next_u32(), s}; break;
    }
    cost += op.kind == Op::alu ? op.a : 4;  // rough cycles, sizing only
    ops.push_back(op);
  }
  ops.push_back({Op::barrier, 0, 0});
  plan.ops.assign(cfg.n_cores(), ops);
  return plan;
}

// ---- execution ------------------------------------------------------------

Prog run_ops(Core& c, const std::vector<Op>* ops, const Barrier* bar,
             const arch::Address_map* map, uint32_t base_row,
             arch::addr_t region_base, bool core_local) {
  uint64_t prev = c.t;
  for (const Op& op : *ops) {
    // Plans carry region-relative offsets (the allocator runs per machine);
    // resolve against this machine's layout here.
    const arch::addr_t addr = core_local
                                  ? map->core_word(c.id, base_row, op.addr)
                                  : region_base + op.addr;
    switch (op.kind) {
      case Op::alu:
        c.alu(op.a);
        break;
      case Op::mul_use: {
        const uint64_t p = c.mul();
        c.alu_use(1, p);
        break;
      }
      case Op::div:
        c.div();
        break;
      case Op::load: {
        const Tok t = co_await c.load(addr);
        EXPECT_GE(t.ready, prev) << "token ready before its issue";
        break;
      }
      case Op::store:
        co_await c.store(addr, op.a);
        break;
      case Op::amo:
        co_await c.amo_add(addr, 1);
        break;
      case Op::barrier:
        co_await barrier_wait(c, *bar);
        break;
    }
    EXPECT_GE(c.t, prev) << "virtual clock went backwards";
    prev = c.t;
  }
}

struct Fuzz_run {
  sim::Kernel_report rep;
  std::vector<uint32_t> mem;  // final L1 words of the active region
  // Issue cycle of core 1's last memory op.  In a core-local plan that is
  // its barrier arrival: a non-master's access to the counter bank, which
  // the fast path parks in the event queue at this cycle.
  uint64_t arrival = 0;
};

Fuzz_run run_plan(const arch::Cluster_config& cfg, const Plan& plan,
                  bool reference) {
  Machine m(cfg);
  m.set_reference_loop(reference);
  arch::L1_alloc alloc(m.config());

  std::vector<arch::core_id> all(cfg.n_cores());
  for (arch::core_id c = 0; c < cfg.n_cores(); ++c) all[c] = c;
  Barrier bar = Barrier::create(alloc, cfg, all);

  arch::addr_t region = 0;
  uint32_t base_row = 0;
  const uint32_t scratch_rows = 4;
  if (plan.core_local) {
    base_row = alloc.alloc_rows(scratch_rows);
    // The folded-layout declaration (counter bank included for the master,
    // which Barrier::create placed in core 0's first local bank).
    for (arch::core_id c = 0; c < cfg.n_cores(); ++c) {
      for (uint32_t k = 0; k < cfg.banks_per_core; ++k) {
        m.set_bank_owner(cfg.first_local_bank(c) + k, c);
      }
    }
  } else {
    region = alloc.alloc(plan.region_words);
  }

  std::vector<Machine::Launch> l;
  for (arch::core_id c = 0; c < cfg.n_cores(); ++c) {
    l.push_back({c, run_ops(m.core(c), &plan.ops[c], &bar, &m.map(), base_row,
                            region, plan.core_local)});
  }
  Fuzz_run out;
  out.rep = m.run_programs("fuzz", std::move(l));

  const uint64_t words = plan.core_local
                             ? uint64_t{scratch_rows + 1} * cfg.n_banks()
                             : plan.region_words;
  const arch::addr_t base = plan.core_local ? 0 : region;
  out.mem.resize(words);
  for (uint64_t w = 0; w < words; ++w) {
    out.mem[w] = m.mem().peek(base + static_cast<arch::addr_t>(w));
  }
  out.arrival = m.core(1).pending.issue_t;
  return out;
}

void expect_identical(const Fuzz_run& fast, const Fuzz_run& ref,
                      uint64_t seed) {
  EXPECT_EQ(fast.rep.cycles, ref.rep.cycles) << "seed " << seed;
  EXPECT_EQ(fast.rep.instrs, ref.rep.instrs) << "seed " << seed;
  EXPECT_EQ(fast.rep.n_cores, ref.rep.n_cores) << "seed " << seed;
  for (size_t k = 0; k < sim::n_stall_kinds; ++k) {
    EXPECT_EQ(fast.rep.stall[k], ref.rep.stall[k])
        << "seed " << seed << " " << stall_name(static_cast<sim::Stall>(k));
  }
  EXPECT_EQ(fast.mem, ref.mem) << "seed " << seed;
}

arch::Cluster_config fuzz_cfg() { return arch::Cluster_config::minipool(); }

// A core-local plan whose non-master barrier arrivals issue at exactly
// `arrival` cycles into the launch: a short local plan, then a run of
// single-cycle ALU ops from one call site (one cycle each once its L0 line
// is resident) sized by a calibration run, then the closing barrier.
Plan make_arrival_plan(const arch::Cluster_config& cfg, uint64_t seed,
                       uint64_t arrival) {
  const Plan local =
      make_local_plan(cfg, seed, static_cast<uint32_t>(arrival / 4), 4);
  auto padded = [&](uint64_t pad) {
    Plan p = local;
    for (auto& ops : p.ops) {
      ops.pop_back();  // the closing barrier goes after the pad
      ops.insert(ops.end(), pad, Op{Op::alu, 1, 0});
      ops.push_back({Op::barrier, 0, 0});
    }
    return p;
  };
  constexpr uint64_t probe_pad = 64;
  const uint64_t probe = run_plan(cfg, padded(probe_pad), false).arrival;
  EXPECT_LE(probe, arrival) << "seed " << seed << ": local plan too long";
  return padded(probe_pad + arrival - std::min(probe, arrival));
}

// ---- the property, over fresh seeds --------------------------------------

TEST(SimFuzz, SharedBankSequencesMatchReferenceLoop) {
  const auto cfg = fuzz_cfg();
  for (uint64_t i = 0; i < 6; ++i) {
    const uint64_t seed = common::Rng::derive_seed(0xf022, i);
    const Plan plan = make_shared_plan(cfg, seed, 160);
    expect_identical(run_plan(cfg, plan, false), run_plan(cfg, plan, true),
                     seed);
  }
}

TEST(SimFuzz, OwnedBankSequencesMatchReferenceLoop) {
  const auto cfg = fuzz_cfg();
  for (uint64_t i = 0; i < 3; ++i) {
    const uint64_t seed = common::Rng::derive_seed(0xfacade, i);
    const Plan plan = make_local_plan(cfg, seed, 2000, 4);
    expect_identical(run_plan(cfg, plan, false), run_plan(cfg, plan, true),
                     seed);
  }
}

TEST(SimFuzz, SameSeedIsBitwiseRepeatable) {
  const auto cfg = fuzz_cfg();
  const Plan plan = make_shared_plan(cfg, 2023, 160);
  const Fuzz_run a = run_plan(cfg, plan, false);
  const Fuzz_run b = run_plan(cfg, plan, false);
  EXPECT_EQ(a.rep.cycles, b.rep.cycles);
  EXPECT_EQ(a.rep.instrs, b.rep.instrs);
  EXPECT_EQ(a.mem, b.mem);
}

// ---- pinned regression seeds ----------------------------------------------

// Same-cycle amo/store tie chains across all sync-grant paths: bucket
// insertion order is observable through bank-epoch chaining, so a fast path
// that parks events out of launch order diverges here.
TEST(SimFuzz, RegressionSeedSyncGrantTieChains) {
  const auto cfg = fuzz_cfg();
  const uint64_t seed = common::Rng::derive_seed(0x7ea, 0);
  const Plan plan = make_shared_plan(cfg, seed, 320);
  expect_identical(run_plan(cfg, plan, false), run_plan(cfg, plan, true),
                   seed);
}

// The bank-ownership inline path at Cholesky-like scale: whole per-core
// runs serviced without touching the ring, closed by one barrier
// whose master owns the counter bank (the waker-identity case the chol
// kernels hit).
TEST(SimFuzz, RegressionSeedOwnershipInlineRuns) {
  const auto cfg = fuzz_cfg();
  const uint64_t seed = common::Rng::derive_seed(0xc401, 1);
  const Plan plan = make_local_plan(cfg, seed, 4000, 4);
  expect_identical(run_plan(cfg, plan, false), run_plan(cfg, plan, true),
                   seed);
}

// Inline runs far past the ring horizon: the closing-barrier events of the
// non-master cores land in the far-event queue and must flush back in
// insertion order.
TEST(SimFuzz, RegressionSeedFarEventQueue) {
  const auto cfg = fuzz_cfg();
  const uint64_t seed = common::Rng::derive_seed(0xfa2, 2);
  const Plan plan = make_local_plan(cfg, seed, 45000, 4);
  expect_identical(run_plan(cfg, plan, false), run_plan(cfg, plan, true),
                   seed);
}

// Inline runs whose barrier arrivals issue just inside the ring horizon,
// exactly at it, just past it and several horizons out: the boundary
// between a ring bucket and the far-event queue, and far events that flush
// back over more than one horizon.  The arrival cycle is pinned, so a plan
// that drifts off its boundary fails here instead of silently testing
// something else.
TEST(SimFuzz, FarQueueAtTheRingHorizon) {
  const auto cfg = fuzz_cfg();
  const uint64_t h = Machine::ring_size;
  for (const uint64_t arrival :
       {h - 1, h, h + 1, 3 * h, 3 * h + 1, 7 * h + 5}) {
    const uint64_t seed = common::Rng::derive_seed(0x4012, arrival);
    const Plan plan = make_arrival_plan(cfg, seed, arrival);
    const Fuzz_run fast = run_plan(cfg, plan, false);
    const Fuzz_run ref = run_plan(cfg, plan, true);
    EXPECT_EQ(fast.arrival, arrival) << "seed " << seed;
    EXPECT_EQ(ref.arrival, arrival) << "seed " << seed;
    expect_identical(fast, ref, seed);
  }
}

// A wake-up parked past the ring horizon - here behind a long compute run;
// a wake CSR write train to hundreds of cores does the same - must hold
// back the synchronous grant of any later access, exactly as a ring event
// does.  Core 1 wakes core 0, then stores to the word core 0 loads on
// waking: the load comes first in cycle order, so it reads the old value.
TEST(SimFuzz, FarWakeBoundsSynchronousGrants) {
  const auto cfg = fuzz_cfg();
  auto run = [&](bool reference) {
    Machine m(cfg);
    m.set_reference_loop(reference);
    arch::L1_alloc alloc(m.config());
    const arch::addr_t word = alloc.alloc(1);
    const arch::addr_t first = alloc.alloc(1);
    uint32_t seen = ~0u;
    auto sleeper = [](Core& c, arch::addr_t a, uint32_t* out) -> Prog {
      co_await c.wfi();
      *out = (co_await c.load(a)).value;
    };
    auto waker = [](Core& c, arch::addr_t a, arch::addr_t b) -> Prog {
      co_await c.load(b);  // granted inline: no other event is pending
      c.alu(Machine::ring_size);
      sim::Wake_set w;
      w.kind = sim::Wake_set::Kind::cores;
      w.cores = {0};
      c.csr_wake(w);
      c.alu(50);
      co_await c.store(a, 42);
    };
    std::vector<Machine::Launch> l;
    l.push_back({0, sleeper(m.core(0), word, &seen)});
    l.push_back({1, waker(m.core(1), word, first)});
    const sim::Kernel_report rep = m.run_programs("far-wake", std::move(l));
    return std::pair{rep.cycles, seen};
  };
  const auto fast = run(false);
  const auto ref = run(true);
  EXPECT_EQ(ref.second, 0u) << "the load precedes the store";
  EXPECT_EQ(fast.second, ref.second);
  EXPECT_EQ(fast.first, ref.first);
}

}  // namespace
