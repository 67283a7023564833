// Event-driven, cycle-approximate many-core machine.
//
// Model (paper §III):
//  * in-order single-issue Snitch-like cores, 1 instruction/cycle peak;
//  * scoreboarded result tokens: consuming an unready token stalls (RAW);
//  * an 8-deep LSU: issuing into a full queue stalls (LSU);
//  * banked L1, one access/bank/cycle, load-to-use 1/3/5 cycles for
//    tile/group/remote banks; conflicting accesses serialize at the bank;
//  * a small per-core L0 I$ refilled from a shared L1 I$ (instruction stalls);
//  * a non-pipelined divider and pipelined multiplier (ext-unit/RAW stalls);
//  * WFI sleep plus wake-up CSR triggers at cluster/group/tile/core
//    granularity (WFI stalls).
//
// Cores are C++20 coroutines.  A core runs register-local work without
// suspending (its local clock runs ahead) and suspends exactly at memory
// operations and WFI, so every globally-visible event is processed in global
// (cycle, insertion) order: the simulation is deterministic.
//
// Fast path (DETERMINISM.md §5): the scheduler batches whole runs of
// same-core pipelined ops into one virtual-clock advance (compute ops are
// plain inline arithmetic on the core-local clock - they never enter the
// event loop), skips the global clock straight to the next scheduled event
// over spans where every core is either computing ahead or asleep in WFI
// (an occupancy bitmap over the ring buckets), arbitrates banks through
// per-bank epoch counters owned by the Machine, and resolves addresses
// through the memoized arch::Route_cache.  None of this changes a single
// reported cycle: events still fire in the same (cycle, insertion) order,
// and the pre-batching scheduler survives as the reference loop
// (SIM_REFERENCE_LOOP=1 or set_reference_loop(true)), which
// tests/test_sim_differential.cpp and tests/test_sim_fuzz.cpp hold
// bit-identical to the fast path.
#ifndef PUSCHPOOL_SIM_MACHINE_H
#define PUSCHPOOL_SIM_MACHINE_H

#include <algorithm>
#include <array>
#include <coroutine>
#include <cstdint>
#include <limits>
#include <source_location>
#include <string>
#include <vector>

#include "arch/address_map.h"
#include "arch/route_cache.h"
#include "arch/topology.h"
#include "common/check.h"
#include "sim/icache.h"
#include "sim/memory.h"
#include "sim/stats.h"
#include "sim/task.h"
#include "sim/wake.h"

namespace pp::sim {

class Machine;

// Result token of a load/amo: the functional value plus the cycle at which
// a dependent instruction can issue without stalling.
struct Tok {
  uint64_t ready = 0;
  uint32_t value = 0;
};

class alignas(64) Core {
 public:
  using Sl = std::source_location;

  // ---- compute issue (no suspension; local clock runs ahead) ----

  // n single-cycle integer ops (address arithmetic, compares, branches).
  void alu(uint32_t n = 1, Sl sl = Sl::current()) { issue(sl, n, 0, 0); }

  // n single-cycle ops that consume a token (e.g. branch on a loaded value).
  void alu_use(uint32_t n, uint64_t dep, Sl sl = Sl::current()) {
    issue(sl, n, dep, 0);
  }

  // Generic pipelined op: n_instr instructions, result after `result_lat`.
  uint64_t op(uint32_t n_instr, uint64_t dep_a = 0, uint64_t dep_b = 0,
              uint32_t result_lat = 1, Sl sl = Sl::current()) {
    const uint64_t at = issue(sl, n_instr, dep_a, dep_b);
    return at + (n_instr - 1) + result_lat;
  }

  // Complex Q15 MAC: one SIMD complex multiply-accumulate instruction
  // (PULP Xpulpimg-style pv.cplxmul) through the pipelined multiplier.
  uint64_t cmac(uint64_t dep_a = 0, uint64_t dep_b = 0, Sl sl = Sl::current()) {
    return op(1, dep_a, dep_b, cfg->mul_latency, sl);
  }
  // Complex Q15 multiply with rounding to a packed 16-bit result: the
  // complex multiply plus a round/normalize op.
  uint64_t cmul(uint64_t dep_a = 0, uint64_t dep_b = 0, Sl sl = Sl::current()) {
    return op(2, dep_a, dep_b, cfg->mul_latency, sl);
  }
  // Packed complex add/sub/shift: one SIMD instruction.
  uint64_t cadd(uint64_t dep_a = 0, uint64_t dep_b = 0, Sl sl = Sl::current()) {
    return op(1, dep_a, dep_b, 1, sl);
  }
  // Scalar multiply.
  uint64_t mul(uint64_t dep_a = 0, uint64_t dep_b = 0, Sl sl = Sl::current()) {
    return op(1, dep_a, dep_b, cfg->mul_latency, sl);
  }
  // Scalar divide on the non-pipelined external unit.
  uint64_t div(uint64_t dep_a = 0, uint64_t dep_b = 0, Sl sl = Sl::current());

  // ---- memory operations (suspension points) ----

  struct Mem_awaiter {
    Core& c;
    // True (no suspension) when the machine can service this access
    // synchronously: with no scheduled event anywhere, the event loop would
    // next process exactly this access, so servicing it inline is the same
    // (cycle, insertion) order without a coroutine round trip.
    bool await_ready() const noexcept;
    void await_suspend(std::coroutine_handle<>) const noexcept;
    Tok await_resume() const noexcept { return c.pending_result; }
  };

  Mem_awaiter load(arch::addr_t a, Sl sl = Sl::current()) {
    return mem_op(Pending::Kind::load, a, 0, 0, sl);
  }
  Mem_awaiter store(arch::addr_t a, uint32_t value, uint64_t dep = 0,
                    Sl sl = Sl::current()) {
    return mem_op(Pending::Kind::store, a, value, dep, sl);
  }
  Mem_awaiter amo_add(arch::addr_t a, uint32_t add, Sl sl = Sl::current()) {
    return mem_op(Pending::Kind::amo, a, add, 0, sl);
  }

  // ---- synchronization ----

  struct Wfi_awaiter {
    Core& c;
    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<>) noexcept;
    void await_resume() const noexcept {}
  };

  // Sleep until a wake-up trigger (one WFI instruction, then idle cycles are
  // counted as WFI stalls).
  Wfi_awaiter wfi(Sl sl = Sl::current()) {
    issue(sl, 1, 0, 0);  // the WFI instruction itself
    return Wfi_awaiter{*this};
  }

  // Write the wake-up CSR(s) asserting `set`; one instruction per CSR write.
  void csr_wake(const Wake_set& set, Sl sl = Sl::current());

  // ---- state (managed by Machine; kernels only read `t`) ----
  // Laid out by access frequency on 64-byte lines (Core is line-aligned,
  // 384 bytes): line 0 holds what every issue and every event dispatch
  // reads, line 1 the memory op in flight, line 2 the L0 tags, line 3 the
  // L0 geometry, stall counters and divider, lines 4-5 the LSU completion
  // times (line 5 only past depth 8).
  uint64_t t = 0;  // local clock (>= machine time at suspension points)
  uint64_t instrs = 0;
  Machine* machine = nullptr;
  const arch::Cluster_config* cfg = nullptr;
  // memoized latency row of this core's tile (arch::Route_cache)
  const uint8_t* lat_row = nullptr;
  std::coroutine_handle<> active{};
  arch::core_id id = 0;
  bool finished = true;
  bool sleeping = false;
  bool pending_wake = false;
  Prog root;

  struct Pending {
    uint64_t issue_t = 0;
    arch::addr_t addr = 0;
    uint32_t value = 0;
    uint32_t lsu_slot = 0;
    // Route resolution (bank + load-to-use latency), computed at issue time:
    // a pure function of the address and the issuing core's tile, so moving
    // it out of service keeps cycles identical while letting the fast path
    // consult the bank before deciding how to service the access.
    arch::bank_id bank = 0;
    uint32_t lat = 0;
    enum class Kind : uint8_t { none, load, store, amo } kind = Kind::none;
  };
  Pending pending;
  Tok pending_result;
  uint64_t sleep_since = 0;
  uint64_t wake_at = std::numeric_limits<uint64_t>::max();

  // instruction fetch
  L0_icache l0;

  std::array<uint64_t, n_stall_kinds> stalls{};

  // divider
  uint64_t div_free = 0;

  // LSU
  static constexpr uint32_t max_lsu_depth = 16;
  std::array<uint64_t, max_lsu_depth> lsu_done{};

  void stall(Stall k, uint64_t n) { stalls[static_cast<size_t>(k)] += n; }

 private:
  friend class Machine;

  // Issue n_instr instructions; returns the cycle of the first one.
  // Inline: a run of compute issues between two suspension points compiles
  // to straight-line arithmetic on `t` - the fast path's op batching.
  uint64_t issue(const Sl& sl, uint32_t n_instr, uint64_t dep_a,
                 uint64_t dep_b);

  // Reserve an LSU slot, stalling if the queue is full; returns slot index.
  uint32_t lsu_acquire() {
    const uint32_t depth = cfg->lsu_depth;  // 1..max_lsu_depth (Machine checks)
    uint32_t in_flight = 0;
    uint32_t free_slot = depth;
    uint64_t earliest = std::numeric_limits<uint64_t>::max();
    uint32_t earliest_slot = 0;
    for (uint32_t i = 0; i < depth; ++i) {
      if (lsu_done[i] > t) {
        ++in_flight;
        if (lsu_done[i] < earliest) {
          earliest = lsu_done[i];
          earliest_slot = i;
        }
      } else {
        free_slot = i;
      }
    }
    if (in_flight == depth) {
      stall(Stall::lsu, earliest - t);
      t = earliest;
      return earliest_slot;
    }
    return free_slot;
  }

  Mem_awaiter mem_op(Pending::Kind k, arch::addr_t a, uint32_t value,
                     uint64_t dep, const Sl& sl) {
    PP_CHECK(pending.kind == Pending::Kind::none,
             "core issued a memory op while one is pending");
    const uint32_t slot = lsu_acquire();
    const uint64_t at = issue(sl, 1, dep, 0);
    pending = Pending{
        .issue_t = at, .addr = a, .value = value, .lsu_slot = slot, .kind = k};
    resolve_route();
    return Mem_awaiter{*this};
  }

  // Fill pending.bank / pending.lat from pending.addr (defined after
  // Machine: needs the route cache / address map).
  void resolve_route();
};

class Machine {
 public:
  Machine(const arch::Cluster_config& cfg);

  const arch::Cluster_config& config() const { return cfg_; }
  const arch::Address_map& map() const { return map_; }
  Memory& mem() { return mem_; }
  const Memory& mem() const { return mem_; }
  Core& core(arch::core_id c) { return cores_[c]; }
  uint64_t now() const { return now_; }

  // Pre-batching reference scheduler (the differential suite's anchor):
  // tick the global clock cycle by cycle and resolve addresses through the
  // general arch math instead of the Route_cache.  Selected per machine, or
  // process-wide via SIM_REFERENCE_LOOP=1 in the environment.
  bool reference_loop() const { return reference_loop_; }
  void set_reference_loop(bool on) {
    reference_loop_ = on;
    fast_route_ = route_.fast() && !on;
  }
  // The process-wide SIM_REFERENCE_LOOP selection new machines start with.
  static bool env_reference_loop();

  // The event ring's horizon in cycles.  An event scheduled at least this
  // far ahead of the global clock waits in the order-preserving far queue
  // until the clock catches up.  Sized to the measured event horizon: every
  // FFT, MMM, CHE, NE and Gram launch schedules over 99.9% of its events
  // less than 64 cycles ahead and all but at most 64 per launch less than
  // 256, so the ring's buckets are reused every 256 cycles instead of
  // growing one fresh vector per simulated cycle.  Besides those few, the
  // far queue holds owner run-ahead to a closing barrier (the Cholesky and
  // trisolve kernels: ~1k events per launch) and wake-ups behind a
  // per-core CSR write train longer than the horizon.
  static constexpr size_t ring_bits = 8;
  static constexpr size_t ring_size = size_t{1} << ring_bits;  // 256 cycles

  // ---- program execution ----
  struct Launch {
    arch::core_id core;
    Prog prog;
  };

  // Run the given programs to completion (all launched at the same cycle)
  // and return the aggregated kernel report.
  Kernel_report run_programs(std::string label, std::vector<Launch> launches);

  // ---- services used by Core (public for awaiters) ----
  void schedule(arch::core_id c, uint64_t at) {
    PP_CHECK(at >= now_, "event scheduled in the past");
    ++pending_events_;
    // Both queues bound the synchronous-service shortcut: a parked event
    // must deny a grant past its cycle exactly as a ring event does.
    earliest_pending_ = std::min(earliest_pending_, at);
    if (at - now_ >= ring_size) [[unlikely]] {
      // Beyond the ring horizon (a core far ahead of the global clock via
      // exclusive-bank runs, or a wake-up behind a long CSR write train):
      // park it in the far queue until now_ catches up.
      far_.push_back({at, c});
      far_min_ = std::min(far_min_, at);
      return;
    }
    // Order exactness: a parked event at a cycle <= `at` must enter its
    // bucket before this one (same-cycle events drain in insertion order).
    if (far_min_ <= at) [[unlikely]] flush_far();
    const size_t slot = at & (ring_size - 1);
    buckets_[slot].push_back(c);
    occ_[slot >> 6] |= uint64_t{1} << (slot & 63);
    ++ring_events_;
  }
  void wake(const Wake_set& set, uint64_t at);
  Site_registry& sites() { return sites_; }

  // ---- bank ownership (fast-path batching contract) ----
  // Declares that, for the next launch, core c is the only core that touches
  // bank b *while it is still executing* (folded per-core layouts whose sole
  // shared structure is one closing barrier).  The fast path then services
  // the owner's accesses inline in program order - exact, because up to the
  // owner's WFI the per-bank service order *is* the owner's program order,
  // and the non-owner accesses that remain (the barrier arrivals, plus the
  // last arrival's counter reset) are denied the shortcut, parked at their
  // issue cycles during the spawn bucket's drain, and therefore serviced in
  // launch order - the same order the reference scheduler produces for
  // cores with identical per-core timing.  Corollary: every owner must reach
  // its barrier op without suspending (own its whole data footprint,
  // counter bank included for the barrier master), and the launch vector
  // must list cores in ascending order.  The machine checks the contract on
  // every access (a foreign access while the owner still runs is a hard
  // error: it could change reported cycles) and clears all declarations
  // when the launch returns.  The reference loop keeps servicing through
  // the event queue, so the differential suite checks the declarations'
  // cycle-neutrality.
  void set_bank_owner(arch::bank_id b, arch::core_id c) {
    bank_owner_[b] = static_cast<int32_t>(c);
  }
  void reset_bank_owners() {
    std::fill(bank_owner_.begin(), bank_owner_.end(), -1);
  }

  // Service the issuing core's pending access immediately when that is
  // provably order-exact:
  //  * the access hits a bank the core owns exclusively (see
  //    set_bank_owner): per-bank service order is the owner's program order
  //    regardless of every other pending event, so the core may run
  //    arbitrarily far ahead of the global clock (which must NOT advance);
  //  * or the event loop would process exactly this access next - no event
  //    scheduled anywhere (single-active-core phases: serial baselines,
  //    kernel prologues, barrier stragglers), or every scheduled event sits
  //    strictly after the access's issue cycle (earliest_pending_ is a lower
  //    bound, so a stale value only denies the shortcut, never grants it
  //    wrongly); then now_ advances to the issue cycle as the loop would
  //    have.
  // Returns false (caller must suspend) otherwise, and always under the
  // reference loop.
  bool try_service_sync(Core& c) {
    if (reference_loop_) return false;
    if (bank_owner_[c.pending.bank] == static_cast<int32_t>(c.id)) {
      service_mem(c);
      return true;
    }
    if (pending_events_ == 0) {
      earliest_pending_ = std::numeric_limits<uint64_t>::max();
    } else if (c.pending.issue_t >= earliest_pending_) {
      return false;
    }
    now_ = std::max(now_, c.pending.issue_t);
    service_mem(c);
    return true;
  }

 private:
  void run();
  void run_reference();
  void drain_bucket();  // dispatch one cycle's bucket, including appends
  void dispatch(Core& c);
  void service_mem(Core& c);
  // Advance now_ to the next cycle holding a scheduled event (the WFI /
  // compute-ahead skip); requires pending_events_ > 0.
  void skip_to_next_event();
  // Move far-queue events whose cycle fits the ring into their buckets.
  void flush_far();

  arch::Cluster_config cfg_;
  arch::Address_map map_;
  arch::Route_cache route_;
  Memory mem_;
  std::vector<Core> cores_;
  Site_registry sites_;

  // Per-bank epoch counters: the cycle after each bank's last arbitration
  // win ("one access per bank per cycle" as a single flat table).
  std::vector<uint64_t> bank_epoch_;
  // Exclusive owner of each bank for the current launch (-1 = shared).
  std::vector<int32_t> bank_owner_;

  uint64_t now_ = 0;
  uint64_t pending_events_ = 0;  // ring_events_ + far_.size()
  uint64_t ring_events_ = 0;
  // Lower bound on the earliest scheduled event's cycle (exact after every
  // skip_to_next_event; schedule() keeps it a bound in between).  Gates the
  // synchronous-service shortcut.
  uint64_t earliest_pending_ = std::numeric_limits<uint64_t>::max();
  uint32_t unfinished_ = 0;
  // The cluster's wake-up CSR unit accepts one trigger per cycle: gangs
  // finishing barriers simultaneously contend here (the paper's observation
  // that larger clusters see more synchronization overhead).
  uint64_t csr_unit_free_ = 0;

  bool reference_loop_ = false;
  bool fast_route_ = false;  // route_.fast() && !reference_loop_

  static constexpr size_t occ_words = ring_size / 64;
  // One bucket per ring cycle, reused every ring_size cycles: a bucket's
  // capacity settles at its busiest cycle's event count, so a launch stops
  // allocating once every bucket has seen a busy cycle.
  std::vector<std::vector<arch::core_id>> buckets_;
  // Occupancy bitmap over the ring buckets: bit b set iff buckets_[b] holds
  // at least one event.  Lets run() jump over empty cycles in O(words).
  std::array<uint64_t, occ_words> occ_{};
  // Events scheduled beyond the ring horizon, waiting for now_ to catch up.
  std::vector<std::pair<uint64_t, arch::core_id>> far_;
  uint64_t far_min_ = std::numeric_limits<uint64_t>::max();

  friend class Core;
  friend struct Prog::promise_type;
};

// ---- Core fast-path definitions (inline into kernel translation units) ----

inline uint64_t Core::issue(const Sl& sl, uint32_t n_instr, uint64_t dep_a,
                            uint64_t dep_b) {
  // Instruction fetch: refill missing L0 lines from the shared L1 I$.
  const uint32_t first_slot = machine->sites().lookup(sl, n_instr);
  const uint32_t misses = l0.touch(first_slot, n_instr);
  if (misses != 0) {
    const uint64_t pen =
        static_cast<uint64_t>(misses) * cfg->icache_refill_cycles;
    stall(Stall::icache, pen);
    t += pen;
  }
  // RAW: wait for operands.
  const uint64_t dep = std::max(dep_a, dep_b);
  if (dep > t) {
    stall(Stall::raw, dep - t);
    t = dep;
  }
  const uint64_t at = t;
  instrs += n_instr;
  t += n_instr;
  return at;
}

inline uint64_t Core::div(uint64_t dep_a, uint64_t dep_b, Sl sl) {
  // The divider is not pipelined: a second divide stalls until it frees up.
  const uint64_t dep = std::max(dep_a, dep_b);
  if (dep > t) {
    stall(Stall::raw, dep - t);
    t = dep;
  }
  if (div_free > t) {
    stall(Stall::extunit, div_free - t);
    t = div_free;
  }
  const uint64_t at = issue(sl, 1, 0, 0);
  div_free = at + cfg->div_latency;
  return at + cfg->div_latency;
}

inline void Core::resolve_route() {
  Machine& m = *machine;
  if (m.fast_route_) {
    pending.bank = m.route_.bank_of(pending.addr);
    pending.lat = m.route_.latency(lat_row, pending.bank);
  } else {
    pending.bank = m.map_.bank_of(pending.addr);
    pending.lat = m.cfg_.load_use_latency(m.cfg_.locality(id, pending.bank));
  }
}

inline bool Core::Mem_awaiter::await_ready() const noexcept {
  return c.machine->try_service_sync(c);
}

inline void Core::Mem_awaiter::await_suspend(
    std::coroutine_handle<>) const noexcept {
  c.machine->schedule(c.id, c.pending.issue_t);
}

}  // namespace pp::sim

#endif  // PUSCHPOOL_SIM_MACHINE_H
