#include "sim/machine.h"

#include <bit>
#include <cstdlib>

namespace pp::sim {

// Process-wide opt-out of the batching fast path: SIM_REFERENCE_LOOP=1 (any
// value but "0") makes every Machine run the pre-batching scheduler.  The
// differential suite uses this to hold an unmodified binary's cycles against
// the fast path's.
bool Machine::env_reference_loop() {
  const char* v = std::getenv("SIM_REFERENCE_LOOP");
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

// ---------------------------------------------------------------------------
// Core: cold paths (wake CSR write, WFI suspension)
// ---------------------------------------------------------------------------

void Core::csr_wake(const Wake_set& set, Sl sl) {
  const uint32_t writes = set.n_csr_writes();
  const uint64_t at = issue(sl, writes, 0, 0);
  machine->wake(set, at + (writes - 1) + cfg->wakeup_latency);
}

bool Core::Wfi_awaiter::await_suspend(std::coroutine_handle<>) noexcept {
  if (c.pending_wake) {
    // A trigger arrived while we were still running: fall through.
    const uint64_t eff = std::max(c.wake_at, c.t);
    if (eff > c.t) {
      c.stall(Stall::wfi, eff - c.t);
      c.t = eff;
    }
    c.pending_wake = false;
    c.wake_at = std::numeric_limits<uint64_t>::max();
    return false;  // do not suspend
  }
  c.sleeping = true;
  c.sleep_since = c.t;
  return true;
}

// ---------------------------------------------------------------------------
// Prog: symmetric transfer glue (needs Core definition)
// ---------------------------------------------------------------------------

std::coroutine_handle<> Prog::promise_type::Final_awaiter::await_suspend(
    std::coroutine_handle<promise_type> h) noexcept {
  promise_type& pr = h.promise();
  if (pr.cont) {
    pr.core->active = pr.cont;
    return pr.cont;
  }
  // Root program finished.
  pr.core->finished = true;
  pr.core->active = {};
  --pr.core->machine->unfinished_;
  return std::noop_coroutine();
}

std::coroutine_handle<> Prog::Sub_awaiter::await_suspend(
    std::coroutine_handle<promise_type> parent) noexcept {
  child.promise().core = parent.promise().core;
  child.promise().cont = parent;
  child.promise().core->active = child;
  return child;
}

// ---------------------------------------------------------------------------
// Machine
// ---------------------------------------------------------------------------

Machine::Machine(const arch::Cluster_config& cfg)
    : cfg_(cfg), map_(cfg_), route_(cfg_), mem_(cfg_),
      cores_(cfg_.n_cores()), bank_epoch_(cfg_.n_banks(), 0u),
      bank_owner_(cfg_.n_banks(), -1), buckets_(ring_size) {
  // A 0-deep LSU would stall the first memory op forever; a depth past the
  // per-core completion table would silently simulate a shallower queue.
  PP_CHECK(cfg_.lsu_depth >= 1 && cfg_.lsu_depth <= Core::max_lsu_depth,
           "lsu_depth must be in [1, 16]: 0 admits no memory op, and the "
           "core tracks at most Core::max_lsu_depth outstanding ones");
  for (arch::core_id c = 0; c < cfg_.n_cores(); ++c) {
    cores_[c].id = c;
    cores_[c].cfg = &cfg_;
    cores_[c].machine = this;
    cores_[c].l0.configure(cfg_.l0_icache_instrs);
    if (route_.fast()) cores_[c].lat_row = route_.core_row(cfg_, c);
  }
  set_reference_loop(env_reference_loop());
}

void Machine::wake(const Wake_set& set, uint64_t at) {
  // Serialize concurrent triggers at the wake-up CSR unit.
  at = std::max(at, csr_unit_free_);
  csr_unit_free_ = at + 1;
  for (arch::core_id cid : set.resolve(cfg_)) {
    Core& k = cores_[cid];
    if (k.finished) continue;
    if (k.sleeping) {
      const uint64_t eff = std::max(at, k.sleep_since + 1);
      if (eff < k.wake_at) {
        k.wake_at = eff;
        schedule(cid, eff);
      }
    } else {
      k.pending_wake = true;
      k.wake_at = std::min(k.wake_at, at);
    }
  }
}

void Machine::dispatch(Core& c) {
  if (c.finished) return;  // stale event
  if (c.pending.kind != Core::Pending::Kind::none) {
    service_mem(c);
    c.active.resume();
    return;
  }
  if (c.sleeping) {
    if (c.wake_at != now_) return;  // stale wake event
    c.stall(Stall::wfi, now_ - c.sleep_since);
    c.t = now_;
    c.sleeping = false;
    c.wake_at = std::numeric_limits<uint64_t>::max();
    c.active.resume();
    return;
  }
  // Fresh start (spawn event).
  c.active.resume();
}

void Machine::service_mem(Core& c) {
  const Core::Pending p = c.pending;
  c.pending.kind = Core::Pending::Kind::none;

  const arch::bank_id bank = p.bank;  // resolved at issue (resolve_route)
  const uint32_t lat = p.lat;
  // Ownership contract check: a non-owner may touch an owned bank only for
  // the launch's closing barrier, i.e. once the owner is already parked in
  // WFI (or done).  A foreign access while the owner still executes means
  // the declaration was wrong and the inline fast path is unsound.
  PP_CHECK(bank_owner_[bank] < 0 ||
               bank_owner_[bank] == static_cast<int32_t>(c.id) ||
               cores_[static_cast<size_t>(bank_owner_[bank])].sleeping ||
               cores_[static_cast<size_t>(bank_owner_[bank])].finished,
           "bank-ownership contract violated: a core accessed an owned bank "
           "while its owner was still running (set_bank_owner declaration "
           "is wrong)");
  const uint32_t fwd = (lat - 1) / 2;  // request network hops
  const uint32_t ret = (lat - 1) / 2;  // response network hops

  const uint64_t arrive = p.issue_t + fwd;
  uint64_t& epoch = bank_epoch_[bank];
  const uint64_t serve = std::max(arrive, epoch);
  // One access per bank per cycle; amo read-modify-write is done by an
  // adder at the bank within its cycle.
  epoch = serve + 1;
  const uint64_t ready = serve + 1 + ret;

  uint32_t value = 0;
  switch (p.kind) {
    case Core::Pending::Kind::load:
      value = mem_.read(p.addr);
      c.lsu_done[p.lsu_slot] = ready;
      break;
    case Core::Pending::Kind::store:
      mem_.write(p.addr, p.value);
      c.lsu_done[p.lsu_slot] = serve + ret;  // ack
      break;
    case Core::Pending::Kind::amo: {
      value = mem_.read(p.addr);
      mem_.write(p.addr, value + p.value);
      c.lsu_done[p.lsu_slot] = ready;
      break;
    }
    default:
      PP_CHECK(false, "bad pending op");
  }
  c.pending_result = Tok{ready, value};
}

void Machine::drain_bucket() {
  const uint64_t cycle = now_;
  const size_t slot = cycle & (ring_size - 1);
  auto& bucket = buckets_[slot];
  // Dispatch may append same-cycle events; index loop handles growth.
  for (size_t i = 0; i < bucket.size(); ++i) {
    // Hide the cold-core/frame misses of upcoming events behind the current
    // dispatch: core i+2's state now, core i+1's coroutine frame (its Core
    // line is resident from the previous iteration's prefetch).
    if (i + 2 < bucket.size()) {
      const char* n = reinterpret_cast<const char*>(&cores_[bucket[i + 2]]);
      __builtin_prefetch(n);
      __builtin_prefetch(n + 64);
    }
    if (i + 1 < bucket.size()) {
      Core& n = cores_[bucket[i + 1]];
      if (n.active) __builtin_prefetch(n.active.address());
    }
    const arch::core_id cid = bucket[i];
    --pending_events_;
    --ring_events_;
    dispatch(cores_[cid]);
    if (now_ != cycle) {
      // A synchronous stretch (try_service_sync) advanced the clock past
      // this cycle.  It can only fire once no event is left in this bucket,
      // so everything dispatched so far belonged here and anything present
      // now was scheduled during the stretch for a future cycle that
      // aliases this ring slot: leave it (and the occupancy bit) in place.
      bucket.erase(bucket.begin(), bucket.begin() + i + 1);
      return;
    }
  }
  bucket.clear();
  occ_[slot >> 6] &= ~(uint64_t{1} << (slot & 63));
  ++now_;
}

void Machine::flush_far() {
  uint64_t rest_min = std::numeric_limits<uint64_t>::max();
  size_t kept = 0;
  for (auto& e : far_) {  // in place, preserving schedule order
    if (e.first - now_ < ring_size) {
      const size_t slot = e.first & (ring_size - 1);
      buckets_[slot].push_back(e.second);
      occ_[slot >> 6] |= uint64_t{1} << (slot & 63);
      earliest_pending_ = std::min(earliest_pending_, e.first);
      ++ring_events_;  // total pending_events_ unchanged: just moved
    } else {
      rest_min = std::min(rest_min, e.first);
      far_[kept++] = e;
    }
  }
  far_.resize(kept);
  far_min_ = rest_min;
}

void Machine::skip_to_next_event() {
  if (ring_events_ == 0) {
    // Every pending event lies beyond the ring horizon: jump straight to
    // the earliest (nothing can be scheduled in between).
    now_ = far_min_;
  }
  if (far_min_ - now_ < ring_size) [[unlikely]] flush_far();
  const size_t start = now_ & (ring_size - 1);
  size_t w = start >> 6;
  uint64_t word = occ_[w] & (~uint64_t{0} << (start & 63));
  size_t scanned = 0;
  while (word == 0) {
    w = (w + 1) & (occ_words - 1);
    PP_CHECK(++scanned <= occ_words, "scheduler bitmap lost an event");
    word = occ_[w];
  }
  const size_t slot = (w << 6) | static_cast<size_t>(std::countr_zero(word));
  // Every pending event lies in [now_, now_ + ring_size), so the first set
  // bit in circular order from `start` is the globally next event.
  now_ += (slot - start) & (ring_size - 1);
  // The scan just established the true minimum: refresh the bound that
  // gates synchronous service.
  earliest_pending_ = now_;
}

void Machine::run() {
  while (pending_events_ > 0) {
    skip_to_next_event();
    drain_bucket();
  }
  PP_CHECK(unfinished_ == 0,
           "simulation deadlock: programs still waiting with no events "
           "pending (barrier mismatch?)");
}

void Machine::run_reference() {
  // The pre-batching scheduler: tick every cycle, empty or not.
  while (pending_events_ > 0) {
    if (far_min_ - now_ < ring_size) [[unlikely]] flush_far();
    drain_bucket();
  }
  PP_CHECK(unfinished_ == 0,
           "simulation deadlock: programs still waiting with no events "
           "pending (barrier mismatch?)");
}

Kernel_report Machine::run_programs(std::string label,
                                    std::vector<Launch> launches) {
  const uint64_t t0 = now_;

  // Snapshot participating cores.
  std::vector<Core_counters> before(launches.size());
  for (size_t i = 0; i < launches.size(); ++i) {
    const Core& c = cores_[launches[i].core];
    before[i].instrs = c.instrs;
    before[i].stall = c.stalls;
  }

  for (Launch& l : launches) {
    Core& c = cores_[l.core];
    PP_CHECK(c.finished, "core already running a program");
    c.root = std::move(l.prog);
    c.root.handle().promise().core = &c;
    c.active = c.root.handle();
    c.finished = false;
    c.sleeping = false;
    c.pending_wake = false;
    c.wake_at = std::numeric_limits<uint64_t>::max();
    c.t = t0;
    ++unfinished_;
    schedule(l.core, t0);
  }

  if (reference_loop_) {
    run_reference();
  } else {
    run();
  }

  uint64_t t_end = t0;
  for (const Launch& l : launches) {
    t_end = std::max(t_end, cores_[l.core].t);
  }
  now_ = std::max(now_, t_end);

  Kernel_report r;
  r.label = std::move(label);
  r.cycles = t_end - t0;
  r.n_cores = static_cast<uint32_t>(launches.size());
  for (size_t i = 0; i < launches.size(); ++i) {
    Core& c = cores_[launches[i].core];
    const uint64_t di = c.instrs - before[i].instrs;
    r.instrs += di;
    uint64_t attributed = di;
    for (size_t k = 0; k < n_stall_kinds; ++k) {
      const uint64_t dk = c.stalls[k] - before[i].stall[k];
      r.stall[k] += dk;
      attributed += dk;
    }
    // A core that finished before t_end idles in WFI until the next join.
    const uint64_t window = r.cycles;
    PP_CHECK(attributed <= window, "cycle attribution exceeds window");
    r.stall[static_cast<size_t>(Stall::wfi)] += window - attributed;
    // Release the finished program's frame.
    c.root = Prog{};
  }
  // Exclusive-bank declarations cover exactly one launch.
  reset_bank_owners();
  return r;
}

}  // namespace pp::sim
