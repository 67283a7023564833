// Instruction-fetch model.
//
// Kernel code is not compiled to RISC-V here, so static code layout is
// reconstructed from C++ call sites: the first time a call site issues, the
// registry assigns it consecutive "slots" in a virtual code image (one slot
// per instruction, in first-execution order, which approximates program
// order).  Slots group into 4-instruction lines; each core has a small
// direct-mapped L0 cache of lines and pays a refill penalty per missing line
// (hit in the shared per-tile L1 I$).  Loop bodies that fit in L0 hit after
// the first iteration, so cores executing few iterations show a larger
// instruction-stall fraction - the effect the paper reports for TeraPool.
//
// Both structures sit on the simulator's per-instruction fast path
// (Core::issue), so they are sized to stay cache-resident: the site table is
// 4096 entries (the check fires at 2047 live sites; the whole kernel corpus
// registers a few hundred) behind a 256-entry direct-mapped memo, and the
// L0 tags live inline in the core when the configured capacity fits (64
// instructions -> 16 lines in every preset).  None of these choices is
// observable in simulated cycles: slot numbers depend only on first-use
// order, and the tag array's content is identical either way.
#ifndef PUSCHPOOL_SIM_ICACHE_H
#define PUSCHPOOL_SIM_ICACHE_H

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <source_location>
#include <type_traits>
#include <vector>

#include "common/check.h"

namespace pp::sim {

inline constexpr uint32_t icache_line_instrs = 4;

// Maps C++ call sites to slot ranges of the virtual code image.
class Site_registry {
 public:
  Site_registry() : table_(capacity) {}

  // First slot of this site; registers `n_instrs` consecutive slots on first
  // use.  A direct-mapped memo keyed on the call site's identity answers
  // almost every issue without hashing the site or probing the table; a
  // memo miss takes the table path, so slots still follow first-use order.
  uint32_t lookup(const std::source_location& sl, uint32_t n_instrs) {
    const uintptr_t id = std::bit_cast<uintptr_t>(sl);
    Memo& m = memo_[(id * 0x9e3779b97f4a7c15ull) >> (64 - memo_bits)];
    if (m.id == id) [[likely]] return m.first_slot;
    m = {id, find(sl, n_instrs)};
    return m.first_slot;
  }

 private:
  // libstdc++ and libc++ represent a source_location as one pointer to a
  // static per-call-site record, which the memo uses as the site's identity.
  static_assert(sizeof(std::source_location) == sizeof(uintptr_t) &&
                std::is_trivially_copyable_v<std::source_location>);

  uint32_t find(const std::source_location& sl, uint32_t n_instrs) {
    uint64_t key = reinterpret_cast<uint64_t>(sl.file_name());
    key = key * 1000003u + static_cast<uint64_t>(sl.line()) * 97u + sl.column();
    key |= 1;  // never 0 (0 marks an empty table entry)
    size_t i = (key * 0x9e3779b97f4a7c15ull >> 32) & (capacity - 1);
    while (true) {
      Entry& e = table_[i];
      if (e.key == key) return e.first_slot;
      if (e.key == 0) return miss(e, key, n_instrs);
      i = (i + 1) & (capacity - 1);
    }
  }

  struct Entry {
    uint64_t key = 0;
    uint32_t first_slot = 0;
  };
  struct Memo {
    uintptr_t id = ~uintptr_t{0};  // no call site's record lives here
    uint32_t first_slot = 0;
  };

  // First execution of a call site: assign the next consecutive slot range.
  uint32_t miss(Entry& e, uint64_t key, uint32_t n_instrs) {
    PP_CHECK(used_ + 1 < capacity / 2, "site registry overflow");
    ++used_;
    e.key = key;
    e.first_slot = next_slot_;
    next_slot_ += n_instrs;
    return e.first_slot;
  }

  static constexpr size_t capacity = 1 << 12;
  static constexpr unsigned memo_bits = 8;
  std::array<Memo, size_t{1} << memo_bits> memo_;
  std::vector<Entry> table_;
  size_t used_ = 0;
  uint32_t next_slot_ = 0;
};

// Per-core L0 instruction cache (direct-mapped, line-grained).
class L0_icache {
 public:
  void configure(uint32_t n_instrs) {
    n_lines_ = n_instrs / icache_line_instrs;
    if (n_lines_ == 0) n_lines_ = 1;
    pow2_mask_ = (n_lines_ & (n_lines_ - 1)) == 0 ? n_lines_ - 1 : 0u;
    inline_.fill(~0u);
    heap_.reset();
    if (n_lines_ > inline_lines) {
      heap_ = std::make_unique<uint32_t[]>(n_lines_);
      std::fill_n(heap_.get(), n_lines_, ~0u);
    }
  }

  // Touch the lines covering slots [first, first + n); returns missing lines.
  uint32_t touch(uint32_t first_slot, uint32_t n_instrs) {
    uint32_t* tags = heap_ ? heap_.get() : inline_.data();
    const uint32_t first_line = first_slot / icache_line_instrs;
    const uint32_t last_line = (first_slot + n_instrs - 1) / icache_line_instrs;
    if (first_line == last_line) [[likely]] {
      // Single-line issue (almost every op: ops span <= 4 slots).
      uint32_t& tag = tags[index(first_line)];
      if (tag == first_line) return 0;
      tag = first_line;
      return 1;
    }
    uint32_t misses = 0;
    for (uint32_t line = first_line; line <= last_line; ++line) {
      uint32_t& tag = tags[index(line)];
      if (tag != line) {
        tag = line;
        ++misses;
      }
    }
    return misses;
  }

 private:
  uint32_t index(uint32_t line) const {
    return pow2_mask_ ? (line & pow2_mask_) : (line % n_lines_);
  }

  // Every preset configures 64 instructions -> 16 lines, whose tags fill
  // exactly one 64-byte line inline in the Core (no heap indirection per
  // issue); larger configs spill to the heap.
  static constexpr uint32_t inline_lines = 16;
  std::array<uint32_t, inline_lines> inline_{
      []() consteval {
        std::array<uint32_t, inline_lines> a{};
        a.fill(~0u);
        return a;
      }()};
  uint32_t n_lines_ = 16;
  uint32_t pow2_mask_ = 15;
  std::unique_ptr<uint32_t[]> heap_;
};

}  // namespace pp::sim

#endif  // PUSCHPOOL_SIM_ICACHE_H
