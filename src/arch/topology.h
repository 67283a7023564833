// Cluster topology for MemPool and TeraPool (paper §III, Fig. 4).
//
// Hierarchy: cluster → groups → tiles → cores, with 4 L1 banks per core
// (16 banks/tile in MemPool, 32 in TeraPool; 1 KiB per bank).  Cores reach
// banks in their own tile in 1 cycle, banks of other tiles in the same group
// in 3 cycles, and banks in remote groups in 5 cycles.
#ifndef PUSCHPOOL_ARCH_TOPOLOGY_H
#define PUSCHPOOL_ARCH_TOPOLOGY_H

#include <cstdint>
#include <string>

namespace pp::arch {

using core_id = uint32_t;
using tile_id = uint32_t;
using group_id = uint32_t;
using bank_id = uint32_t;

// Physical proximity of a (core, bank) pair; decides the access latency.
enum class Locality { tile, group, remote };

struct Cluster_config {
  std::string name = "mempool";
  uint32_t n_groups = 4;
  uint32_t tiles_per_group = 16;
  uint32_t cores_per_tile = 4;
  uint32_t banks_per_core = 4;
  uint32_t bank_words = 256;  // 1 KiB banks, 32-bit words

  // Load-to-use latencies in cycles (paper Fig. 4b).
  uint32_t lat_tile = 1;
  uint32_t lat_group = 3;
  uint32_t lat_remote = 5;

  // Instruction-fetch model: L0 capacity (instructions) and refill penalty.
  uint32_t l0_icache_instrs = 64;
  uint32_t icache_refill_cycles = 3;

  // External pipelined units (paper: RAW stalls on mul/div outputs).
  uint32_t mul_latency = 3;  // pipelined
  // Non-pipelined divider; 8 cycles for 16-bit operands (2 bits/cycle SRT).
  uint32_t div_latency = 8;

  // Domain-specific ISA extension (paper §VI future work): a fused radix-4
  // butterfly add-network instruction pair replacing the SIMD add/sub/shift
  // sequence.  Off by default (the paper's measured configuration).
  bool isa_fused_butterfly = false;
  // LSU queue depth (paper: up to 8 outstanding transactions).
  uint32_t lsu_depth = 8;
  // Cycles between a wake-up CSR write and the target cores resuming.
  uint32_t wakeup_latency = 3;

  // --- derived sizes ---
  uint32_t n_tiles() const { return n_groups * tiles_per_group; }
  uint32_t n_cores() const { return n_tiles() * cores_per_tile; }
  uint32_t banks_per_tile() const { return cores_per_tile * banks_per_core; }
  uint32_t n_banks() const { return n_tiles() * banks_per_tile(); }
  uint64_t l1_words() const {
    return static_cast<uint64_t>(n_banks()) * bank_words;
  }

  // --- index math ---
  tile_id tile_of_core(core_id c) const { return c / cores_per_tile; }
  group_id group_of_core(core_id c) const {
    return tile_of_core(c) / tiles_per_group;
  }
  tile_id tile_of_bank(bank_id b) const { return b / banks_per_tile(); }
  group_id group_of_bank(bank_id b) const {
    return tile_of_bank(b) / tiles_per_group;
  }
  // The four banks directly local to a core sit in its tile, contiguously:
  // tile(c) * banks_per_tile + (c % cores_per_tile) * banks_per_core, which
  // tile-major numbering makes exactly c * banks_per_core.
  bank_id first_local_bank(core_id c) const { return c * banks_per_core; }

  Locality locality(core_id c, bank_id b) const {
    if (tile_of_core(c) == tile_of_bank(b)) return Locality::tile;
    if (group_of_core(c) == group_of_bank(b)) return Locality::group;
    return Locality::remote;
  }

  uint32_t load_use_latency(Locality l) const {
    switch (l) {
      case Locality::tile: return lat_tile;
      case Locality::group: return lat_group;
      default: return lat_remote;
    }
  }

  // --- presets ---
  static Cluster_config mempool();
  static Cluster_config terapool();
  // A small configuration (4 tiles of 4 cores) for fast unit tests.
  static Cluster_config minipool();
};

}  // namespace pp::arch

#endif  // PUSCHPOOL_ARCH_TOPOLOGY_H
