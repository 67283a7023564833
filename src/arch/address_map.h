// L1 address map and allocator.
//
// Addresses are 32-bit *word* indices.  The canonical map is word-level
// interleaving across all banks of the cluster (MemPool's default):
//
//   addr = row * n_banks + bank      (row = offset inside the bank)
//
// Kernels that need *placed* data (the paper's folded FFT layout, Cholesky
// row folding, per-core scratch) compute addresses with bank_word(), which
// pins a word to a chosen (bank, row).  The allocator hands out disjoint row
// ranges so placed and interleaved allocations never collide.
#ifndef PUSCHPOOL_ARCH_ADDRESS_MAP_H
#define PUSCHPOOL_ARCH_ADDRESS_MAP_H

#include <cstdint>
#include <vector>

#include "arch/topology.h"
#include "common/check.h"

namespace pp::arch {

using addr_t = uint32_t;

class Address_map {
 public:
  explicit Address_map(const Cluster_config& cfg) : cfg_(&cfg) {}
  // Holds a pointer to the config: a temporary would dangle.
  explicit Address_map(const Cluster_config&&) = delete;

  bank_id bank_of(addr_t a) const { return a % cfg_->n_banks(); }
  uint32_t row_of(addr_t a) const { return a / cfg_->n_banks(); }

  // Address of a word pinned to (bank, row).
  addr_t bank_word(bank_id b, uint32_t row) const {
    return row * cfg_->n_banks() + b;
  }

  // Address of the s-th word of core c's private scratch rows: the word lives
  // in the core's local bank (s % banks_per_core), at row base_row + s/bpc.
  addr_t core_word(core_id c, uint32_t base_row, uint32_t s) const {
    const bank_id b = cfg_->first_local_bank(c) + s % cfg_->banks_per_core;
    return bank_word(b, base_row + s / cfg_->banks_per_core);
  }

  const Cluster_config& config() const { return *cfg_; }

 private:
  const Cluster_config* cfg_;
};

// Row-granular L1 allocator.  Interleaved arrays consume whole rows across
// all banks; placed (row) allocations reserve a row range that kernels
// address via Address_map::bank_word / core_word.
class L1_alloc {
 public:
  explicit L1_alloc(const Cluster_config& cfg) : cfg_(&cfg), map_(cfg) {}
  // Holds a pointer to the config: a temporary would dangle.
  explicit L1_alloc(const Cluster_config&&) = delete;

  // Allocate an interleaved array of n words; returns its base address
  // (always at bank 0 of a fresh row).
  addr_t alloc(uint64_t n_words) {
    const uint32_t rows =
        static_cast<uint32_t>((n_words + cfg_->n_banks() - 1) / cfg_->n_banks());
    return map_.bank_word(0, take_rows(rows));
  }

  // Reserve n_rows rows across every bank for placed data; returns the first
  // row index.
  uint32_t alloc_rows(uint32_t n_rows) { return take_rows(n_rows); }

  // Allocate a single word pinned to bank b (used for barrier counters and
  // per-core flags).  Scratch rows are shared across banks so hundreds of
  // such words cost only a few rows.
  addr_t alloc_word(bank_id b) {
    if (scratch_next_.empty()) scratch_next_.assign(cfg_->n_banks(), 0);
    const uint32_t i = scratch_next_[b]++;
    if (i >= scratch_rows_.size()) scratch_rows_.push_back(take_rows(1));
    return map_.bank_word(b, scratch_rows_[i]);
  }

  uint32_t rows_used() const { return next_row_; }
  void reset() { next_row_ = 0; }

  const Address_map& map() const { return map_; }

 private:
  uint32_t take_rows(uint32_t n_rows) {
    PP_CHECK(next_row_ + n_rows <= cfg_->bank_words,
             "L1 allocation exceeds cluster SRAM capacity");
    const uint32_t r = next_row_;
    next_row_ += n_rows;
    return r;
  }

  const Cluster_config* cfg_;
  Address_map map_;
  uint32_t next_row_ = 0;
  std::vector<uint32_t> scratch_rows_;
  std::vector<uint32_t> scratch_next_;
};

}  // namespace pp::arch

#endif  // PUSCHPOOL_ARCH_ADDRESS_MAP_H
