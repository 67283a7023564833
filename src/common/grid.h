#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/check.h"

namespace pp::common {

// Workspace growth primitive: size a reusable vector to exactly n elements
// while guaranteeing capacity only ever moves up, geometrically.  A plain
// resize(n) above capacity grows to exactly n, so a slowly increasing
// shape sequence reallocates on every step; ws_grow doubles instead, which
// is what lets workspaces reach a stable footprint after a bounded number
// of slots ("grow, then stabilize" - docs/DETERMINISM.md §10).  Shrinking
// n never releases storage.
template <typename T>
void ws_grow(std::vector<T>& v, size_t n) {
  if (n > v.capacity()) {
    v.reserve(n > 2 * v.capacity() ? n : 2 * v.capacity());
  }
  v.resize(n);
}

// Flat strided 2-D grid over a single ws_grow-managed vector.  Replaces
// the nested vector-of-vector buffers on the slot hot path: one backing
// allocation instead of rows+1, rows exposed as spans, and reshaping to
// any (rows x cols) that fits the high-water footprint is allocation-free.
// Row r occupies [r*cols, (r+1)*cols) - contiguous, so flat consumers can
// use data() directly.
template <typename T>
class Ws_grid {
 public:
  Ws_grid() = default;
  Ws_grid(size_t rows, size_t cols) { shape(rows, cols); }

  // Size to rows x cols; contents are unspecified until written (callers
  // must fully overwrite every row they read back - the workspace
  // non-interference rule).
  void shape(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    ws_grow(flat_, rows * cols);
  }

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  std::span<T> row(size_t r) {
    PP_CHECK(r < rows_, "Ws_grid row out of range");
    return {flat_.data() + r * cols_, cols_};
  }
  std::span<const T> row(size_t r) const {
    PP_CHECK(r < rows_, "Ws_grid row out of range");
    return {flat_.data() + r * cols_, cols_};
  }

  T& at(size_t r, size_t c) { return flat_[r * cols_ + c]; }
  const T& at(size_t r, size_t c) const { return flat_[r * cols_ + c]; }

  T* data() { return flat_.data(); }
  const T* data() const { return flat_.data(); }

  // Capacity actually held by the backing store, in bytes - the
  // growth-then-stable tests pin this across repeat runs.
  size_t footprint_bytes() const { return flat_.capacity() * sizeof(T); }

 private:
  std::vector<T> flat_;
  size_t rows_ = 0;
  size_t cols_ = 0;
};

// Footprint of a nested buffer (outer capacity + every inner capacity) -
// the unit the growth-then-stable tests pin.
template <typename T>
size_t ws_rows_footprint(const std::vector<std::vector<T>>& v) {
  size_t b = v.capacity() * sizeof(std::vector<T>);
  for (const auto& row : v) b += row.capacity() * sizeof(T);
  return b;
}

}  // namespace pp::common
