// Deadline-latency accounting for the streaming slot scheduler.
//
// Latency_histogram buckets per-slot latencies geometrically (octaves split
// into 16 linear sub-buckets, <= 1/16 relative quantization error) and
// answers percentile queries (p50/p99/p999) as the upper edge of the
// covering bucket.  Bucket assignment uses only exact binary floating-point
// operations (frexp + scaling by powers of two - no log/pow), so the same
// set of recorded values produces the same histogram on any host, and the
// counts are insertion-order independent; this is what lets the scheduler's
// virtual-time latency metrics gate the benchmark baseline
// (docs/DETERMINISM.md).
//
// Fcfs_clock is the deterministic multi-server queue model behind both the
// admission controller's predictor (admission.h) and the scheduler's
// deadline accounting: jobs offered in arrival order, each starting on the
// earliest-free server (ties to the lowest server id).  Completion times
// are a pure function of (arrivals, service times, server count) -
// independent of how many host workers actually executed the slots.
#ifndef PUSCHPOOL_RUNTIME_LATENCY_H
#define PUSCHPOOL_RUNTIME_LATENCY_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pp::runtime {

class Latency_histogram {
 public:
  // Bucket layout: octave groups for exponents 2^-21 .. 2^7 seconds
  // (~0.5 us to 128 s, clamped outside), 16 linear sub-buckets per octave.
  static constexpr int kMinExp = -20;  // first octave covers [2^-21, 2^-20)
  static constexpr int kMaxExp = 7;    // last octave covers [2^6, 2^7)
  static constexpr int kSub = 16;      // linear sub-buckets per octave
  static constexpr size_t kBuckets =
      static_cast<size_t>(kMaxExp - kMinExp + 1) * kSub;

  // Bucket of a latency value; underflow (including <= 0) clamps to bucket
  // 0, overflow to the last bucket.  Exact: frexp + Sterbenz subtraction.
  static size_t bucket_of(double seconds);
  // Upper edge of a bucket: 2^(e-1) * (17 + sub) / 16 for octave exponent e.
  static double bucket_upper_edge(size_t bucket);

  void record(double seconds);

  uint64_t count() const { return count_; }
  uint64_t bucket_count(size_t bucket) const { return counts_[bucket]; }
  // Largest recorded value (exact, not bucketed); 0 when empty.
  double max_recorded() const { return max_; }

  // Upper bucket edge covering quantile q in (0, 1]: the smallest edge with
  // cumulative count >= q * count().  0 when the histogram is empty.
  double percentile(double q) const;

  // Exact bucket-wise sum of another histogram into this one (integer
  // counts, max is a plain max) - merging is associative, commutative and
  // loses nothing, so per-shard histograms folded in any order equal the
  // histogram of the union of the recorded values.  The shard aggregation
  // in runtime::Slot_scheduler relies on exactly this.
  void merge(const Latency_histogram& o);

  // Histograms are equality-comparable so determinism tests can assert
  // whole-distribution identity across worker counts.
  bool operator==(const Latency_histogram& o) const {
    return count_ == o.count_ && counts_ == o.counts_ && max_ == o.max_;
  }

 private:
  std::vector<uint64_t> counts_ = std::vector<uint64_t>(kBuckets, 0);
  uint64_t count_ = 0;
  double max_ = 0.0;
};

// An S-server FCFS queue on a virtual clock.  Jobs must be offered in
// non-decreasing arrival order; each starts at max(arrival, earliest
// server-free time) on the earliest-free server and completes its service
// time later.  Deterministic and serial - the virtual clock has nothing to
// do with host execution order.
class Fcfs_clock {
 public:
  explicit Fcfs_clock(uint32_t servers);

  // When a job arriving at `arrival_s` would start; occupies nothing.
  double start(double arrival_s) const;
  // Occupies the earliest-free server with a job arriving at `arrival_s`
  // for `service_s`, and returns its completion time.
  double serve(double arrival_s, double service_s);

 private:
  size_t earliest_free() const;

  std::vector<double> free_at_;
};

}  // namespace pp::runtime

#endif  // PUSCHPOOL_RUNTIME_LATENCY_H
