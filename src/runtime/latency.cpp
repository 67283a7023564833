#include "runtime/latency.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace pp::runtime {

size_t Latency_histogram::bucket_of(double seconds) {
  if (!(seconds > 0.0)) return 0;  // also catches NaN
  int e = 0;
  const double m = std::frexp(seconds, &e);  // seconds = m * 2^e, m in [0.5,1)
  if (e < kMinExp) return 0;
  if (e > kMaxExp) return kBuckets - 1;
  // 2m - 1 in [0, 1): both the doubling and the subtraction are exact
  // (Sterbenz), as is the *16, so the sub-bucket never depends on libm.
  const int sub = static_cast<int>((2.0 * m - 1.0) * kSub);
  return static_cast<size_t>(e - kMinExp) * kSub + static_cast<size_t>(sub);
}

double Latency_histogram::bucket_upper_edge(size_t bucket) {
  PP_CHECK(bucket < kBuckets, "latency bucket out of range");
  const int e = kMinExp + static_cast<int>(bucket / kSub);
  const int sub = static_cast<int>(bucket % kSub);
  // Octave e covers [2^(e-1), 2^e); sub-bucket upper edge at
  // 2^(e-1) * (1 + (sub+1)/16) - exact for every bucket.
  return std::ldexp(static_cast<double>(kSub + sub + 1) / kSub, e - 1);
}

void Latency_histogram::record(double seconds) {
  ++counts_[bucket_of(seconds)];
  ++count_;
  max_ = std::max(max_, seconds);
}

void Latency_histogram::merge(const Latency_histogram& o) {
  for (size_t b = 0; b < kBuckets; ++b) counts_[b] += o.counts_[b];
  count_ += o.count_;
  max_ = std::max(max_, o.max_);
}

double Latency_histogram::percentile(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = q * static_cast<double>(count_);
  uint64_t cum = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    cum += counts_[b];
    if (static_cast<double>(cum) >= rank) return bucket_upper_edge(b);
  }
  return bucket_upper_edge(kBuckets - 1);
}

Fcfs_clock::Fcfs_clock(uint32_t servers) : free_at_(servers, 0.0) {
  PP_CHECK(servers >= 1, "fcfs queue needs at least one server");
}

size_t Fcfs_clock::earliest_free() const {
  // Ties to the lowest id - a deterministic pick.
  size_t s = 0;
  for (size_t j = 1; j < free_at_.size(); ++j) {
    if (free_at_[j] < free_at_[s]) s = j;
  }
  return s;
}

double Fcfs_clock::start(double arrival_s) const {
  return std::max(arrival_s, free_at_[earliest_free()]);
}

double Fcfs_clock::serve(double arrival_s, double service_s) {
  double& free_at = free_at_[earliest_free()];
  free_at = std::max(arrival_s, free_at) + service_s;
  return free_at;
}

}  // namespace pp::runtime
