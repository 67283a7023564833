// Latency-histogram bucket/percentile math and the FCFS virtual-queue
// model, against hand-computed values.
//
// The histogram's determinism claim (docs/DETERMINISM.md) rests on bucket
// assignment using only exact binary floating-point operations; these tests
// pin the bucket edges and percentile answers for values constructed with
// ldexp so every expectation is an exact double.
#include <gtest/gtest.h>

#include <cmath>

#include "runtime/latency.h"

namespace {

using pp::runtime::Fcfs_clock;
using pp::runtime::Latency_histogram;

TEST(Latency, BucketOfOctaveBoundaries) {
  // 2^-10 s (~0.98 ms) sits at the bottom of octave e = -9: sub-bucket 0.
  const size_t b = Latency_histogram::bucket_of(std::ldexp(1.0, -10));
  EXPECT_EQ(b % Latency_histogram::kSub, 0u);
  // Its upper edge is 2^-10 * 17/16.
  EXPECT_EQ(Latency_histogram::bucket_upper_edge(b),
            std::ldexp(17.0 / 16.0, -10));

  // 2^-10 * 25/16 lives in sub-bucket 9 of the same octave (the value is
  // itself a bucket edge; edges belong to the bucket above).
  const size_t b9 = Latency_histogram::bucket_of(std::ldexp(25.0 / 16.0, -10));
  EXPECT_EQ(b9, b + 9);
  EXPECT_EQ(Latency_histogram::bucket_upper_edge(b9),
            std::ldexp(26.0 / 16.0, -10));
}

TEST(Latency, BucketClampsUnderAndOverflow) {
  EXPECT_EQ(Latency_histogram::bucket_of(0.0), 0u);
  EXPECT_EQ(Latency_histogram::bucket_of(-1.0), 0u);
  EXPECT_EQ(Latency_histogram::bucket_of(1e-12), 0u);
  EXPECT_EQ(Latency_histogram::bucket_of(1e9),
            Latency_histogram::kBuckets - 1);
}

TEST(Latency, PercentilesAgainstHandComputedDistribution) {
  // 90 values at 1 ms-ish, 9 at ~4 ms, 1 at ~16 ms: p50 and p90 land in
  // the first bucket, p99 in the second, p999 (and max) in the third.
  Latency_histogram h;
  const double v1 = std::ldexp(1.0, -10);  // ~0.98 ms
  const double v2 = std::ldexp(1.0, -8);   // ~3.9 ms
  const double v3 = std::ldexp(1.0, -6);   // ~15.6 ms
  for (int i = 0; i < 90; ++i) h.record(v1);
  for (int i = 0; i < 9; ++i) h.record(v2);
  h.record(v3);
  ASSERT_EQ(h.count(), 100u);

  const double e1 = std::ldexp(17.0 / 16.0, -10);
  const double e2 = std::ldexp(17.0 / 16.0, -8);
  const double e3 = std::ldexp(17.0 / 16.0, -6);
  EXPECT_EQ(h.percentile(0.50), e1);
  EXPECT_EQ(h.percentile(0.90), e1);  // rank 90 is exactly the last v1
  EXPECT_EQ(h.percentile(0.99), e2);  // rank 99 is the last v2
  EXPECT_EQ(h.percentile(0.999), e3);
  EXPECT_EQ(h.percentile(1.0), e3);
  EXPECT_EQ(h.max_recorded(), v3);
}

TEST(Latency, PercentileRelativeErrorBounded) {
  // The bucket upper edge overestimates by at most 1/16 of the value.
  Latency_histogram h;
  const double v = 3.7e-4;
  h.record(v);
  const double p = h.percentile(0.5);
  EXPECT_GE(p, v);
  EXPECT_LE(p, v * (1.0 + 1.0 / Latency_histogram::kSub) * (1.0 + 1e-12));
}

TEST(Latency, EmptyHistogram) {
  const Latency_histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.99), 0.0);
  EXPECT_EQ(h.max_recorded(), 0.0);
}

TEST(Latency, EqualityIsWholeDistribution) {
  Latency_histogram a, b;
  a.record(1e-3);
  b.record(1e-3);
  EXPECT_TRUE(a == b);
  b.record(2e-3);
  EXPECT_FALSE(a == b);
}

TEST(Latency, MergeEqualsRecordingTheUnion) {
  // merge() is an exact bucket-wise sum: folding b into a must equal the
  // histogram that recorded both value sets directly, bucket by bucket.
  Latency_histogram a, b, whole;
  const double v1 = std::ldexp(1.0, -12);
  const double v2 = std::ldexp(19.0 / 16.0, -12);  // same octave, sub-bucket 3
  const double v3 = std::ldexp(1.0, -5);
  for (int i = 0; i < 7; ++i) a.record(v1);
  for (int i = 0; i < 2; ++i) b.record(v2);
  b.record(v3);
  for (int i = 0; i < 7; ++i) whole.record(v1);
  for (int i = 0; i < 2; ++i) whole.record(v2);
  whole.record(v3);

  a.merge(b);
  EXPECT_TRUE(a == whole);
  EXPECT_EQ(a.count(), 10u);
  EXPECT_EQ(a.max_recorded(), v3);
  EXPECT_EQ(a.bucket_count(Latency_histogram::bucket_of(v1)), 7u);
  EXPECT_EQ(a.bucket_count(Latency_histogram::bucket_of(v2)), 2u);
}

TEST(Latency, MergePinsQuantilesAtExactBucketEdges) {
  // Shard-style fold: two halves of a distribution merged must answer the
  // same percentile edges as the union - all expectations are exact ldexp
  // bucket edges, the determinism contract's currency.
  Latency_histogram lo, hi;
  const double v1 = std::ldexp(1.0, -10);
  const double v2 = std::ldexp(1.0, -8);
  const double v3 = std::ldexp(1.0, -6);
  for (int i = 0; i < 90; ++i) lo.record(v1);
  for (int i = 0; i < 9; ++i) hi.record(v2);
  hi.record(v3);
  lo.merge(hi);
  ASSERT_EQ(lo.count(), 100u);
  EXPECT_EQ(lo.percentile(0.50), std::ldexp(17.0 / 16.0, -10));
  EXPECT_EQ(lo.percentile(0.99), std::ldexp(17.0 / 16.0, -8));
  EXPECT_EQ(lo.percentile(0.999), std::ldexp(17.0 / 16.0, -6));
}

TEST(Latency, MergeBoundaryCases) {
  // Empty-into-empty, empty-into-filled, filled-into-empty; clamped
  // under/overflow buckets merge like any other bucket.
  Latency_histogram empty, other;
  empty.merge(Latency_histogram{});
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.percentile(0.99), 0.0);

  other.record(1e-12);  // underflow clamp -> bucket 0
  other.record(1e9);    // overflow clamp -> last bucket
  Latency_histogram target;
  target.merge(other);
  EXPECT_TRUE(target == other);
  EXPECT_EQ(target.bucket_count(0), 1u);
  EXPECT_EQ(target.bucket_count(Latency_histogram::kBuckets - 1), 1u);
  target.merge(empty);
  EXPECT_TRUE(target == other);  // merging empty is the identity
}

TEST(Latency, FcfsSingleServerQueuesInOrder) {
  // Three jobs, all at t=0, 2 s service each: completions 2, 4, 6.
  Fcfs_clock q(1);
  EXPECT_EQ(q.serve(0.0, 2.0), 2.0);
  EXPECT_EQ(q.serve(0.0, 2.0), 4.0);
  EXPECT_EQ(q.serve(0.0, 2.0), 6.0);
}

TEST(Latency, FcfsMultiServerDrainsConcurrently) {
  // Two servers: jobs 0 and 1 start immediately; job 2 (arriving at 1)
  // waits for the earlier of the two frees (t=2) and completes at 5.
  Fcfs_clock q(2);
  EXPECT_EQ(q.serve(0.0, 2.0), 2.0);
  EXPECT_EQ(q.serve(0.0, 3.0), 3.0);
  EXPECT_EQ(q.start(1.0), 2.0);
  EXPECT_EQ(q.serve(1.0, 3.0), 5.0);
}

TEST(Latency, FcfsIdleServerStartsAtArrival) {
  // A late arrival into an idle queue starts at its own arrival time.
  Fcfs_clock q(1);
  EXPECT_EQ(q.serve(0.0, 1.0), 1.0);
  EXPECT_EQ(q.start(10.0), 10.0);
  EXPECT_EQ(q.serve(10.0, 1.0), 11.0);
}

}  // namespace
