// Regression tests for the PRNG distributions — in particular the
// uniform_int() integer path (Lemire multiply-shift with rejection), which
// replaced a float path whose double-rounded truncation biased buckets and
// risked returning n for n close to 2^32.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <set>
#include <vector>

#include "common/rng.h"

namespace {

using pp::common::Rng;

TEST(RngUniformInt, NeverReturnsNForAdversarialBounds) {
  // The old float path computed static_cast<uint32_t>(uniform() * n); these
  // bounds maximize the double-rounding exposure near 2^32.
  const std::array<uint32_t, 7> bounds = {
      1u,           2u,          3u,       0x80000001u,
      0xfffffffeu,  0xffffffffu, 1000003u,
  };
  Rng rng(123);
  for (const uint32_t n : bounds) {
    for (int i = 0; i < 20000; ++i) {
      const uint32_t v = rng.uniform_int(n);
      ASSERT_LT(v, n) << "bound " << n;
    }
  }
}

TEST(RngUniformInt, DegenerateBounds) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.uniform_int(1), 0u);
    EXPECT_EQ(rng.uniform_int(0), 0u);
  }
}

TEST(RngUniformInt, GoldenSequencePinned) {
  // Pins the exact output stream so the draw discipline (one next_u32 per
  // accepted draw, rejection only below the 2^32 mod n threshold) cannot
  // drift silently.
  Rng rng(42);
  const std::array<uint32_t, 8> want = {268635421u, 589424290u, 259208044u,
                                        709199744u, 518066291u, 629192229u,
                                        759671364u, 551444549u};
  for (const uint32_t w : want) EXPECT_EQ(rng.uniform_int(1000000007u), w);

  Rng rng2(7);
  const std::array<uint32_t, 4> want2 = {3u, 3u, 1u, 4u};
  for (const uint32_t w : want2) EXPECT_EQ(rng2.uniform_int(6u), w);
}

TEST(RngUniformInt, SmallBoundIsUnbiased) {
  // n = 3 splits 2^32 with remainder 1: without rejection, bucket 0 would be
  // visibly heavier.  With Lemire + rejection each bucket is within 1% of
  // the uniform share over 300k draws (sigma ~ 0.15%).
  Rng rng(2024);
  const int draws = 300000;
  std::array<int, 3> count = {0, 0, 0};
  for (int i = 0; i < draws; ++i) ++count[rng.uniform_int(3)];
  for (const int c : count) {
    EXPECT_NEAR(static_cast<double>(c) / draws, 1.0 / 3.0, 0.01);
  }
}

TEST(RngDeriveSeed, GoldenValuesPinned) {
  // The sweep engine's per-slot seed contract: SplitMix64 of
  // base + (stream + 1) * golden-gamma.  Changing this silently would
  // invalidate every recorded sweep.
  EXPECT_EQ(Rng::derive_seed(1, 0), 0x910a2dec89025cc1ull);
  EXPECT_EQ(Rng::derive_seed(1, 1), 0xbeeb8da1658eec67ull);
  EXPECT_EQ(Rng::derive_seed(1, 2), 0xf893a2eefb32555eull);
  EXPECT_EQ(Rng::derive_seed(1, 3), 0x71c18690ee42c90bull);
}

TEST(RngDeriveSeed, StreamsAreDistinct) {
  std::set<uint64_t> seen;
  for (uint64_t base : {0ull, 1ull, 0xdeadbeefull}) {
    for (uint64_t stream = 0; stream < 512; ++stream) {
      EXPECT_TRUE(seen.insert(Rng::derive_seed(base, stream)).second)
          << "collision at base " << base << " stream " << stream;
    }
  }
}

TEST(RngDeriveSeed, IsPure) {
  // Same (base, stream) always maps to the same seed, independent of any
  // Rng instance state.
  Rng rng(9);
  rng.uniform();
  EXPECT_EQ(Rng::derive_seed(5, 17), Rng::derive_seed(5, 17));
}

// ---- the normal transform ---------------------------------------------------
//
// Bounds below were fixed before the first run.  Moment bounds are five
// standard errors of the sample statistic; the KS bound is the 0.001
// critical value 1.95 / sqrt(n); correlation bounds are 5 / sqrt(n).

namespace normal_transform {

using pp::common::Normal_stream;
using cd = std::complex<double>;

uint64_t bits_of(double v) { return std::bit_cast<uint64_t>(v); }

// The unit-variance real normals of n complex samples (2n values).
std::vector<double> unit_parts(const Normal_stream& s, uint64_t n) {
  std::vector<cd> z(n);
  s.add(0, 1.0, z);
  std::vector<double> out;
  out.reserve(2 * n);
  for (const cd& v : z) {
    out.push_back(v.real() * M_SQRT2);
    out.push_back(v.imag() * M_SQRT2);
  }
  return out;
}

double correlation(const std::vector<double>& a, const std::vector<double>& b) {
  double ma = 0, mb = 0;
  for (size_t i = 0; i < a.size(); ++i) ma += a[i], mb += b[i];
  ma /= a.size(), mb /= b.size();
  double sab = 0, saa = 0, sbb = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    sab += (a[i] - ma) * (b[i] - mb);
    saa += (a[i] - ma) * (a[i] - ma);
    sbb += (b[i] - mb) * (b[i] - mb);
  }
  return sab / std::sqrt(saa * sbb);
}

TEST(NormalStream, LanesMatchScalarBitForBit) {
  // add() runs four samples per AVX2 vector where the host has it and a
  // scalar tail; every start offset 0-7 and length 0-67 moves the split.
  // The reference is the per-sample definition in plain doubles.
  const uint64_t keys[] = {0, 1, 0xdeadbeefull, ~uint64_t{0},
                           Rng::derive_seed(42, uint64_t{1} << 60)};
  const double amp = 0.3125;
  for (const uint64_t key : keys) {
    const Normal_stream s(key);
    for (const uint64_t base : {uint64_t{0}, uint64_t{1} << 40}) {
      for (uint64_t first = base; first < base + 8; ++first) {
        for (size_t n = 0; n <= 67; ++n) {
          std::vector<cd> got(n), want(n);
          for (size_t j = 0; j < n; ++j) {
            got[j] = want[j] = cd{0.25 * static_cast<double>(j), -1.0 / (j + 1)};
          }
          s.add(first, amp, got);
          for (size_t j = 0; j < n; ++j) {
            const cd z = s.at(first + j);
            want[j] = cd{want[j].real() + amp * z.real(),
                         want[j].imag() + amp * z.imag()};
            ASSERT_EQ(bits_of(got[j].real()), bits_of(want[j].real()))
                << "key " << key << " first " << first << " n " << n << " j " << j;
            ASSERT_EQ(bits_of(got[j].imag()), bits_of(want[j].imag()))
                << "key " << key << " first " << first << " n " << n << " j " << j;
          }
        }
      }
    }
  }
}

TEST(NormalStream, SampleIsTheTransformOfTheDerivedSeed) {
  const Normal_stream s(99);
  for (uint64_t i : {uint64_t{0}, uint64_t{5}, uint64_t{1} << 33}) {
    EXPECT_EQ(s.at(i), Rng::cnormal_of(Rng::derive_seed(99, i)));
  }
  // Rng::cnormal() feeds the same transform from its next 64 bits, the
  // first 32-bit draw in the high half.
  Rng a(5), b(5);
  const uint64_t hi = b.next_u32();
  const uint64_t lo = b.next_u32();
  EXPECT_EQ(a.cnormal(), Rng::cnormal_of(hi << 32 | lo));
  EXPECT_EQ(a.normal(), b.cnormal().real() * M_SQRT2);
}

TEST(NormalTransform, GoldenSamplesPinned) {
  // Frozen like derive_seed: every scenario's noise and fading draws go
  // through this map, so any change moves every pinned digest.
  const std::array<uint64_t, 4> in = {0x0ull, 0xffffffffffffffffull,
                                      Rng::derive_seed(1, 0),
                                      Rng::derive_seed(1, 1)};
  // Bit patterns of (re, im).  The first two are the extremes: radius
  // sqrt(33 ln 2) at angle pi 2^-32, and radius 2^-16.5 just below angle 0.
  const std::array<std::array<uint64_t, 2>, 4> want = {{
      {0x401321722dccc42eull, 0x3e2e0ce3e47eb2d9ull},
      {0x3ee6a09e66820fe0ull, 0xbd01c5831adf9b94ull},
      {0xbfe7888ad58556ebull, 0xbfc52928841dee6dull},
      {0xbfdb9d7f9b52b1c3ull, 0x3fd4f2dcaf2d0bd7ull},
  }};
  for (size_t i = 0; i < in.size(); ++i) {
    const cd z = Rng::cnormal_of(in[i]);
    EXPECT_EQ(bits_of(z.real()), want[i][0]) << i;
    EXPECT_EQ(bits_of(z.imag()), want[i][1]) << i;
  }
}

TEST(NormalTransform, AgreesWithLibmBoxMuller) {
  // The polynomial log and sin/cos against libm's on the same 64-bit
  // words: within 1e-13 absolute (|z| <= 4.8), far below any statistic.
  Rng rng(77);
  double worst = 0;
  for (int i = 0; i < 200000; ++i) {
    const uint64_t w = rng.next_u64();
    const double u = (static_cast<double>(w >> 32) + 0.5) * 0x1p-32;
    const double a =
        2.0 * M_PI * (static_cast<double>(static_cast<uint32_t>(w)) + 0.5) *
        0x1p-32;
    const double r = std::sqrt(-std::log(u));
    const cd z = Rng::cnormal_of(w);
    worst = std::max({worst, std::abs(z.real() - r * std::cos(a)),
                      std::abs(z.imag() - r * std::sin(a))});
  }
  EXPECT_LT(worst, 1e-13);
}

TEST(NormalTransform, TailsReachSixSigma) {
  // The smallest radius word (high half 0) at angle ~0: the real part, in
  // units of its standard deviation 1/sqrt(2), is sqrt(66 ln 2) = 6.76.
  const cd edge = Rng::cnormal_of(0x00000000ffffffffull);
  EXPECT_GE(edge.real() * M_SQRT2, 6.0);
  EXPECT_NEAR(std::norm(edge), 33.0 * std::log(2.0), 1e-12);
  // The largest radius word is the smallest magnitude, and finite.
  const cd centre = Rng::cnormal_of(0xffffffff00000000ull);
  EXPECT_GT(std::abs(centre), 0.0);
  EXPECT_LT(std::abs(centre), 1e-4);
}

TEST(NormalTransform, MomentsAndKsDistanceOverAMillionSamples) {
  const auto x = unit_parts(Normal_stream(Rng::derive_seed(2024, 3)), 500000);
  const double n = static_cast<double>(x.size());
  double m1 = 0, m2 = 0, m4 = 0;
  for (const double v : x) {
    m1 += v;
    m2 += v * v;
    m4 += v * v * v * v;
  }
  m1 /= n, m2 /= n, m4 /= n;
  EXPECT_LT(std::abs(m1), 5.0 / std::sqrt(n));                 // sd 1
  EXPECT_LT(std::abs(m2 - m1 * m1 - 1.0), 5.0 * std::sqrt(2.0 / n));
  EXPECT_LT(std::abs(m4 - 3.0), 5.0 * std::sqrt(96.0 / n));    // var 105-9

  auto sorted = x;
  std::sort(sorted.begin(), sorted.end());
  double ks = 0;
  for (size_t i = 0; i < sorted.size(); ++i) {
    const double cdf = 0.5 * std::erfc(-sorted[i] / M_SQRT2);
    ks = std::max({ks, std::abs(cdf - i / n), std::abs((i + 1) / n - cdf)});
  }
  EXPECT_LT(ks, 1.95 / std::sqrt(n));
}

TEST(NormalTransform, SequentialDrawsHaveUnitMoments) {
  Rng rng(31);
  const int n = 1000000;
  double m1 = 0, m2 = 0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    m1 += v;
    m2 += v * v;
  }
  m1 /= n, m2 /= n;
  EXPECT_LT(std::abs(m1), 5.0 / std::sqrt(n));
  EXPECT_LT(std::abs(m2 - 1.0), 5.0 * std::sqrt(2.0 / n));
}

TEST(NormalTransform, DerivedStreamsAreUncorrelated) {
  // Same-index samples of the scenario's two noise streams and of adjacent
  // slot seeds, the two halves of one sample, and lag-1 within a stream.
  const uint64_t n = 1u << 17;
  const double bound = 5.0 / std::sqrt(2.0 * n);
  const uint64_t root = Rng::derive_seed(7, 0);
  const auto antenna =
      unit_parts(Normal_stream(Rng::derive_seed(root, uint64_t{1} << 60)), n);
  const auto pilot = unit_parts(
      Normal_stream(Rng::derive_seed(root, (uint64_t{1} << 60) + 1)), n);
  const auto next_slot = unit_parts(
      Normal_stream(Rng::derive_seed(Rng::derive_seed(7, 1), uint64_t{1} << 60)),
      n);
  EXPECT_LT(std::abs(correlation(antenna, pilot)), bound);
  EXPECT_LT(std::abs(correlation(antenna, next_slot)), bound);

  std::vector<double> re(n), im(n), lag0(n - 1), lag1(n - 1);
  for (uint64_t i = 0; i < n; ++i) re[i] = antenna[2 * i], im[i] = antenna[2 * i + 1];
  for (uint64_t i = 0; i + 1 < n; ++i) lag0[i] = re[i], lag1[i] = re[i + 1];
  EXPECT_LT(std::abs(correlation(re, im)), 5.0 / std::sqrt(n));
  EXPECT_LT(std::abs(correlation(lag0, lag1)), 5.0 / std::sqrt(n));
  // |z|^2 of a complex sample is Exp(1): re^2 and im^2 share no radius bias.
  std::vector<double> re2(n), im2(n);
  for (uint64_t i = 0; i < n; ++i) re2[i] = re[i] * re[i], im2[i] = im[i] * im[i];
  EXPECT_LT(std::abs(correlation(re2, im2)), 5.0 / std::sqrt(n));
}

}  // namespace normal_transform

}  // namespace
