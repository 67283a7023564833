// Deterministic randomness for puschpool: a seeded PRNG (xoshiro128++) for
// sequential draws, the SplitMix64 stream derivation (derive_seed), and one
// normal transform shared by both.
//
// The transform (cnormal_of) maps one 64-bit word to a circularly-symmetric
// complex normal: Box-Muller on the word's two 32-bit halves, keeping both
// the cosine and the sine half, with log and sin/cos evaluated as fixed
// polynomials in +, -, x, / and sqrt (src/common/rng.cpp, compiled without
// FP contraction).  Every operation is correctly rounded IEEE-754, so a draw
// is the same bits on any host and any libm (docs/DETERMINISM.md section 1).
//
// Two ways to feed it:
//   Rng::cnormal()/normal()  the Rng's next 64 bits - sequential callers
//                            (TDL taps, flat coefficients, kernel stimulus);
//   Normal_stream            counter-addressed: sample i of stream key k is
//                            cnormal_of(derive_seed(k, i)), a pure function
//                            of (k, i), so draws need no order and run four
//                            per AVX2 vector (the scenario's noise).
// Everything in puschpool that needs randomness takes an explicit seed.
#ifndef PUSCHPOOL_COMMON_RNG_H
#define PUSCHPOOL_COMMON_RNG_H

#include <cmath>
#include <complex>
#include <cstdint>
#include <span>

namespace pp::common {

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull) {
    // SplitMix64 expansion of the seed into the xoshiro state.
    uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9e3779b97f4a7c15ull;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      s = static_cast<uint32_t>((z ^ (z >> 31)) >> 16);
    }
    if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
  }

  uint32_t next_u32() {
    const uint32_t result = rotl(state_[0] + state_[3], 7) + state_[0];
    const uint32_t t = state_[1] << 9;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 11);
    return result;
  }

  // Two draws, the first one in the high half.
  uint64_t next_u64() {
    const uint64_t hi = next_u32();
    return hi << 32 | next_u32();
  }

  // Uniform in [0, 1).
  double uniform() { return next_u32() * 0x1p-32; }

  // Uniform integer in [0, n); n = 0 yields 0.  Lemire's multiply-shift with
  // rejection: exactly uniform for every n, and integer-only — the old
  // `uniform() * n` float path truncated through a double rounding step,
  // which biases buckets and (for n close to 2^32) risks returning n.
  uint32_t uniform_int(uint32_t n) {
    if (n == 0) return 0;
    uint64_t m = static_cast<uint64_t>(next_u32()) * n;
    uint32_t low = static_cast<uint32_t>(m);
    if (low < n) {
      const uint32_t threshold = (0u - n) % n;  // 2^32 mod n
      while (low < threshold) {
        m = static_cast<uint64_t>(next_u32()) * n;
        low = static_cast<uint32_t>(m);
      }
    }
    return static_cast<uint32_t>(m >> 32);
  }

  // Circularly-symmetric complex normal with E[|z|^2] = 1 of one 64-bit
  // word: radius sqrt(-ln u) with u = (hi + 1/2) 2^-32, angle
  // 2 pi (lo + 1/2) 2^-32, where hi and lo are the word's 32-bit halves.
  // |z| reaches sqrt(33 ln 2) = 4.78, i.e. each part 6.76 standard
  // deviations.  No libm call.
  static std::complex<double> cnormal_of(uint64_t bits);

  // The transform of the next 64 bits.
  std::complex<double> cnormal() { return cnormal_of(next_u64()); }

  // Standard normal N(0,1): the real half of cnormal(), rescaled.
  double normal() { return cnormal().real() * M_SQRT2; }

  // Deterministic per-stream seed derivation: SplitMix64 over
  // base + (stream + 1) * golden-gamma.  Streams of the same base are
  // decorrelated, the map is pure (no global state), and it is the
  // documented contract for the sweep engine's per-slot seeds:
  //   slot seed = Rng::derive_seed(base_seed, slot_index).
  static uint64_t derive_seed(uint64_t base, uint64_t stream) {
    uint64_t z = base + (stream + 1) * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  static uint32_t rotl(uint32_t x, int k) { return (x << k) | (x >> (32 - k)); }
  uint32_t state_[4] = {};
};

// Counter-addressed complex normals: sample i of the stream is
// Rng::cnormal_of(Rng::derive_seed(key, i)).
class Normal_stream {
 public:
  explicit Normal_stream(uint64_t key) : key_(key) {}

  std::complex<double> at(uint64_t i) const {
    return Rng::cnormal_of(Rng::derive_seed(key_, i));
  }

  // out[j] += amp * at(first + j) for every j, as (re + amp * z.re,
  // im + amp * z.im): four samples per AVX2 vector on hosts that have it
  // (compiled without FMA, chosen at run time), plain doubles for the tail
  // and elsewhere - the same bits either way.
  void add(uint64_t first, double amp,
           std::span<std::complex<double>> out) const;

 private:
  uint64_t key_;
};

}  // namespace pp::common

#endif  // PUSCHPOOL_COMMON_RNG_H
