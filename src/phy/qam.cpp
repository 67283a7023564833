#include "phy/qam.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/once_tables.h"

namespace pp::phy {

namespace {

// Per-axis Gray map for 2^b levels: bits -> level index.
uint32_t gray_to_level(uint32_t g) {
  uint32_t v = g;
  for (uint32_t shift = 1; shift < 16; shift <<= 1) v ^= v >> shift;
  return v;
}
uint32_t level_to_gray(uint32_t v) { return v ^ (v >> 1); }

// Amplitude normalization: E[|s|^2] = 1 for 2^b levels per axis.
double axis_scale(uint32_t levels) {
  // Levels at +-1, +-3, ... +-(levels-1): mean square per axis is
  // (levels^2 - 1) / 3; two axes double it.
  return 1.0 / std::sqrt(2.0 * (static_cast<double>(levels) * levels - 1) / 3.0);
}

}  // namespace

uint32_t qam_bits(Qam q) {
  switch (q) {
    case Qam::qpsk: return 2;
    case Qam::qam16: return 4;
    case Qam::qam64: return 6;
    case Qam::qam256: return 8;
  }
  PP_CHECK(false, "bad QAM order");
  return 0;
}

const std::vector<cd>& qam_table(Qam q) {
  static common::Once_tables<cd, 4> cache;
  const uint32_t bps = qam_bits(q);  // also rejects bad orders
  return cache.get(bps / 2 - 1, [q, bps] {
    const uint32_t half = bps / 2;
    const uint32_t levels = 1u << half;
    const double s = axis_scale(levels);
    std::vector<cd> t(static_cast<uint32_t>(q));
    for (uint32_t v = 0; v < t.size(); ++v) {
      const uint32_t gi = v >> half;
      const uint32_t gq = v & (levels - 1);
      const double vi = 2.0 * gray_to_level(gi) - (levels - 1);
      const double vq = 2.0 * gray_to_level(gq) - (levels - 1);
      t[v] = cd{vi * s, vq * s};
    }
    return t;
  });
}

std::vector<cd> qam_modulate(Qam q, const std::vector<uint8_t>& bits) {
  const uint32_t bps = qam_bits(q);
  PP_CHECK(bits.size() % bps == 0, "bit count not a multiple of bits/symbol");
  const auto& table = qam_table(q);

  std::vector<cd> out(bits.size() / bps);
  for (size_t i = 0; i < out.size(); ++i) {
    uint32_t v = 0;
    for (uint32_t b = 0; b < bps; ++b) v = (v << 1) | bits[i * bps + b];
    out[i] = table[v];
  }
  return out;
}

namespace {

// The nearest of the 2^Half levels per axis to every symbol, Gray-mapped
// to bits.  The level is lround(lvl) clamped to [0, top], computed without
// a libm call: the cast truncates a clamped level exactly, and
// c - trunc(c) is exact, so comparing that fraction with 1/2 rounds halves
// away from zero as lround does.  NaN, +inf and levels from 2^63 up
// overflow lround to LONG_MIN, so they slice to level 0.
template <uint32_t Half>
void demodulate(const cd* symbols, size_t n, uint8_t* bits) {
  constexpr uint32_t levels = 1u << Half;
  constexpr double top = levels - 1;
  const double s = axis_scale(levels);
  auto slice = [&](double v) -> uint32_t {
    const double lvl = (v / s + top) / 2.0;
    const double c = lvl > 0.0 && lvl < 0x1p63 ? std::min(lvl, top) : 0.0;
    const uint32_t t = static_cast<uint32_t>(c);
    return level_to_gray(t + (c - t >= 0.5));
  };
  for (size_t i = 0; i < n; ++i) {
    const uint32_t gi = slice(symbols[i].real());
    const uint32_t gq = slice(symbols[i].imag());
    uint8_t* out = bits + i * 2 * Half;
    for (uint32_t b = 0; b < Half; ++b) {
      out[b] = (gi >> (Half - 1 - b)) & 1;
      out[Half + b] = (gq >> (Half - 1 - b)) & 1;
    }
  }
}

}  // namespace

void qam_demodulate_into(Qam q, const std::vector<cd>& symbols,
                         std::vector<uint8_t>& bits) {
  const uint32_t bps = qam_bits(q);
  bits.resize(symbols.size() * bps);
  switch (bps / 2) {
    case 1: demodulate<1>(symbols.data(), symbols.size(), bits.data()); break;
    case 2: demodulate<2>(symbols.data(), symbols.size(), bits.data()); break;
    case 3: demodulate<3>(symbols.data(), symbols.size(), bits.data()); break;
    case 4: demodulate<4>(symbols.data(), symbols.size(), bits.data()); break;
  }
}

std::vector<uint8_t> qam_demodulate(Qam q, const std::vector<cd>& symbols) {
  std::vector<uint8_t> bits;
  qam_demodulate_into(q, symbols, bits);
  return bits;
}

std::vector<cd> qam_constellation(Qam q) { return qam_table(q); }

}  // namespace pp::phy
