#include "fixed/q15_kernels.h"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>

#include "common/check.h"
#include "common/fixed_point.h"
#include "fixed/simd.h"

namespace pp::fixed {

using common::cacc;
using common::cadd;
using common::cconj;
using common::cmag2_raw;
using common::cmul;
using common::cmul_mj;
using common::cquarter;
using common::csub;
using common::div_q15;
using common::q15_frac_bits;
using common::sat16;
using common::sqrt_q15;

// ---- FFT ------------------------------------------------------------------

Fft_plan::Fft_plan(uint32_t n) : geom(n) {
  tw.resize(geom.stages);
  for (uint32_t k = 0; k + 1 < geom.stages; ++k) {
    for (uint32_t m = 1; m < 4; ++m) {
      auto& t = tw[k][m - 1];
      t.resize(n / 4);
      for (uint32_t g = 0; g < n / 4; ++g) {
        t[g] = geom.twiddle(geom.tw_exp(k, g, m));
      }
    }
  }
  rev.resize(n);
  for (uint32_t i = 0; i < n; ++i) rev[i] = geom.digitrev(i);
}

const Fft_plan& fft_plan(uint32_t n) {
  static std::mutex mu;
  static std::map<uint32_t, std::unique_ptr<Fft_plan>> plans;  // process life
  std::lock_guard<std::mutex> lock(mu);
  auto it = plans.find(n);
  if (it == plans.end()) {
    it = plans.emplace(n, std::make_unique<Fft_plan>(n)).first;
  }
  return *it->second;
}

namespace {

// The radix-4 DIF butterfly of src/kernels/fft.cpp (functional lines only)
// for butterfly g of stage k, whose first element is `base` (geom.base).
inline void butterfly_scalar(const Fft_plan& plan, uint32_t k, cq15* buf,
                             cq15* out, uint32_t g, uint32_t base, uint32_t d,
                             bool last) {
  cq15 x[4];
  for (uint32_t j = 0; j < 4; ++j) x[j] = cquarter(buf[base + j * d]);
  const cq15 a = cadd(x[0], x[2]);
  const cq15 cc = csub(x[0], x[2]);
  const cq15 b = cadd(x[1], x[3]);
  const cq15 dd = csub(x[1], x[3]);
  const cq15 dj = cmul_mj(dd);
  cq15 v[4];
  v[0] = cadd(a, b);
  v[1] = cadd(cc, dj);
  v[2] = csub(a, b);
  v[3] = csub(cc, dj);
  if (!last) {
    for (uint32_t m = 1; m < 4; ++m) v[m] = cmul(v[m], plan.tw[k][m - 1][g]);
  }
  for (uint32_t m = 0; m < 4; ++m) {
    const uint32_t i_out = base + m * d;
    if (last) {
      out[plan.rev[i_out]] = v[m];
    } else {
      buf[i_out] = v[m];
    }
  }
}

}  // namespace

void fft_stage(const Fft_plan& plan, uint32_t k, cq15* buf, cq15* out,
               uint32_t g_begin, uint32_t g_end, bool simd) {
  const bool last = k + 1 == plan.geom.stages;
  const uint32_t d = plan.geom.d(k);  // a power of four
  uint32_t g = g_begin;
  // The short-distance stages - the final one (d == 1, base 4g) and the
  // one before it (d == 4, from a group-aligned butterfly) - vectorize
  // across groups; what they leave runs through the loop below.
  if (simd && last) {
    g += butterfly_last_prefix(buf + 4 * g, out, plan.rev.data() + 4 * g,
                               g_end - g);
  } else if (simd && d == 4 && (g & 3) == 0) {
    g += butterfly4_prefix(buf + 4 * g, plan.tw[k][0].data() + g,
                           plan.tw[k][1].data() + g, plan.tw[k][2].data() + g,
                           g_end - g);
  }
  while (g < g_end) {
    // Butterflies of one d-group are contiguous in memory: for g = G*d + t,
    // port j sits at (G*4d + t) + j*d, consecutive in t.  Vectorize each
    // contiguous run; the tail (and the digit-reversed last stage) is
    // scalar.
    const uint32_t t0 = g & (d - 1);
    const uint32_t run = std::min(g_end - g, d - t0);
    const uint32_t base = (g - t0) * 4 + t0;  // geom.base(k, g)
    uint32_t done = 0;
    if (simd && !last) {
      done = butterfly_prefix(buf + base, d, plan.tw[k][0].data() + g,
                              plan.tw[k][1].data() + g,
                              plan.tw[k][2].data() + g, run);
    }
    for (uint32_t t = done; t < run; ++t) {
      butterfly_scalar(plan, k, buf, out, g + t, base + t, d, last);
    }
    g += run;
  }
}

void fft_transform(const Fft_plan& plan, cq15* buf, cq15* out, bool simd) {
  for (uint32_t k = 0; k < plan.geom.stages; ++k) {
    fft_stage(plan, k, buf, out, 0, plan.geom.n / 4, simd);
  }
}

// ---- MMM ------------------------------------------------------------------

void mmm_rows(const cq15* a, const cq15* b, cq15* c, uint32_t k_dim,
              uint32_t p, uint32_t i_begin, uint32_t i_end, bool simd) {
  uint32_t q_done = 0;
  if (simd && i_end > i_begin) {
    q_done = mmm_cols_prefix(a + static_cast<size_t>(i_begin) * k_dim, b,
                             c + static_cast<size_t>(i_begin) * p, k_dim, p,
                             i_end - i_begin);
  }
  for (uint32_t i = i_begin; i < i_end; ++i) {
    const cq15* arow = a + static_cast<size_t>(i) * k_dim;
    for (uint32_t q = q_done; q < p; ++q) {
      int64_t re = 0, im = 0;
#pragma omp simd reduction(+ : re, im)
      for (uint32_t k = 0; k < k_dim; ++k) {
        const cq15 av = arow[k];
        const cq15 bv = b[static_cast<size_t>(k) * p + q];
        re += static_cast<int64_t>(av.re) * bv.re -
              static_cast<int64_t>(av.im) * bv.im;
        im += static_cast<int64_t>(av.re) * bv.im +
              static_cast<int64_t>(av.im) * bv.re;
      }
      c[static_cast<size_t>(i) * p + q] = cacc{re, im}.round();
    }
  }
}

// ---- CHE ------------------------------------------------------------------

void che_subcarriers(const std::vector<std::vector<cq15>>& y_sep,
                     const std::vector<std::vector<cq15>>& pilots, cq15* h,
                     uint32_t n_b, uint32_t n_l, uint32_t sc_begin,
                     uint32_t sc_end, bool simd) {
  // Stack scratch, beam-blocked: this runs on the slot hot path once per
  // worker per slot, so it must not heap-allocate (the serving loop's
  // zero-steady-state contract).  The product is elementwise, so blocking
  // leaves every output bit unchanged.
  cq15 row[64];
  for (uint32_t sc = sc_begin; sc < sc_end; ++sc) {
    for (uint32_t l = 0; l < n_l; ++l) {
      const cq15 xc = cconj(pilots[l][sc]);
      const cq15* y = y_sep[l].data() + static_cast<size_t>(sc) * n_b;
      for (uint32_t b0 = 0; b0 < n_b; b0 += 64) {
        const uint32_t blk = std::min(64u, n_b - b0);
        uint32_t done = 0;
        if (simd) done = cmul_double_prefix(y + b0, xc, row, blk);
        for (uint32_t b = done; b < blk; ++b) {
          const cq15 hv = cmul(y[b0 + b], xc);
          row[b] = cadd(hv, hv);  // doubling folds the pilot |x|^2 = 1/2
        }
        for (uint32_t b = 0; b < blk; ++b) {
          h[(static_cast<size_t>(sc) * n_b + b0 + b) * n_l + l] = row[b];
        }
      }
    }
  }
}

// ---- NE -------------------------------------------------------------------

Sc_block sc_block(uint32_t n_sc, uint32_t n_cores, uint32_t idx) {
  const uint32_t chunk = (n_sc + n_cores - 1) / n_cores;
  const uint32_t lo = std::min(idx * chunk, n_sc);
  return {lo, std::min(lo + chunk, n_sc)};
}

int64_t ne_partial(const cq15* y, const cq15* h,
                   const std::vector<std::vector<cq15>>& pilots, uint32_t n_b,
                   uint32_t n_l, uint32_t sc_begin, uint32_t sc_end) {
  int64_t partial = 0;  // Q2.30 accumulator
  for (uint32_t sc = sc_begin; sc < sc_end; ++sc) {
    for (uint32_t b = 0; b < n_b; ++b) {
      const cq15* hrow = h + (static_cast<size_t>(sc) * n_b + b) * n_l;
      int64_t re = 0, im = 0;
#pragma omp simd reduction(+ : re, im)
      for (uint32_t l = 0; l < n_l; ++l) {
        const cq15 hv = hrow[l];
        const cq15 xv = pilots[l][sc];
        re += static_cast<int64_t>(hv.re) * xv.re -
              static_cast<int64_t>(hv.im) * xv.im;
        im += static_cast<int64_t>(hv.re) * xv.im +
              static_cast<int64_t>(hv.im) * xv.re;
      }
      const cq15 diff =
          csub(y[static_cast<size_t>(sc) * n_b + b], cacc{re, im}.round());
      partial += cmag2_raw(diff);
    }
  }
  return partial;
}

// ---- Gram + matched filter ------------------------------------------------

namespace {

// One sub-carrier of gram_subcarriers: hsc points at its H block, g at its
// n_l x n_l Gramian.
void gram_one(const cq15* hsc, cq15 sigma, cq15* g, uint32_t n_b,
              uint32_t n_l) {
  // Lower triangle G[i][j] = sum_b h_b[j] conj(h_b[i]); each entry is an
  // exact int64 reduction over beams, so reducing per entry matches the
  // sim kernel's per-beam interleaved order bit for bit.
  for (uint32_t i = 0; i < n_l; ++i) {
    for (uint32_t j = 0; j <= i; ++j) {
      int64_t re = 0, im = 0;
#pragma omp simd reduction(+ : re, im)
      for (uint32_t b = 0; b < n_b; ++b) {
        const cq15 hj = hsc[static_cast<size_t>(b) * n_l + j];
        const cq15 hi = hsc[static_cast<size_t>(b) * n_l + i];
        // mac_conj(hj, hi): hj * conj(hi)
        re += static_cast<int64_t>(hj.re) * hi.re +
              static_cast<int64_t>(hj.im) * hi.im;
        im += static_cast<int64_t>(hj.im) * hi.re -
              static_cast<int64_t>(hj.re) * hi.im;
      }
      cq15 v = cacc{re, im}.round();
      if (i == j) v = cadd(v, sigma);
      g[i * n_l + j] = v;
      if (i != j) g[j * n_l + i] = cconj(v);
    }
  }
}

// The matched filter of gram_subcarriers for one sub-carrier: ysc points at
// its beam row, rhs at its n_l-vector.
void mf_one(const cq15* hsc, const cq15* ysc, cq15* rhs, uint32_t n_b,
            uint32_t n_l) {
  for (uint32_t i = 0; i < n_l; ++i) {
    int64_t re = 0, im = 0;
#pragma omp simd reduction(+ : re, im)
    for (uint32_t b = 0; b < n_b; ++b) {
      const cq15 yv = ysc[b];
      const cq15 hi = hsc[static_cast<size_t>(b) * n_l + i];
      re += static_cast<int64_t>(yv.re) * hi.re +
            static_cast<int64_t>(yv.im) * hi.im;
      im += static_cast<int64_t>(yv.im) * hi.re -
            static_cast<int64_t>(yv.re) * hi.im;
    }
    rhs[i] = cacc{re, im}.round();
  }
}

}  // namespace

void gram_subcarriers(const cq15* h, const cq15* y, cq15 sigma, cq15* g,
                      cq15* rhs, uint32_t n_b, uint32_t n_l,
                      uint32_t sc_begin, uint32_t sc_end) {
  PP_CHECK(n_l <= 8, "gram kernel keeps one H column in registers (n_l <= 8)");
  for (uint32_t sc = sc_begin; sc < sc_end; ++sc) {
    const cq15* hsc = h + static_cast<size_t>(sc) * n_b * n_l;
    gram_one(hsc, sigma, g + static_cast<size_t>(sc) * n_l * n_l, n_b, n_l);
    mf_one(hsc, y + static_cast<size_t>(sc) * n_b,
           rhs + static_cast<size_t>(sc) * n_l, n_b, n_l);
  }
}

// ---- Cholesky + solves ----------------------------------------------------

namespace {

inline void chol_diag(const cq15* g, cq15* l, uint32_t n, uint32_t j) {
  int64_t acc = static_cast<int64_t>(g[static_cast<size_t>(j) * n + j].re)
                << q15_frac_bits;
  for (uint32_t k = 0; k < j; ++k) {
    acc -= cmag2_raw(l[static_cast<size_t>(j) * n + k]);
  }
  const int16_t r =
      sqrt_q15(sat16((acc + (1 << (q15_frac_bits - 1))) >> q15_frac_bits));
  l[static_cast<size_t>(j) * n + j] = cq15{r, 0};
}

inline void chol_offdiag(const cq15* g, cq15* l, uint32_t n, uint32_t i,
                         uint32_t j) {
  cacc acc;
  acc.add_q15(g[static_cast<size_t>(i) * n + j]);
  for (uint32_t k = 0; k < j; ++k) {
    acc.msu_conj(l[static_cast<size_t>(i) * n + k],
                 l[static_cast<size_t>(j) * n + k]);
  }
  const int16_t diag = l[static_cast<size_t>(j) * n + j].re;
  const cq15 num = acc.round();
  l[static_cast<size_t>(i) * n + j] =
      cq15{div_q15(num.re, diag), div_q15(num.im, diag)};
}

}  // namespace

void cholesky(const cq15* g, cq15* l, uint32_t n) {
  for (uint32_t i = 0; i < n * n; ++i) l[i] = cq15{};
  chol_diag(g, l, n, 0);
  for (uint32_t j = 0; j + 1 < n; ++j) {
    for (uint32_t i = j + 1; i < n; ++i) chol_offdiag(g, l, n, i, j);
    chol_diag(g, l, n, j + 1);
  }
}

void trisolve(const cq15* l, const cq15* y, cq15* x, uint32_t n) {
  PP_CHECK(n <= 8, "trisolve keeps the solution vector in registers (n <= 8)");
  cq15 z[8];
  // Forward substitution: L z = y.
  for (uint32_t i = 0; i < n; ++i) {
    cacc acc;
    acc.add_q15(y[i]);
    for (uint32_t k = 0; k < i; ++k) {
      acc.msu(l[static_cast<size_t>(i) * n + k], z[k]);
    }
    const int16_t diag = l[static_cast<size_t>(i) * n + i].re;
    const cq15 num = acc.round();
    z[i] = cq15{div_q15(num.re, diag), div_q15(num.im, diag)};
  }
  // Backward substitution: L^H x = z.
  for (uint32_t ii = n; ii-- > 0;) {
    cacc acc;
    acc.add_q15(z[ii]);
    for (uint32_t k = ii + 1; k < n; ++k) {
      acc.msu_conj(x[k], l[static_cast<size_t>(k) * n + ii]);
    }
    const int16_t diag = l[static_cast<size_t>(ii) * n + ii].re;
    const cq15 num = acc.round();
    x[ii] = cq15{div_q15(num.re, diag), div_q15(num.im, diag)};
  }
}

// ---- LMMSE factor / solve -------------------------------------------------

void lmmse_factor(const cq15* h, cq15 sigma, cq15* l, uint32_t n_b,
                  uint32_t n_l, uint32_t sc_begin, uint32_t sc_end,
                  bool simd) {
  PP_CHECK(n_l <= 8, "LMMSE keeps one sub-carrier's system on the stack");
  const size_t h_sc = static_cast<size_t>(n_b) * n_l, l_sc = n_l * n_l;
  uint32_t sc = sc_begin;
  if (simd && sc_end > sc_begin) {
    sc += lmmse_factor_prefix(h + sc * h_sc, sigma, l + sc * l_sc, n_b, n_l,
                              sc_end - sc_begin);
  }
  cq15 g[64];
  for (; sc < sc_end; ++sc) {
    gram_one(h + sc * h_sc, sigma, g, n_b, n_l);
    cholesky(g, l + sc * l_sc, n_l);
  }
}

void lmmse_solve(const cq15* h, const cq15* l, const cq15* y, cq15* x,
                 uint32_t n_b, uint32_t n_l, uint32_t sc_begin,
                 uint32_t sc_end, bool simd) {
  PP_CHECK(n_l <= 8, "LMMSE keeps one sub-carrier's system on the stack");
  const size_t h_sc = static_cast<size_t>(n_b) * n_l, l_sc = n_l * n_l;
  uint32_t sc = sc_begin;
  if (simd && sc_end > sc_begin) {
    sc += lmmse_solve_prefix(h + sc * h_sc, l + sc * l_sc,
                             y + static_cast<size_t>(sc) * n_b, x + sc * n_l,
                             n_b, n_l, sc_end - sc_begin);
  }
  cq15 rhs[8];
  for (; sc < sc_end; ++sc) {
    mf_one(h + sc * h_sc, y + static_cast<size_t>(sc) * n_b, rhs, n_b, n_l);
    trisolve(l + sc * l_sc, rhs, x + static_cast<size_t>(sc) * n_l, n_l);
  }
}

}  // namespace pp::fixed
