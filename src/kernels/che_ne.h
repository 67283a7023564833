// Channel estimation (CHE) and noise estimation (NE) kernels (paper §II).
//
// CHE: block-type least-squares estimate - an element-wise division of the
// received pilot observation by the known pilot, N_B x N_L complex
// multiplies per sub-carrier.  Pilots are QPSK at amplitude 0.5 per
// component (|x|^2 = 1/2), so the division folds into conj-multiply + shift.
// Per-UE pilot observations are assumed ideally code-separated (see
// DESIGN.md substitutions).
//
// NE: noise variance by autocorrelation of (y - H_hat * x_pilot):
// 2 N_B x N_L complex MACs per sub-carrier and pilot symbol, with per-core
// partial sums merged through one atomic accumulator.
//
// Both kernels parallelize over sub-carrier blocks with no data sharing, so
// they scale embarrassingly - which is why the paper focuses on the other
// three kernels.
#ifndef PUSCHPOOL_KERNELS_CHE_NE_H
#define PUSCHPOOL_KERNELS_CHE_NE_H

#include <span>
#include <vector>

#include "arch/address_map.h"
#include "common/complex16.h"
#include "sim/barrier.h"
#include "sim/machine.h"

namespace pp::kernels {

class Che {
 public:
  Che(sim::Machine& m, arch::L1_alloc& alloc, uint32_t n_sc, uint32_t n_b,
      uint32_t n_l, uint32_t n_cores);

  // Received pilot observation of UE l: n_sc x n_b grid.
  void set_y_sep(uint32_t l, std::span<const common::cq15> y);
  // Pilot sequence of UE l (amplitude 0.5 per component).
  void set_pilot(uint32_t l, std::span<const common::cq15> x);
  // Estimated channel, layout [sc][b][l].
  std::vector<common::cq15> h() const;

  sim::Kernel_report run();

 private:
  sim::Prog core_prog(sim::Core& c, uint32_t idx);

  sim::Machine& m_;
  uint32_t n_sc_, n_b_, n_l_, n_cores_;
  arch::addr_t y_ = 0;   // [l][sc][b]
  arch::addr_t x_ = 0;   // [l][sc]
  arch::addr_t h_ = 0;   // [sc][b][l]
  sim::Barrier bar_;
};

// The NE estimate from the kernel's accumulator word: the per-core
// contributions (residual power >> 15, folded mod 2^32) averaged over the
// n_sc x n_b residuals, raw / (n_sc * n_b * 2^15).  Ne::sigma2() and the
// host replay of the fold (runtime::Fixed_backend) both convert through it.
double ne_sigma2(uint32_t raw, uint32_t n_sc, uint32_t n_b);

class Ne {
 public:
  Ne(sim::Machine& m, arch::L1_alloc& alloc, uint32_t n_sc, uint32_t n_b,
     uint32_t n_l, uint32_t n_cores);

  void set_y(std::span<const common::cq15> y);           // [sc][b]
  void set_h(std::span<const common::cq15> h);           // [sc][b][l]
  void set_pilot(uint32_t l, std::span<const common::cq15> x);  // [sc]

  // Estimated noise variance (after run()).
  double sigma2() const;

  sim::Kernel_report run();

 private:
  sim::Prog core_prog(sim::Core& c, uint32_t idx);

  sim::Machine& m_;
  uint32_t n_sc_, n_b_, n_l_, n_cores_;
  arch::addr_t y_ = 0, h_ = 0, x_ = 0;
  arch::addr_t acc_ = 0;  // global Q15-scaled accumulator (amo target)
  sim::Barrier bar_;
};

}  // namespace pp::kernels

#endif  // PUSCHPOOL_KERNELS_CHE_NE_H
