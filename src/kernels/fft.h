// Simulated radix-4 DIF FFT kernels (paper §V-A).
//
// Fft_serial  - single-core, in-place, interleaved-memory baseline.
// Fft_parallel- the paper's parallel mapping: N/16 cores per FFT, folded
//               local-bank layout, per-stage shuffle stores, hierarchical
//               partial barriers that shrink 4x per stage, optional
//               replication of independent FFTs per gang ("reps") and
//               multiple concurrent gangs ("instances") to fill the cluster.
//
// Both kernels compute a forward FFT scaled by 1/N (one >>2 per stage) on
// packed Q1.15 complex data resident in L1, and deliver natural-order
// output (digit reversal folded into the last-stage stores).
#ifndef PUSCHPOOL_KERNELS_FFT_H
#define PUSCHPOOL_KERNELS_FFT_H

#include <span>
#include <vector>

#include "arch/address_map.h"
#include "common/complex16.h"
#include "kernels/fft_plan.h"
#include "sim/barrier.h"
#include "sim/machine.h"

namespace pp::kernels {

class Fft_serial {
 public:
  // Allocates buffers for `reps` back-to-back FFTs of size n on one core.
  Fft_serial(sim::Machine& m, arch::L1_alloc& alloc, uint32_t n,
             uint32_t reps = 1);

  void set_input(uint32_t rep, std::span<const common::cq15> x);
  std::vector<common::cq15> output(uint32_t rep) const;

  // Runs all reps sequentially on `core`.
  sim::Kernel_report run(arch::core_id core = 0);

 private:
  sim::Prog prog(sim::Core& c);

  sim::Machine& m_;
  Fft_geom geom_;
  uint32_t reps_;
  arch::addr_t tw_ = 0;                // twiddle table W_n^e, e in [0, n)
  std::vector<arch::addr_t> buf_;      // per rep: in-place work buffer
  std::vector<arch::addr_t> out_;      // per rep: natural-order output
};

class Fft_parallel {
 public:
  // n_inst concurrent gangs of n/16 cores; each gang runs `reps` independent
  // FFTs between each pair of stage barriers (the paper's batching).
  // folded=false keeps the data in plain interleaved arrays instead of the
  // paper's folded local-bank layout (the Fig. 5 ablation: butterfly loads
  // become remote and conflict-prone).
  Fft_parallel(sim::Machine& m, arch::L1_alloc& alloc, uint32_t n,
               uint32_t n_inst = 1, uint32_t reps = 1, bool folded = true);

  void set_input(uint32_t inst, uint32_t rep, std::span<const common::cq15> x);
  std::vector<common::cq15> output(uint32_t inst, uint32_t rep) const;

  uint32_t cores_used() const { return n_inst_ * geom_.cores(); }

  sim::Kernel_report run();

 private:
  sim::Prog gang_prog(sim::Core& c, uint32_t inst, uint32_t p);

  arch::core_id abs_core(uint32_t inst, uint32_t p) const {
    return inst * geom_.cores() + p;
  }
  // Address of folded slot s of gang-core p in instance `inst`, for the
  // data region of `rep` with the given ping-pong parity.
  arch::addr_t slot_addr(uint32_t inst, uint32_t p, uint32_t rep,
                         uint32_t parity, uint32_t slot) const {
    const uint32_t row = data_row_ + rep * 8 + parity * 4;
    return m_.map().core_word(abs_core(inst, p), row, slot);
  }

  arch::addr_t naive_addr(uint32_t inst, uint32_t rep, uint32_t parity,
                          uint32_t i) const {
    return naive_buf_[parity] +
           (static_cast<arch::addr_t>(inst) * reps_ + rep) * geom_.n + i;
  }

  sim::Machine& m_;
  Fft_geom geom_;
  uint32_t n_inst_;
  uint32_t reps_;
  bool folded_ = true;
  arch::addr_t naive_buf_[2] = {0, 0};  // unfolded ping-pong buffers
  arch::addr_t naive_tw_ = 0;           // shared interleaved twiddle table
  uint32_t data_row_ = 0;              // base row of folded data regions
  std::vector<uint32_t> tw_row_;       // per stage: base row of twiddles
  arch::addr_t out_ = 0;               // interleaved outputs
  // bars_[inst][stage][group]
  std::vector<std::vector<std::vector<sim::Barrier>>> bars_;
  std::vector<sim::Barrier> join_bars_;  // per-gang fork-join barrier
};

}  // namespace pp::kernels

#endif  // PUSCHPOOL_KERNELS_FFT_H
