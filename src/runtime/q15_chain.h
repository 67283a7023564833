// The Q1.15 receive chain shared by the sim and fixed backends.
//
// The paper's kernels compute in Q1.15 with power-of-two block scaling
// between kernels.  Q15_chain is one slot's plan for that chain, derived
// from the pipeline and the scenario before any kernel runs: the stages
// looked up by role, the block scales and the Q15_rescale hand-offs between
// them, the Cholesky symbol batch and the NE partition.  Q15_ws is the
// host-side marshaling workspace the chain writes: the quantized scenario
// inputs and every stage-to-stage hand-off.
//
// runtime::Q15_backend (runtime/backend.h) runs the chain through this one
// copy - input quantization, hand-offs, the NE conversion and the EVM/BER
// epilogue live in runtime/q15_chain.cpp - and the sim and fixed backends
// supply only the executor that runs each stage's kernels.  So the two are
// bit-identical by construction wherever their kernels are
// (tests/test_backend_fixed.cpp pins it).
#ifndef PUSCHPOOL_RUNTIME_Q15_CHAIN_H
#define PUSCHPOOL_RUNTIME_Q15_CHAIN_H

#include <vector>

#include "common/complex16.h"
#include "common/grid.h"
#include "runtime/pipeline.h"
#include "runtime/workspace.h"

namespace pp::runtime {

// Marshaling workspace (grow-then-stabilize: after the first slot of a
// shape the chain allocates nothing; docs/DETERMINISM.md section 10).
struct Q15_ws {
  std::vector<common::cq15> bq;  // codebook (n_rx x n_beams), unit scale
  // Per UE: the pilots at unit scale and their beam-domain observations at
  // CHE's scale (grow-only outers).
  std::vector<std::vector<common::cq15>> pilots, y_sep;
  // The CHE estimate [sc][b][l] at NE's scale and at unit scale (Gramian).
  std::vector<common::cq15> h_est, h_gram;
  std::vector<common::cq15> y_est;         // beam row 0 at NE's scale
  common::Ws_grid<common::cq15> y_rhs;     // [batch symbol][sc * beam]
  std::vector<common::cq15> xs;            // [batch symbol][sc][ue]
  std::vector<phy::cd> x;                  // one sub-carrier's solution

  size_t footprint_bytes() const;
};

// One slot's plan, viewed by the executor.  Each half of a slot derives it
// anew, so the Slot_front's beam grid is the only chain state between the
// halves.
// Const views still write through `ws`: the plan is fixed, the workspace
// is not.
struct Q15_chain {
  Q15_chain(const Pipeline& p, const phy::Uplink_scenario& sc, Q15_ws& ws);

  const Pipeline& pipeline;
  const phy::Uplink_scenario& sc;
  const phy::Uplink_config& cfg;  // n_sc == fft_size: every bin is active
  const Stage_spec &fft, &bf, &che, &ne, &gram, &mimo;

  // Block scales: time samples into the FFT, the beam grid, CHE's pilot
  // observations, NE's inputs and the matched filter's rhs (set on the
  // gram stage; the Cholesky/solve outputs inherit it linearly).
  double s_time, s_grid, s_che, s_est, s_rhs;
  // The FFT kernel computes FFT/N of the s_time-scaled samples and the
  // transmitter normalized time by 1/sqrt(N), so spectra come out at
  // s_time/sqrt(N); to_grid hands them to the beamforming input.
  Q15_rescale to_grid, grid_to_est, che_to_est, che_to_gram, grid_to_rhs;
  uint32_t batch;     // data symbols per MIMO call (divides the data count)
  uint32_t ne_cores;  // cores of the NE partition (0 in params = cluster)
  Q15_ws& ws;

  // Hand-offs over sub-carriers [sc_lo, sc_hi); disjoint ranges may run on
  // concurrent workers.  CHE output `h` (at s_che) to ws.h_est and
  // ws.h_gram; beam row s0 + b to row b of ws.y_rhs.
  void hand_on_che(const common::cq15* h, uint32_t sc_lo,
                   uint32_t sc_hi) const;
  void hand_on_rhs(const common::Ws_grid<common::cq15>& beams, uint32_t s0,
                   uint32_t b, uint32_t sc_lo, uint32_t sc_hi) const;
};

}  // namespace pp::runtime

#endif  // PUSCHPOOL_RUNTIME_Q15_CHAIN_H
