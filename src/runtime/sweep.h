// Scenario sweep grids as a slot source.
//
// A Sweep_grid spans a scenario space - numerologies (FFT size = active
// sub-carriers), UE counts, QAM orders, SNR points - with `slots_per_point`
// independently-faded slots per grid point.  Grid_source turns the grid
// into a batch job stream for runtime::Slot_scheduler (scheduler.h): every
// job arrives at t = 0, carries no deadline, and groups by grid point, so
// Schedule_result::groups holds one row per point in points() order.
//
// The determinism contract: each slot is generated from a seed derived
// purely from (base_seed, slot_index) (common::Rng::derive_seed -
// SplitMix64), and aggregation walks slots in index order, so any
// (workers, intra) combination is bit-identical to the serial run
// (docs/DETERMINISM.md).  examples/pusch_sweep.cpp is the CLI,
// bench/bench_throughput_sweep.cpp the throughput harness.
#ifndef PUSCHPOOL_RUNTIME_SWEEP_H
#define PUSCHPOOL_RUNTIME_SWEEP_H

#include <string>
#include <vector>

#include "phy/uplink.h"
#include "runtime/scheduler.h"

namespace pp::runtime {

// One point of the scenario grid.
struct Sweep_point {
  uint32_t fft_size = 64;  // == active sub-carriers (the sim backend's rule)
  uint32_t n_ue = 2;
  phy::Qam qam = phy::Qam::qam16;
  double snr_db = 30.0;
};

struct Sweep_grid {
  // Axes; the cartesian product is walked numerology-outermost,
  // SNR-innermost.  An empty axis makes the grid empty.
  std::vector<uint32_t> fft_sizes = {64};      // powers of 4 (radix-4 kernels)
  std::vector<uint32_t> ue_counts = {2};
  std::vector<phy::Qam> qam_orders = {phy::Qam::qam16};
  std::vector<double> snr_db = {30.0};
  uint32_t slots_per_point = 1;  // independently-faded slots per point

  // Scenario knobs shared by every point.
  uint32_t n_rx = 4;
  uint32_t n_beams = 4;
  uint32_t n_symb = 4;  // OFDM symbols per slot, incl. pilots
  uint32_t n_pilot_symb = 2;
  double ue_power = 0.08;
  double channel_gain = 0.25;
  uint32_t coherence = 16;
  uint64_t base_seed = 1;

  // Channel profile shared by every point (phy/channel.h): block-fading
  // Rayleigh by default, or a TDL power-delay profile with per-UE Doppler
  // evolution.  delay_spread is in subcarrier-grid samples, symbol_s the
  // OFDM symbol duration driving the Doppler correlation.
  phy::Channel_profile profile = phy::Channel_profile::flat;
  double doppler_hz = 0.0;
  double delay_spread = 4.0;
  double symbol_s = 1e-3 / 14;

  // Grid points in deterministic walk order.
  std::vector<Sweep_point> points() const;
  uint64_t n_points() const;
  uint64_t n_slots() const { return n_points() * slots_per_point; }
};

// The grid as a Slot_source: slot i belongs to point i / slots_per_point,
// arrives at t = 0 (batch semantics - the FCFS model degrades to "process
// in index order") and carries no deadline budget.
class Grid_source final : public Slot_source {
 public:
  explicit Grid_source(Sweep_grid grid);

  const Sweep_grid& grid() const { return grid_; }

  // Full scenario config of one slot: grid knobs + point axes + derived
  // noise (sigma2 = n_ue * (channel_gain * ue_power)^2 * 10^(-snr/10), the
  // per-antenna signal power of the Rayleigh model) + the slot seed
  // Rng::derive_seed(grid.base_seed, slot_index).
  static phy::Uplink_config slot_config(const Sweep_grid& grid,
                                        const Sweep_point& point,
                                        uint64_t slot_index);

  std::string_view name() const override { return "grid"; }
  uint64_t n_slots() const override { return grid_.n_slots(); }
  uint32_t n_groups() const override {
    return static_cast<uint32_t>(points_.size());
  }
  std::string group_label(uint32_t group) const override;
  Slot_job job(uint64_t index) const override;

 private:
  Sweep_grid grid_;
  std::vector<Sweep_point> points_;
};

}  // namespace pp::runtime

#endif  // PUSCHPOOL_RUNTIME_SWEEP_H
