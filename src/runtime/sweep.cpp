#include "runtime/sweep.h"

#include <cmath>

#include "common/check.h"
#include "common/table.h"

namespace pp::runtime {

std::vector<Sweep_point> Sweep_grid::points() const {
  std::vector<Sweep_point> out;
  out.reserve(n_points());
  for (const uint32_t fft : fft_sizes) {
    for (const uint32_t ue : ue_counts) {
      for (const phy::Qam q : qam_orders) {
        for (const double snr : snr_db) {
          out.push_back(Sweep_point{fft, ue, q, snr});
        }
      }
    }
  }
  return out;
}

uint64_t Sweep_grid::n_points() const {
  return static_cast<uint64_t>(fft_sizes.size()) * ue_counts.size() *
         qam_orders.size() * snr_db.size();
}

phy::Uplink_config Grid_source::slot_config(const Sweep_grid& grid,
                                            const Sweep_point& point,
                                            uint64_t slot_index) {
  PP_CHECK(grid.n_symb > grid.n_pilot_symb,
           "sweep grid needs at least one data symbol after the pilots");
  phy::Uplink_config c;
  c.n_sc = point.fft_size;  // sim backend rule: all bins active
  c.fft_size = point.fft_size;
  c.n_rx = grid.n_rx;
  c.n_beams = grid.n_beams;
  c.n_ue = point.n_ue;
  c.n_symb = grid.n_symb;
  c.n_pilot_symb = grid.n_pilot_symb;
  c.qam = point.qam;
  // Per-antenna signal power of the Rayleigh model: each of the n_ue paths
  // contributes E|h|^2 E|x|^2 = (channel_gain * ue_power)^2.
  const double gp = grid.channel_gain * grid.ue_power;
  c.sigma2 = point.n_ue * gp * gp * std::pow(10.0, -point.snr_db / 10.0);
  c.ue_power = grid.ue_power;
  c.channel_gain = grid.channel_gain;
  c.coherence = grid.coherence;
  c.seed = common::Rng::derive_seed(grid.base_seed, slot_index);
  c.profile = grid.profile;
  c.doppler_hz = grid.doppler_hz;
  c.delay_spread = grid.delay_spread;
  c.symbol_s = grid.symbol_s;
  return c;
}

Grid_source::Grid_source(Sweep_grid grid)
    : grid_(std::move(grid)), points_(grid_.points()) {}

std::string Grid_source::group_label(uint32_t group) const {
  PP_CHECK(group < points_.size(), "grid point index out of range");
  const Sweep_point& p = points_[group];
  return "fft" + std::to_string(p.fft_size) + " ue" + std::to_string(p.n_ue) +
         " qam" + std::to_string(static_cast<uint32_t>(p.qam)) + " snr" +
         common::Table::fmt(p.snr_db, 1);
}

Slot_job Grid_source::job(uint64_t index) const {
  PP_CHECK(grid_.slots_per_point > 0 && index < grid_.n_slots(),
           "grid slot index out of range");
  Slot_job job;
  job.index = index;
  job.group = static_cast<uint32_t>(index / grid_.slots_per_point);
  job.cfg = slot_config(grid_, points_[job.group], index);
  // Batch semantics: everything is available up front and nothing carries a
  // deadline - the virtual-time model reduces to plain utilization.
  job.arrival_s = 0.0;
  job.budget_s = 0.0;
  return job;
}

}  // namespace pp::runtime
