// Functional slot execution on the cycle-approximate simulated cluster.
//
// The receive chain on the simulated kernels, driven by the Pipeline
// description: stage kernels come from the registry, block-rescaling
// factors and Cholesky symbol-batching come from the Stage_specs, and all
// kernels are driven through the uniform runtime::Kernel lifecycle.  Between
// kernel launches the host only marshals data and applies power-of-two
// block rescaling (the role DMA + block-floating-point shifts play in a
// real deployment): a kernel's Q15 output goes to the next kernel through
// runtime::Q15_rescale, never through double precision.
#include <cmath>

#include "runtime/backend.h"
#include "runtime/registry.h"
#include "runtime/workspace.h"
#include "sim/machine.h"

namespace pp::runtime {

namespace {

using common::cq15;
using phy::cd;

void accumulate(Slot_result::Stage& st, const sim::Kernel_report& r) {
  st.cycles += r.cycles;
  st.instrs += r.instrs;
  for (size_t k = 0; k < sim::n_stall_kinds; ++k) st.stall[k] += r.stall[k];
  ++st.runs;
}

const Stage_spec& require(const Pipeline& p, Stage_role role,
                          const char* what) {
  const Stage_spec* s = p.find(role);
  PP_CHECK(s != nullptr && !s->run.kernel.empty(), what);
  return *s;
}

}  // namespace

// Host-side marshaling workspace: the quantize staging buffers and the Q15
// grids the host keeps between kernel launches.  Only this marshaling
// reuses storage across slots - the sim::Machine (simulated cores, L1,
// kernel instances) is rebuilt per slot by design, so the sim backend
// stays allocating and the zero-steady-state gate applies to the host
// backends only (docs/DETERMINISM.md section 10).
struct Sim_backend::Ws {
  std::vector<cq15> bq;                 // quantized codebook
  std::vector<cq15> q;                  // generic bind staging (bind copies)
  std::vector<cq15> a;                  // beamform transpose gather
  common::Ws_grid<cq15> beams;          // [symbol][sc * beam] MMM outputs
  std::vector<cq15> h;                  // CHE output [sc][b][l]
  std::vector<std::vector<cq15>> g_syms, rhs_syms;  // per batch symbol

  size_t footprint_bytes() const {
    return (bq.capacity() + q.capacity() + a.capacity() + h.capacity()) *
               sizeof(cq15) +
           beams.footprint_bytes() + common::ws_rows_footprint(g_syms) +
           common::ws_rows_footprint(rhs_syms);
  }
};

Sim_backend::Sim_backend() : ws_(std::make_unique<Ws>()) {}
Sim_backend::~Sim_backend() = default;

size_t Sim_backend::workspace_bytes() const { return ws_->footprint_bytes(); }

void Sim_backend::run_slot_into(const Pipeline& p,
                                const phy::Uplink_scenario& sc,
                                Slot_result& out) {
  const auto& cfg = sc.config();
  const auto& cluster = p.cluster();
  PP_CHECK(cfg.n_sc == cfg.fft_size,
           "sim backend assumes all FFT bins are active sub-carriers");
  const uint32_t n = cfg.fft_size;
  const uint32_t n_cores = cluster.n_cores();

  const Stage_spec& fft_spec = require(p, Stage_role::fft, "pipeline needs an fft stage");
  const Stage_spec& bf_spec = require(p, Stage_role::beamform, "pipeline needs a beamform stage");
  const Stage_spec& che_spec = require(p, Stage_role::che, "pipeline needs a che stage");
  const Stage_spec& ne_spec = require(p, Stage_role::ne, "pipeline needs an ne stage");
  const Stage_spec& gram_spec = require(p, Stage_role::gram, "pipeline needs a gram stage");
  const Stage_spec& mimo_spec = require(p, Stage_role::mimo_solve, "pipeline needs a mimo_solve stage");

  // Block-rescaling factors between stages (power-of-two shifts).
  const double s_time = fft_spec.rescale;
  const double s_grid = bf_spec.rescale;
  const double s_est = ne_spec.rescale;
  const double s_che = che_spec.rescale;
  // The matched-filter scale: set on the gram stage (whose y input the host
  // quantizes); the solve outputs inherit it linearly.
  const double s_rhs = gram_spec.rescale;

  // Concurrent FFT gangs: never more than there are antennas to transform
  // (excess gangs would run on unbound inputs and inflate the cycle counts).
  const uint32_t fft_inst =
      resolve_fft_gangs(cluster, n, fft_spec.run.params, cfg.n_rx);

  // Cholesky symbol batching: decompositions of `batch` data symbols are
  // queued per core and closed by a single barrier.
  const uint32_t batch = mimo_spec.run.params.getu("symb_batch", 1);
  const uint32_t n_data_symb = cfg.n_symb - cfg.n_pilot_symb;
  PP_CHECK(batch >= 1 && n_data_symb % batch == 0,
           "chol symb_batch must divide the data-symbol count");
  const uint32_t per_sym = n / n_cores > 0 ? n / n_cores : 1;
  const uint32_t per_core = per_sym * batch;

  sim::Machine m(cluster);
  arch::L1_alloc alloc(m.config());

  // `out` may be a recycled result: the stage counters accumulate with +=,
  // so every row restarts from zero.
  out.backend = "sim";
  out.stages.assign(p.stages().size(), Slot_result::Stage{});
  for (size_t i = 0; i < p.stages().size(); ++i) {
    out.stages[i].name = p.stages()[i].name;
  }
  auto stage_of = [&](const Stage_spec& spec) -> Slot_result::Stage& {
    return out.stages[&spec - p.stages().data()];
  };

  // Persistent kernel instances (buffers live in L1 across the slot),
  // instantiated from the registry in a fixed order so the L1 layout is
  // reproducible.
  auto fft = make_kernel(fft_spec.run.kernel, m, alloc,
                         kernel_params(fft_spec.run)
                             .set("n", n)
                             .set("inst", fft_inst)
                             .set("reps", 1u));
  auto mmm = make_kernel(bf_spec.run.kernel, m, alloc,
                         kernel_params(bf_spec.run)
                             .set("m", n)
                             .set("k", cfg.n_rx)
                             .set("p", cfg.n_beams));
  // Stage params pass through; only the scenario-derived dimensions are
  // overridden.
  auto est_dims = [&](const Stage_spec& spec) {
    return kernel_params(spec.run)
        .set("sc", n)
        .set("b", cfg.n_beams)
        .set("l", cfg.n_ue);
  };
  auto che = make_kernel(che_spec.run.kernel, m, alloc, est_dims(che_spec));
  auto ne = make_kernel(ne_spec.run.kernel, m, alloc, est_dims(ne_spec));
  auto gram = make_kernel(gram_spec.run.kernel, m, alloc, est_dims(gram_spec));
  const Params mimo_dims = kernel_params(mimo_spec.run)
                               .set("n", cfg.n_ue)
                               .set("per_core", per_core);
  auto chol = make_kernel(mimo_spec.run.kernel, m, alloc, mimo_dims);
  auto solve = make_kernel(
      mimo_spec.run.params.gets("solver", "trisolve.batch"), m, alloc,
      mimo_dims);

  // Quantized beamforming codebook (n_rx x n_beams), reused every symbol.
  // Marshaling staging (ws_->q and friends) is reused across binds and
  // slots: bind() copies into L1 before returning, so one staging buffer
  // serves every port.
  quantize_into(sc.codebook(), 1.0, ws_->bq);

  // ---- per-symbol front end: FFT + beamforming ------------------------
  // The FFT kernel computes FFT/N of the s_time-scaled samples and the
  // transmitter normalized time by 1/sqrt(N), so spectra come back at scale
  // s_time/sqrt(N); they enter the MMM at s_grid.  The beam grid keeps the
  // MMM output as is: [symbol][sc * beam] at scale s_grid.
  const Q15_rescale to_grid(s_time / std::sqrt(static_cast<double>(n)),
                            s_grid);
  auto& beams = ws_->beams;
  auto& a = ws_->a;
  beams.shape(cfg.n_symb, static_cast<size_t>(n) * cfg.n_beams);
  common::ws_grow(a, static_cast<size_t>(n) * cfg.n_rx);
  for (uint32_t s = 0; s < cfg.n_symb; ++s) {
    for (uint32_t r0 = 0; r0 < cfg.n_rx; r0 += fft_inst) {
      const uint32_t nb = std::min(fft_inst, cfg.n_rx - r0);
      for (uint32_t i = 0; i < nb; ++i) {
        quantize_into(sc.antenna_time(s, r0 + i), s_time, ws_->q);
        fft->bind("x", i, ws_->q);
      }
      accumulate(stage_of(fft_spec), fft->launch());
      // Beamforming input A (n x n_rx): antenna r0 + i is column r0 + i.
      for (uint32_t i = 0; i < nb; ++i) {
        const auto y = fft->fetch("y", i);
        for (uint32_t scx = 0; scx < n; ++scx) {
          a[static_cast<size_t>(scx) * cfg.n_rx + r0 + i] = to_grid(y[scx]);
        }
      }
    }

    mmm->bind("a", 0, a);
    mmm->bind("b", 0, ws_->bq);
    accumulate(stage_of(bf_spec), mmm->launch());
    const auto c = mmm->fetch("c");
    PP_CHECK(c.size() == beams.cols(), "MMM output is the symbol's beam grid");
    std::copy(c.begin(), c.end(), beams.row(s).begin());
  }

  // ---- channel + noise estimation on the pilot symbols ----------------
  for (uint32_t l = 0; l < cfg.n_ue; ++l) {
    quantize_into(sc.pilot(l), 1.0, ws_->q);
    che->bind("pilot", l, ws_->q);
    quantize_into(sc.pilot_obs_beam(l), s_che, ws_->q);
    che->bind("y_sep", l, ws_->q);
  }
  accumulate(stage_of(che_spec), che->launch());
  auto& h = ws_->h;  // [sc][b][l] at scale s_che
  const auto h_out = che->fetch("h");
  common::ws_grow(h, h_out.size());
  std::copy(h_out.begin(), h_out.end(), h.begin());

  for (uint32_t l = 0; l < cfg.n_ue; ++l) {
    quantize_into(sc.pilot(l), 1.0, ws_->q);
    ne->bind("pilot", l, ws_->q);
  }
  rescale_into(beams.row(0), Q15_rescale(s_grid, s_est), ws_->q);
  ne->bind("y", 0, ws_->q);
  rescale_into(h, Q15_rescale(s_che, s_est), ws_->q);
  ne->bind("h", 0, ws_->q);
  accumulate(stage_of(ne_spec), ne->launch());
  const double sigma2_hat = ne->fetch_scalar("sigma2") / (s_est * s_est);
  out.sigma2_hat = sigma2_hat;

  // ---- MIMO per data symbol: G = H^H H + sigma2 I, Cholesky, solves ----
  // Gramian and matched filter run on the simulated kernel; the host only
  // reshuffles its interleaved outputs into the Cholesky kernel's folded
  // per-core layout (a DMA job in a real deployment).
  const Q15_rescale grid_to_rhs(s_grid, s_rhs);
  rescale_into(h, Q15_rescale(s_che, 1.0), ws_->q);
  gram->bind("h", 0, ws_->q);
  gram->bind_scalar("sigma2", sigma2_hat);
  out.bits.resize(cfg.n_ue);
  std::vector<std::vector<cd>> eq(cfg.n_ue);  // equalized symbols
  std::vector<cd> x;  // one sub-carrier's dequantized solution
  double evm_acc = 0.0;
  uint64_t evm_cnt = 0;

  // Gramian staging per symbol group (grow-only outers; clear() keeps the
  // inner capacity across groups and slots).
  auto& g_syms = ws_->g_syms;
  auto& rhs_syms = ws_->rhs_syms;
  if (g_syms.size() < batch) g_syms.resize(batch);
  if (rhs_syms.size() < batch) rhs_syms.resize(batch);
  for (uint32_t s0 = cfg.n_pilot_symb; s0 < cfg.n_symb; s0 += batch) {
    // Gramians of the whole symbol group, staged host-side.
    for (uint32_t b = 0; b < batch; ++b) {
      rescale_into(beams.row(s0 + b), grid_to_rhs, ws_->q);
      gram->bind("y", 0, ws_->q);
      accumulate(stage_of(gram_spec), gram->launch());
      g_syms[b].clear();
      rhs_syms[b].clear();
      for (uint32_t scx = 0; scx < n; ++scx) {
        const auto g = gram->fetch("g", scx);
        const auto r = gram->fetch("rhs", scx);
        g_syms[b].insert(g_syms[b].end(), g.begin(), g.end());
        rhs_syms[b].insert(rhs_syms[b].end(), r.begin(), r.end());
      }
    }

    // One batched Cholesky + solve launch covers the group.
    const uint32_t nue = cfg.n_ue;
    for (uint32_t b = 0; b < batch; ++b) {
      for (uint32_t scx = 0; scx < n; ++scx) {
        const uint32_t slot = b * n + scx;
        chol->bind("g", slot,
                   std::span<const cq15>(g_syms[b].data() +
                                             static_cast<size_t>(scx) * nue * nue,
                                         static_cast<size_t>(nue) * nue));
      }
    }
    accumulate(stage_of(mimo_spec), chol->launch());
    for (uint32_t b = 0; b < batch; ++b) {
      for (uint32_t scx = 0; scx < n; ++scx) {
        const uint32_t slot = b * n + scx;
        solve->bind("l", slot, chol->fetch("l", slot));
        solve->bind("y", slot,
                    std::span<const cq15>(rhs_syms[b].data() +
                                              static_cast<size_t>(scx) * nue,
                                          nue));
      }
    }
    accumulate(stage_of(mimo_spec), solve->launch());

    for (uint32_t b = 0; b < batch; ++b) {
      const uint32_t s = s0 + b;
      for (uint32_t scx = 0; scx < n; ++scx) {
        dequantize_into(solve->fetch("x", b * n + scx), s_rhs, x);
        for (uint32_t l = 0; l < cfg.n_ue; ++l) {
          const cd sym = x[l] / cfg.ue_power;
          eq[l].push_back(sym);
          const cd want = sc.tx_grid(l, s)[scx] / cfg.ue_power;
          evm_acc += std::norm(sym - want);
          ++evm_cnt;
        }
      }
    }
  }
  out.evm = std::sqrt(evm_acc / static_cast<double>(evm_cnt));

  uint64_t nerr = 0, nbits = 0;
  for (uint32_t l = 0; l < cfg.n_ue; ++l) {
    out.bits[l] = phy::qam_demodulate(cfg.qam, eq[l]);
    const auto& want = sc.tx_bits(l);
    PP_CHECK(want.size() == out.bits[l].size(), "payload size mismatch");
    for (size_t i = 0; i < want.size(); ++i) {
      nerr += want[i] != out.bits[l][i];
      ++nbits;
    }
  }
  out.ber = static_cast<double>(nerr) / static_cast<double>(nbits);
  out.symbols = std::move(eq);
}

}  // namespace pp::runtime
