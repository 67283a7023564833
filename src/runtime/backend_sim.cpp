// The Q1.15 chain's executor on the cycle-approximate simulated cluster.
//
// Every stage is a launch of its registry kernel through the uniform
// runtime::Kernel lifecycle (bind, launch, fetch).  Between launches the
// chain skeleton (runtime/q15_chain.cpp) does all host marshaling - the
// role DMA + block-floating-point shifts play in a real deployment: a
// kernel's Q15 output goes to the next kernel through runtime::Q15_rescale,
// never through double precision.  One simulated machine serves one slot,
// so this backend stays allocating and the zero-steady-state gate applies
// to the host backends only (docs/DETERMINISM.md section 10).
#include "runtime/backend.h"
#include "runtime/registry.h"
#include "sim/machine.h"

namespace pp::runtime {

namespace {

using common::cq15;

void accumulate(Slot_result::Stage& st, const sim::Kernel_report& r) {
  st.cycles += r.cycles;
  st.instrs += r.instrs;
  for (size_t k = 0; k < sim::n_stall_kinds; ++k) st.stall[k] += r.stall[k];
  ++st.runs;
}

}  // namespace

// One slot on the simulated cluster: persistent kernel instances (buffers
// live in L1 across the slot), instantiated from the registry in a fixed
// order so the L1 layout is reproducible, and the stage rows their
// launches accumulate into.
struct Sim_backend::Slot {
  explicit Slot(const Q15_chain& c);

  Slot_result::Stage& stage(const Q15_chain& c, const Stage_spec& spec) {
    return stages[&spec - c.pipeline.stages().data()];
  }

  sim::Machine m;
  arch::L1_alloc alloc;
  uint32_t fft_inst;
  std::unique_ptr<Kernel> fft, mmm, che, ne, gram, chol, solve;
  std::vector<Slot_result::Stage> stages;  // one per pipeline stage
  // Bind staging: bind() copies into L1 before returning, so one buffer
  // serves every port.
  std::vector<cq15> q;  // one antenna's quantized time samples
  std::vector<cq15> a;  // beamforming input, gathered across antennas
};

Sim_backend::Slot::Slot(const Q15_chain& c)
    : m(c.pipeline.cluster()),
      alloc(m.config()),
      // Concurrent FFT gangs: never more than there are antennas to
      // transform (excess gangs would run on unbound inputs and inflate
      // the cycle counts).
      fft_inst(resolve_fft_gangs(c.pipeline.cluster(), c.cfg.fft_size,
                                 c.fft.run.params, c.cfg.n_rx)),
      stages(c.pipeline.stages().size()) {
  const auto& cfg = c.cfg;
  const uint32_t n = cfg.fft_size;
  for (size_t i = 0; i < stages.size(); ++i) {
    stages[i].name = c.pipeline.stages()[i].name;
  }
  fft = make_kernel(c.fft.run.kernel, m, alloc,
                    kernel_params(c.fft.run)
                        .set("n", n)
                        .set("inst", fft_inst)
                        .set("reps", 1u));
  mmm = make_kernel(c.bf.run.kernel, m, alloc,
                    kernel_params(c.bf.run)
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
  che = make_kernel(c.che.run.kernel, m, alloc, est_dims(c.che));
  ne = make_kernel(c.ne.run.kernel, m, alloc,
                   est_dims(c.ne).set("cores", c.ne_cores));
  gram = make_kernel(c.gram.run.kernel, m, alloc, est_dims(c.gram));
  // Cholesky symbol batching: decompositions of `batch` data symbols are
  // queued per core and closed by a single barrier.
  const uint32_t n_cores = m.config().n_cores();
  const uint32_t per_sym = n / n_cores > 0 ? n / n_cores : 1;
  const Params mimo_dims = kernel_params(c.mimo.run)
                               .set("n", cfg.n_ue)
                               .set("per_core", per_sym * c.batch);
  chol = make_kernel(c.mimo.run.kernel, m, alloc, mimo_dims);
  solve = make_kernel("trisolve.batch", m, alloc, mimo_dims);
}

Sim_backend::Sim_backend() = default;
Sim_backend::~Sim_backend() = default;

void Sim_backend::close_slot(const Q15_chain&, Slot_result& out) {
  out.stages = std::move(slot_->stages);
  slot_.reset();
}

void Sim_backend::fft_beamform(const Q15_chain& c,
                               common::Ws_grid<cq15>& beams) {
  // The front half opens each slot on a fresh machine, which lives on
  // through the back half until close_slot releases it.
  slot_ = std::make_unique<Slot>(c);
  Slot& s = *slot_;
  const auto& cfg = c.cfg;
  const uint32_t n = cfg.fft_size;
  s.a.resize(static_cast<size_t>(n) * cfg.n_rx);
  for (uint32_t sym = 0; sym < cfg.n_symb; ++sym) {
    for (uint32_t r0 = 0; r0 < cfg.n_rx; r0 += s.fft_inst) {
      const uint32_t nb = std::min(s.fft_inst, cfg.n_rx - r0);
      for (uint32_t i = 0; i < nb; ++i) {
        quantize_into(c.sc.antenna_time(sym, r0 + i), c.s_time, s.q);
        s.fft->bind("x", i, s.q);
      }
      accumulate(s.stage(c, c.fft), s.fft->launch());
      // Beamforming input A (n x n_rx): antenna r0 + i is column r0 + i.
      for (uint32_t i = 0; i < nb; ++i) {
        const auto y = s.fft->fetch("y", i);
        for (uint32_t scx = 0; scx < n; ++scx) {
          s.a[static_cast<size_t>(scx) * cfg.n_rx + r0 + i] =
              c.to_grid(y[scx]);
        }
      }
    }
    s.mmm->bind("a", 0, s.a);
    s.mmm->bind("b", 0, c.ws.bq);
    accumulate(s.stage(c, c.bf), s.mmm->launch());
    const auto grid = s.mmm->fetch("c");
    PP_CHECK(grid.size() == beams.cols(),
             "MMM output is the symbol's beam grid");
    std::copy(grid.begin(), grid.end(), beams.row(sym).begin());
  }
}

void Sim_backend::che(const Q15_chain& c) {
  Slot& s = *slot_;
  for (uint32_t l = 0; l < c.cfg.n_ue; ++l) {
    s.che->bind("pilot", l, c.ws.pilots[l]);
    s.che->bind("y_sep", l, c.ws.y_sep[l]);
  }
  accumulate(s.stage(c, c.che), s.che->launch());
  c.hand_on_che(s.che->fetch("h").data(), 0, c.cfg.fft_size);
}

double Sim_backend::ne(const Q15_chain& c) {
  Slot& s = *slot_;
  for (uint32_t l = 0; l < c.cfg.n_ue; ++l) {
    s.ne->bind("pilot", l, c.ws.pilots[l]);
  }
  s.ne->bind("y", 0, c.ws.y_est);
  s.ne->bind("h", 0, c.ws.h_est);
  accumulate(s.stage(c, c.ne), s.ne->launch());
  return s.ne->fetch_scalar("sigma2");
}

// The Gramian and matched filter run on the simulated kernel; the host only
// reshuffles their interleaved outputs into the Cholesky and solve kernels'
// folded per-core layout (a DMA job in a real deployment).
void Sim_backend::mimo(const Q15_chain& c, const common::Ws_grid<cq15>& beams,
                       uint32_t s0, double sigma2_hat) {
  Slot& s = *slot_;
  const uint32_t n = c.cfg.fft_size;
  s.gram->bind("h", 0, c.ws.h_gram);
  s.gram->bind_scalar("sigma2", sigma2_hat);
  for (uint32_t b = 0; b < c.batch; ++b) {
    c.hand_on_rhs(beams, s0, b, 0, n);
    s.gram->bind("y", 0, c.ws.y_rhs.row(b));
    accumulate(s.stage(c, c.gram), s.gram->launch());
    for (uint32_t scx = 0; scx < n; ++scx) {
      s.chol->bind("g", b * n + scx, s.gram->fetch("g", scx));
      s.solve->bind("y", b * n + scx, s.gram->fetch("rhs", scx));
    }
  }
  // One batched Cholesky + solve launch covers the group.
  accumulate(s.stage(c, c.mimo), s.chol->launch());
  for (uint32_t slot = 0; slot < c.batch * n; ++slot) {
    s.solve->bind("l", slot, s.chol->fetch("l", slot));
  }
  accumulate(s.stage(c, c.mimo), s.solve->launch());
  for (uint32_t slot = 0; slot < c.batch * n; ++slot) {
    const auto x = s.solve->fetch("x", slot);
    std::copy(x.begin(), x.end(),
              c.ws.xs.begin() + static_cast<ptrdiff_t>(slot) * c.cfg.n_ue);
  }
}

}  // namespace pp::runtime
