// Adapters wrapping the concrete kernel classes behind the uniform
// runtime::Kernel lifecycle, plus their registration into the Registry.
//
// Kernel internals are untouched: an adapter only maps named (port, slot)
// pairs onto the concrete set_*/output accessors, resolves "0 = fill the
// cluster"-style parameter defaults against the machine's topology, and
// knows how to produce valid synthetic stimulus for its inputs (SPD
// matrices for Cholesky, pilots for CHE/NE, ...).
#include "runtime/registry.h"

#include "baseline/reference.h"
#include "kernels/che_ne.h"
#include "kernels/cholesky.h"
#include "kernels/fft.h"
#include "kernels/gram.h"
#include "kernels/mmm.h"
#include "runtime/pipeline.h"

namespace pp::runtime {

namespace {

using common::cq15;
using common::Rng;

std::vector<cq15> random_signal(size_t n, Rng& rng, double amp = 0.2) {
  std::vector<cq15> x(n);
  for (auto& v : x) v = common::to_cq15(rng.cnormal() * amp);
  return x;
}

// Random Hermitian positive-definite n x n matrix in Q1.15.
std::vector<cq15> random_spd(uint32_t n, Rng& rng) {
  std::vector<ref::cd> a(size_t{n} * 2 * n);
  for (auto& v : a) v = rng.cnormal() * 0.1;
  auto g = ref::gram(a, 2 * n, n);
  for (uint32_t i = 0; i < n; ++i) g[i * n + i] += 0.05;
  std::vector<cq15> q(g.size());
  for (size_t i = 0; i < g.size(); ++i) q[i] = common::to_cq15(g[i]);
  return q;
}

// Resolves a "cores" parameter: 0 means the whole cluster.
uint32_t resolve_cores(const sim::Machine& m, const Params& p) {
  const uint32_t c = p.getu("cores", 0);
  return c == 0 ? m.config().n_cores() : c;
}

Kernel_desc make_desc(std::string name, Params params) {
  Kernel_desc d;
  d.name = std::move(name);
  d.params = std::move(params);
  return d;
}

// ---------------------------------------------------------------- FFT ------

class Fft_serial_adapter final : public Kernel {
 public:
  Fft_serial_adapter(sim::Machine& m, arch::L1_alloc& alloc, const Params& p)
      : Kernel(make_desc("fft.serial", Params()
                                           .set("n", p.getu("n", 256))
                                           .set("reps", p.getu("reps", 1)))),
        n_(p.getu("n", 256)),
        reps_(p.getu("reps", 1)),
        core_(p.getu("core", 0)),
        fft_(m, alloc, n_, reps_) {
    desc_.cores = 1;
  }

  void bind(std::string_view port, uint32_t slot,
            std::span<const cq15> data) override {
    if (port != "x") unknown_port(port);
    fft_.set_input(slot, data);
  }
  void bind_default_inputs(Rng& rng) override {
    for (uint32_t r = 0; r < reps_; ++r) {
      fft_.set_input(r, random_signal(n_, rng));
    }
  }
  sim::Kernel_report launch() override { return fft_.run(core_); }
  std::vector<cq15> fetch(std::string_view port, uint32_t slot) const override {
    if (port != "y") unknown_port(port);
    return fft_.output(slot);
  }

 private:
  uint32_t n_, reps_, core_;
  kernels::Fft_serial fft_;
};

class Fft_parallel_adapter final : public Kernel {
 public:
  Fft_parallel_adapter(sim::Machine& m, arch::L1_alloc& alloc, const Params& p)
      : Kernel(make_desc("fft.parallel", {})),
        n_(p.getu("n", 256)),
        // Like chol.pair's `pairs`, an absent (or 0) `inst` fills the
        // cluster.
        inst_(resolve_fft_gangs(m.config(), n_, p)),
        reps_(p.getu("reps", 1)),
        folded_(p.getb("folded", true)),
        fft_(m, alloc, n_, inst_, reps_, folded_) {
    desc_.params.set("n", n_).set("inst", inst_).set("reps", reps_);
    if (!folded_) desc_.params.set("folded", false);
    desc_.cores = fft_.cores_used();
  }

  void bind(std::string_view port, uint32_t slot,
            std::span<const cq15> data) override {
    if (port != "x") unknown_port(port);
    fft_.set_input(slot / reps_, slot % reps_, data);
  }
  void bind_default_inputs(Rng& rng) override {
    for (uint32_t i = 0; i < inst_; ++i) {
      for (uint32_t r = 0; r < reps_; ++r) {
        fft_.set_input(i, r, random_signal(n_, rng));
      }
    }
  }
  sim::Kernel_report launch() override { return fft_.run(); }
  std::vector<cq15> fetch(std::string_view port, uint32_t slot) const override {
    if (port != "y") unknown_port(port);
    return fft_.output(slot / reps_, slot % reps_);
  }

 private:
  uint32_t n_, inst_, reps_;
  bool folded_;
  kernels::Fft_parallel fft_;
};

// ---------------------------------------------------------------- MMM ------

class Mmm_adapter final : public Kernel {
 public:
  Mmm_adapter(sim::Machine& m, arch::L1_alloc& alloc, const Params& p)
      : Kernel(make_desc("mmm", {})),
        d_{p.getu("m", 256), p.getu("k", 64), p.getu("p", 32)},
        serial_(p.gets("mode", "parallel") == "serial"),
        cores_(p.getu("cores", 0)),
        core_(p.getu("core", 0)),
        mmm_(m, alloc, d_, p.getu("wr", 4), p.getu("wc", 4)) {
    desc_.params.set("m", d_.m).set("k", d_.k).set("p", d_.p);
    const uint32_t wr = p.getu("wr", 4), wc = p.getu("wc", 4);
    if (wr != 4 || wc != 4) desc_.params.set("wr", wr).set("wc", wc);
    if (serial_) desc_.params.set("mode", "serial");
    desc_.cores = serial_ ? 1 : (cores_ ? cores_ : m.config().n_cores());
    desc_.macs = mmm_.cmacs();
  }

  void bind(std::string_view port, uint32_t,
            std::span<const cq15> data) override {
    if (port == "a") {
      mmm_.set_a(data);
    } else if (port == "b") {
      mmm_.set_b(data);
    } else {
      unknown_port(port);
    }
  }
  void bind_default_inputs(Rng& rng) override {
    mmm_.set_a(random_signal(size_t{d_.m} * d_.k, rng));
    mmm_.set_b(random_signal(size_t{d_.k} * d_.p, rng));
  }
  sim::Kernel_report launch() override {
    return serial_ ? mmm_.run_serial(core_) : mmm_.run_parallel(cores_);
  }
  std::vector<cq15> fetch(std::string_view port, uint32_t) const override {
    if (port != "c") unknown_port(port);
    return mmm_.c();
  }

 private:
  kernels::Mmm_dims d_;
  bool serial_;
  uint32_t cores_, core_;
  kernels::Mmm mmm_;
};

// ----------------------------------------------------------- Cholesky ------

class Chol_batch_adapter final : public Kernel {
 public:
  Chol_batch_adapter(sim::Machine& m, arch::L1_alloc& alloc, const Params& p)
      : Kernel(make_desc("chol.batch", {})),
        n_(p.getu("n", 4)),
        per_core_(p.getu("per_core", 1)),
        cores_(resolve_cores(m, p)),
        chol_(m, alloc, n_, per_core_, cores_) {
    desc_.params.set("n", n_).set("per_core", per_core_).set("cores", cores_);
    desc_.cores = cores_;
  }

  void bind(std::string_view port, uint32_t slot,
            std::span<const cq15> data) override {
    if (port != "g") unknown_port(port);
    chol_.set_g(slot / per_core_, slot % per_core_, data);
  }
  void bind_default_inputs(Rng& rng) override {
    for (uint32_t c = 0; c < cores_; ++c) {
      const auto g = random_spd(n_, rng);
      for (uint32_t i = 0; i < per_core_; ++i) chol_.set_g(c, i, g);
    }
  }
  sim::Kernel_report launch() override { return chol_.run(); }
  std::vector<cq15> fetch(std::string_view port, uint32_t slot) const override {
    if (port != "l") unknown_port(port);
    return chol_.l(slot / per_core_, slot % per_core_);
  }

 private:
  uint32_t n_, per_core_, cores_;
  kernels::Chol_batch chol_;
};

class Chol_pair_adapter final : public Kernel {
 public:
  Chol_pair_adapter(sim::Machine& m, arch::L1_alloc& alloc, const Params& p)
      : Kernel(make_desc("chol.pair", {})),
        n_(p.getu("n", 32)),
        pairs_(resolve_pairs(m, p)),
        mirrored_(p.getb("mirrored", true)),
        chol_(m, alloc, n_, pairs_, mirrored_) {
    desc_.params.set("n", n_).set("pairs", pairs_);
    if (!mirrored_) desc_.params.set("mirrored", false);
    desc_.cores = chol_.cores_used();
  }

  void bind(std::string_view port, uint32_t slot,
            std::span<const cq15> data) override {
    if (port != "g") unknown_port(port);
    chol_.set_g(slot / 2, slot % 2, data);
  }
  void bind_default_inputs(Rng& rng) override {
    for (uint32_t s = 0; s < 2 * pairs_; ++s) {
      chol_.set_g(s / 2, s % 2, random_spd(n_, rng));
    }
  }
  sim::Kernel_report launch() override { return chol_.run(); }
  std::vector<cq15> fetch(std::string_view port, uint32_t slot) const override {
    if (port != "l") unknown_port(port);
    return chol_.l(slot / 2, slot % 2);
  }

 private:
  static uint32_t resolve_pairs(const sim::Machine& m, const Params& p) {
    const uint32_t pairs = p.getu("pairs", 0);
    if (pairs != 0) return pairs;
    const uint32_t n = p.getu("n", 32);
    PP_CHECK(n >= 4, "chol.pair needs n >= 4 to resolve pairs=0");
    return std::max(1u, m.config().n_cores() / (n / 4));
  }

  uint32_t n_, pairs_;
  bool mirrored_;
  kernels::Chol_pair chol_;
};

class Chol_serial_adapter final : public Kernel {
 public:
  Chol_serial_adapter(sim::Machine& m, arch::L1_alloc& alloc, const Params& p)
      : Kernel(make_desc("chol.serial", Params()
                                            .set("n", p.getu("n", 4))
                                            .set("reps", p.getu("reps", 1)))),
        n_(p.getu("n", 4)),
        reps_(p.getu("reps", 1)),
        core_(p.getu("core", 0)),
        chol_(m, alloc, n_, reps_) {
    desc_.cores = 1;
  }

  void bind(std::string_view port, uint32_t slot,
            std::span<const cq15> data) override {
    if (port != "g") unknown_port(port);
    chol_.set_g(slot, data);
  }
  void bind_default_inputs(Rng& rng) override {
    for (uint32_t r = 0; r < reps_; ++r) chol_.set_g(r, random_spd(n_, rng));
  }
  sim::Kernel_report launch() override { return chol_.run(core_); }
  std::vector<cq15> fetch(std::string_view port, uint32_t slot) const override {
    if (port != "l") unknown_port(port);
    return chol_.l(slot);
  }

 private:
  uint32_t n_, reps_, core_;
  kernels::Chol_serial chol_;
};

class Trisolve_adapter final : public Kernel {
 public:
  Trisolve_adapter(sim::Machine& m, arch::L1_alloc& alloc, const Params& p)
      : Kernel(make_desc("trisolve.batch", {})),
        n_(p.getu("n", 4)),
        per_core_(p.getu("per_core", 1)),
        cores_(resolve_cores(m, p)),
        solve_(m, alloc, n_, per_core_, cores_) {
    desc_.params.set("n", n_).set("per_core", per_core_).set("cores", cores_);
    desc_.cores = cores_;
    staged_l_.resize(size_t{per_core_} * cores_);
    staged_y_.resize(size_t{per_core_} * cores_);
  }

  // The concrete kernel stages (L, y) together; buffer each half until its
  // partner arrives.
  void bind(std::string_view port, uint32_t slot,
            std::span<const cq15> data) override {
    auto& staged = port == "l"   ? staged_l_
                   : port == "y" ? staged_y_
                                 : (unknown_port(port), staged_l_);
    staged[slot].assign(data.begin(), data.end());
    if (!staged_l_[slot].empty() && !staged_y_[slot].empty()) {
      solve_.set_system(slot / per_core_, slot % per_core_, staged_l_[slot],
                        staged_y_[slot]);
      staged_l_[slot].clear();
      staged_y_[slot].clear();
    }
  }
  void bind_default_inputs(Rng& rng) override {
    // A well-conditioned lower-triangular L (0.5 on the diagonal).
    std::vector<cq15> l(size_t{n_} * n_, cq15{});
    for (uint32_t i = 0; i < n_; ++i) {
      l[size_t{i} * n_ + i] = cq15{common::to_q15(0.5), 0};
    }
    for (uint32_t c = 0; c < cores_; ++c) {
      for (uint32_t i = 0; i < per_core_; ++i) {
        solve_.set_system(c, i, l, random_signal(n_, rng, 0.1));
      }
    }
  }
  sim::Kernel_report launch() override { return solve_.run(); }
  std::vector<cq15> fetch(std::string_view port, uint32_t slot) const override {
    if (port != "x") unknown_port(port);
    return solve_.x(slot / per_core_, slot % per_core_);
  }

 private:
  uint32_t n_, per_core_, cores_;
  kernels::Trisolve_batch solve_;
  std::vector<std::vector<cq15>> staged_l_, staged_y_;
};

// ------------------------------------------------------- Gram / CHE / NE ---

class Gram_adapter final : public Kernel {
 public:
  Gram_adapter(sim::Machine& m, arch::L1_alloc& alloc, const Params& p)
      : Kernel(make_desc("gram.batch", {})),
        sc_(p.getu("sc", 256)),
        b_(p.getu("b", 8)),
        l_(p.getu("l", 2)),
        cores_(resolve_cores(m, p)),
        gram_(m, alloc, sc_, b_, l_, cores_) {
    desc_.params.set("sc", sc_).set("b", b_).set("l", l_).set("cores", cores_);
    desc_.cores = cores_;
  }

  void bind(std::string_view port, uint32_t,
            std::span<const cq15> data) override {
    if (port == "h") {
      gram_.set_h(data);
    } else if (port == "y") {
      gram_.set_y(data);
    } else {
      unknown_port(port);
    }
  }
  void bind_scalar(std::string_view port, double value) override {
    if (port != "sigma2") unknown_port(port);
    gram_.set_sigma2(common::to_q15(value));
  }
  void bind_default_inputs(Rng& rng) override {
    gram_.set_h(random_signal(size_t{sc_} * b_ * l_, rng, 0.15));
    gram_.set_y(random_signal(size_t{sc_} * b_, rng, 0.1));
    gram_.set_sigma2(common::to_q15(0.01));
  }
  sim::Kernel_report launch() override { return gram_.run(); }
  std::vector<cq15> fetch(std::string_view port, uint32_t slot) const override {
    if (port == "g") return gram_.g(slot);
    if (port == "rhs") return gram_.rhs(slot);
    unknown_port(port);
  }

 private:
  uint32_t sc_, b_, l_, cores_;
  kernels::Gram_batch gram_;
};

class Che_adapter final : public Kernel {
 public:
  Che_adapter(sim::Machine& m, arch::L1_alloc& alloc, const Params& p)
      : Kernel(make_desc("che", {})),
        sc_(p.getu("sc", 256)),
        b_(p.getu("b", 8)),
        l_(p.getu("l", 2)),
        cores_(resolve_cores(m, p)),
        che_(m, alloc, sc_, b_, l_, cores_) {
    desc_.params.set("sc", sc_).set("b", b_).set("l", l_).set("cores", cores_);
    desc_.cores = cores_;
  }

  void bind(std::string_view port, uint32_t slot,
            std::span<const cq15> data) override {
    if (port == "y_sep") {
      che_.set_y_sep(slot, data);
    } else if (port == "pilot") {
      che_.set_pilot(slot, data);
    } else {
      unknown_port(port);
    }
  }
  void bind_default_inputs(Rng& rng) override {
    for (uint32_t l = 0; l < l_; ++l) {
      che_.set_pilot(l, random_signal(sc_, rng, 0.5));
      che_.set_y_sep(l, random_signal(size_t{sc_} * b_, rng));
    }
  }
  sim::Kernel_report launch() override { return che_.run(); }
  std::vector<cq15> fetch(std::string_view port, uint32_t) const override {
    if (port != "h") unknown_port(port);
    return che_.h();
  }

 private:
  uint32_t sc_, b_, l_, cores_;
  kernels::Che che_;
};

class Ne_adapter final : public Kernel {
 public:
  Ne_adapter(sim::Machine& m, arch::L1_alloc& alloc, const Params& p)
      : Kernel(make_desc("ne", {})),
        sc_(p.getu("sc", 256)),
        b_(p.getu("b", 8)),
        l_(p.getu("l", 2)),
        cores_(resolve_cores(m, p)),
        ne_(m, alloc, sc_, b_, l_, cores_) {
    desc_.params.set("sc", sc_).set("b", b_).set("l", l_).set("cores", cores_);
    desc_.cores = cores_;
  }

  void bind(std::string_view port, uint32_t slot,
            std::span<const cq15> data) override {
    if (port == "y") {
      ne_.set_y(data);
    } else if (port == "h") {
      ne_.set_h(data);
    } else if (port == "pilot") {
      ne_.set_pilot(slot, data);
    } else {
      unknown_port(port);
    }
  }
  void bind_default_inputs(Rng& rng) override {
    for (uint32_t l = 0; l < l_; ++l) {
      ne_.set_pilot(l, random_signal(sc_, rng, 0.5));
    }
    ne_.set_y(random_signal(size_t{sc_} * b_, rng));
    ne_.set_h(random_signal(size_t{sc_} * b_ * l_, rng, 0.1));
  }
  sim::Kernel_report launch() override { return ne_.run(); }
  std::vector<cq15> fetch(std::string_view port, uint32_t) const override {
    unknown_port(port);
  }
  double fetch_scalar(std::string_view port) const override {
    if (port != "sigma2") return Kernel::fetch_scalar(port);
    return ne_.sigma2();
  }

 private:
  uint32_t sc_, b_, l_, cores_;
  kernels::Ne ne_;
};

template <typename A>
Kernel_factory factory() {
  return [](sim::Machine& m, arch::L1_alloc& alloc, const Params& p) {
    return std::unique_ptr<Kernel>(new A(m, alloc, p));
  };
}

}  // namespace

void register_builtin_kernels(Registry& r) {
  r.add("fft.serial", "single-core radix-4 FFT baseline (n, reps)",
        {"n", "reps", "core"}, factory<Fft_serial_adapter>());
  r.add("fft.parallel",
        "parallel folded-layout FFT, n/16 cores per gang (n, inst, reps, "
        "folded)",
        {"n", "inst", "reps", "folded"}, factory<Fft_parallel_adapter>());
  r.add("mmm",
        "windowed complex matrix-matrix multiply (m, k, p, wr, wc, mode, "
        "cores)",
        {"m", "k", "p", "wr", "wc", "mode", "cores", "core"},
        factory<Mmm_adapter>());
  r.add("chol.batch",
        "per-core batched small Cholesky decompositions (n, per_core, cores)",
        {"n", "per_core", "cores"}, factory<Chol_batch_adapter>());
  r.add("chol.pair",
        "mirrored-couple parallel Cholesky, n/4 cores per pair (n, pairs, "
        "mirrored)",
        {"n", "pairs", "mirrored"}, factory<Chol_pair_adapter>());
  r.add("chol.serial", "single-core Cholesky baseline (n, reps)",
        {"n", "reps", "core"}, factory<Chol_serial_adapter>());
  r.add("trisolve.batch",
        "batched forward+backward triangular solves (n, per_core, cores)",
        {"n", "per_core", "cores"}, factory<Trisolve_adapter>());
  r.add("gram.batch",
        "per-subcarrier Gramian + matched filter (sc, b, l, cores)",
        {"sc", "b", "l", "cores"}, factory<Gram_adapter>());
  r.add("che", "block-LS channel estimation (sc, b, l, cores)",
        {"sc", "b", "l", "cores"}, factory<Che_adapter>());
  r.add("ne", "noise-variance estimation (sc, b, l, cores)",
        {"sc", "b", "l", "cores"}, factory<Ne_adapter>());
}

}  // namespace pp::runtime
