#include "runtime/presets.h"

#include <algorithm>
#include <string>

namespace pp::runtime {

Pipeline use_case_pipeline(const Use_case_options& opt) {
  const auto& cluster = opt.cluster;
  const auto& dims = opt.dims;
  const uint32_t n_cores = cluster.n_cores();
  const uint32_t fft_n = dims.fft_size;

  Pipeline p("pusch-use-case", cluster);

  // ---- FFT: n_rx transforms per symbol --------------------------------
  {
    const uint32_t n_inst = resolve_fft_gangs(cluster, fft_n, Params());
    const uint32_t reps = std::max(1u, std::min(16u, dims.n_rx / n_inst));
    const uint32_t per_run = n_inst * reps;
    const uint32_t runs_per_symbol = (dims.n_rx + per_run - 1) / per_run;

    Stage_spec st;
    st.name = "OFDM FFT " + std::to_string(per_run) + "x" +
              std::to_string(fft_n) + "pt";
    st.role = Stage_role::fft;
    st.run = {"fft.parallel",
              Params().set("n", fft_n).set("inst", n_inst).set("reps", reps),
              uint64_t{runs_per_symbol} * dims.n_symb};
    st.serial = {"fft.serial", Params().set("n", fft_n),
                 uint64_t{dims.n_rx} * dims.n_symb};
    p.add(std::move(st));
  }

  // ---- Beamforming MMM: (n_sc x n_rx) x (n_rx x n_beams) per symbol ---
  {
    // MemPool's 1 MiB L1 cannot hold the full 4096x64 grid at once; process
    // row slices (the real system streams symbol data through L1 anyway).
    const uint64_t words_needed =
        static_cast<uint64_t>(fft_n) * dims.n_rx +
        static_cast<uint64_t>(dims.n_rx) * dims.n_beams +
        static_cast<uint64_t>(fft_n) * dims.n_beams;
    uint32_t slices = 1;
    while (words_needed / slices > cluster.l1_words() * 3 / 4) slices *= 2;
    const uint32_t m_rows = fft_n / slices;

    Stage_spec st;
    st.name = "BF MMM " + std::to_string(m_rows) + "x" +
              std::to_string(dims.n_rx) + "x" + std::to_string(dims.n_beams);
    st.role = Stage_role::beamform;
    st.run = {"mmm",
              Params().set("m", m_rows).set("k", dims.n_rx).set("p",
                                                                dims.n_beams),
              uint64_t{slices} * dims.n_symb};
    // Serial baseline on a 512-row slice, scaled (strictly linear in rows).
    st.serial = {"mmm",
                 Params()
                     .set("m", 512u)
                     .set("k", dims.n_rx)
                     .set("p", dims.n_beams)
                     .set("mode", "serial"),
                 uint64_t{fft_n / 512} * dims.n_symb};
    p.add(std::move(st));
  }

  // ---- MIMO Cholesky: n_sc small decompositions per data symbol -------
  {
    uint32_t per_core = fft_n / n_cores;
    uint64_t times = dims.n_data_symb();
    if (opt.batch_cholesky) {
      // Batch up to 4 data symbols between barriers, L1 permitting
      // (each 4x4 G+L pair costs 8 rows per matrix per core).
      const uint32_t max_per_core = cluster.bank_words / 8 / 2;
      uint32_t batch = std::min(4u, max_per_core / std::max(per_core, 1u));
      batch = std::max(batch, 1u);
      per_core *= batch;
      times = (dims.n_data_symb() + batch - 1) / batch;
    }
    Stage_spec st;
    st.name = "MIMO Chol " + std::to_string(per_core) + "x" +
              std::to_string(n_cores) + " " + std::to_string(dims.n_ue) + "x" +
              std::to_string(dims.n_ue);
    st.role = Stage_role::mimo_solve;
    st.run = {"chol.batch",
              Params().set("n", dims.n_ue).set("per_core", per_core), times};
    st.serial = {"chol.serial",
                 Params().set("n", dims.n_ue).set("reps", 16u),
                 uint64_t{fft_n / 16} * dims.n_data_symb()};
    p.add(std::move(st));
  }

  // ---- optional extension rows ----------------------------------------
  if (opt.include_estimation) {
    const uint32_t slice_sc = 512;
    const uint32_t slices = fft_n / slice_sc;
    const Params est = Params()
                           .set("sc", slice_sc)
                           .set("b", dims.n_beams)
                           .set("l", dims.n_ue);
    {
      Stage_spec st;
      st.name = "CHE (ext)";
      st.role = Stage_role::che;
      st.run = {"che", est, uint64_t{dims.n_pilot_symb} * slices};
      st.core_set = false;
      p.add(std::move(st));
    }
    {
      Stage_spec st;
      st.name = "NE (ext)";
      st.role = Stage_role::ne;
      st.run = {"ne", est, uint64_t{dims.n_pilot_symb} * slices};
      st.core_set = false;
      p.add(std::move(st));
    }
    {
      // The Gramian slice is widened to the L1 budget so every core gets
      // work and the join barrier amortizes over more sub-carriers.
      const uint32_t gram_sc = cluster.l1_words() >= (1u << 20) ? 2048 : 512;
      Stage_spec st;
      st.name = "MIMO gramian (ext)";
      st.role = Stage_role::gram;
      st.run = {"gram.batch",
                Params()
                    .set("sc", gram_sc)
                    .set("b", dims.n_beams)
                    .set("l", dims.n_ue),
                uint64_t{dims.n_data_symb()} * (fft_n / gram_sc)};
      st.core_set = false;
      p.add(std::move(st));
    }
    {
      Stage_spec st;
      st.name = "MIMO solves (ext)";
      st.role = Stage_role::custom;
      st.run = {"trisolve.batch",
                Params().set("n", dims.n_ue).set("per_core", fft_n / n_cores),
                dims.n_data_symb()};
      st.core_set = false;
      p.add(std::move(st));
    }
  }
  return p;
}

Rollup_result run_use_case(const Use_case_options& opt) {
  Measure_options mopt;
  mopt.shards = std::max(1u, opt.sim_shards);
  mopt.reuse_reports = opt.reuse_reports;
  return use_case_pipeline(opt).measure(mopt);
}

Pipeline uplink_pipeline(const arch::Cluster_config& cluster,
                         const Uplink_options& opt) {
  auto stage = [](const char* name, Stage_role role, const char* kernel,
                  double rescale) {
    Stage_spec st;
    st.name = name;
    st.role = role;
    st.run.kernel = kernel;
    st.rescale = rescale;
    return st;
  };
  // `rescale` is the block scale the host applies when quantizing a
  // stage's input: time samples into the FFT (8), the frequency grid into
  // the MMM and the beam grid into CHE, NE and the matched filter (4).  The
  // chol/solve stage inherits the gram stage's scale through the rhs.
  Stage_spec solve =
      stage("MIMO chol+solve", Stage_role::mimo_solve, "chol.batch", 1.0);
  if (opt.chol_symb_batch > 1) {
    solve.run.params.set("symb_batch", opt.chol_symb_batch);
  }
  Pipeline p("pusch-uplink", cluster);
  p.add(stage("OFDM FFT", Stage_role::fft, "fft.parallel", 8.0))
      .add(stage("BF MMM", Stage_role::beamform, "mmm", 4.0))
      .add(stage("CHE", Stage_role::che, "che", 4.0))
      .add(stage("NE", Stage_role::ne, "ne", 4.0))
      .add(stage("MIMO gram", Stage_role::gram, "gram.batch", 4.0))
      .add(std::move(solve));
  return p;
}

std::vector<std::pair<std::string, std::string>> preset_names() {
  return {
      {"uplink",
       "end-to-end functional PUSCH receive chain (uplink_pipeline); "
       "executes on any backend"},
      {"use-case",
       "analytic Fig. 9c use-case roll-up (use_case_pipeline); measured on "
       "the simulated cluster"},
  };
}

}  // namespace pp::runtime
