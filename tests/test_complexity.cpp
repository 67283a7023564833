// Complexity model (Table I / Fig. 3) and use-case chain structure tests.
#include <gtest/gtest.h>

#include "common/table.h"
#include "pusch/complexity.h"
#include "runtime/presets.h"

namespace {

using namespace pp;
using pusch::Pusch_dims;
using pusch::pusch_macs;

TEST(Complexity, TableOneFormulas) {
  Pusch_dims d;  // paper use case, NL defaults to 4
  const auto s = pusch_macs(d);
  EXPECT_DOUBLE_EQ(s.ofdm, 14.0 * 64 * 4096 * 12);       // log2(4096) = 12
  EXPECT_DOUBLE_EQ(s.bf, 14.0 * 4096 * 64 * 32);
  EXPECT_DOUBLE_EQ(s.mimo, 12.0 * 4096 * (64.0 / 3 + 32.0));
  EXPECT_DOUBLE_EQ(s.che, 2.0 * 4096 * 32 * 4);
  EXPECT_DOUBLE_EQ(s.ne, 2.0 * 4096 * 2 * 32 * 4);
}

TEST(Complexity, SharesSumToOne) {
  for (uint32_t nl : {1u, 2u, 4u, 8u, 16u}) {
    Pusch_dims d;
    d.n_ue = nl;
    const auto s = pusch_macs(d);
    EXPECT_NEAR((s.ofdm + s.bf + s.mimo + s.che + s.ne) / s.total(), 1.0,
                1e-12);
  }
}

TEST(Complexity, OfdmAndBfDominate) {
  // Paper Fig. 3: OFDM + BF together carry most of the work at low UE
  // counts.  In MAC terms BF is the larger of the two (NR*NB per
  // sub-carrier vs log2(N) per antenna); OFDM dominates *cycles* because
  // the butterfly is less MAC-dense (Fig. 9c).
  Pusch_dims d;
  d.n_ue = 4;
  const auto s = pusch_macs(d);
  EXPECT_GT((s.ofdm + s.bf) / s.total(), 0.9);
  EXPECT_GT(s.bf, s.ofdm);
}

TEST(Complexity, MimoShareGrowsWithUes) {
  double prev = 0.0;
  for (uint32_t nl : {1u, 2u, 4u, 8u, 16u}) {
    Pusch_dims d;
    d.n_ue = nl;
    const auto s = pusch_macs(d);
    const double share = s.mimo / s.total();
    EXPECT_GT(share, prev);
    prev = share;
  }
  EXPECT_GT(prev, 0.1);  // at 16 UEs MIMO is a major stage
}

TEST(ChainSim, MiniUseCaseStructure) {
  // A scaled-down use case runs end to end and produces a sane roll-up.
  runtime::Use_case_options cfg;
  cfg.cluster = arch::Cluster_config::minipool();
  cfg.dims.fft_size = 256;
  cfg.dims.n_rx = 4;
  cfg.dims.n_beams = 4;
  cfg.dims.n_ue = 4;
  const auto res = runtime::run_use_case(cfg);
  ASSERT_EQ(res.stages.size(), 3u);
  EXPECT_GT(res.parallel_cycles, 0u);
  EXPECT_GT(res.serial_cycles, res.parallel_cycles);
  EXPECT_GT(res.speedup(), 4.0);  // 16 cores, imperfect efficiency
  for (const auto& st : res.stages) {
    EXPECT_GT(st.rep.cycles, 0u) << st.name;
    EXPECT_GT(st.times, 0u) << st.name;
  }
}

TEST(Table, FormatsAlignedColumns) {
  common::Table t({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  const std::string s = t.str();
  EXPECT_NE(s.find("| a   | bb |"), std::string::npos);
  EXPECT_NE(s.find("| 333 | 4  |"), std::string::npos);
  EXPECT_EQ(common::Table::pct(0.5), "50.0%");
  EXPECT_EQ(common::Table::fmt(1.236, 2), "1.24");
}

}  // namespace
