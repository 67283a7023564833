// bench::Report assembly + serialization: report_from() over a real
// measure_kernel() run, the deterministic/host-dependent marking rules,
// wall-clock statistics, and the emitted JSON parsed back by common::Json.
#include "bench/report.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "bench/bench_util.h"

namespace pp::bench {
namespace {

using common::Json;

Measured small_fft() {
  return measure_kernel(arch::Cluster_config::minipool(), "fft.serial",
                        runtime::Params().set("n", 64u), 3);
}

TEST(Report, RowFromRealKernelRun) {
  const Measured m = small_fft();
  const Row row = report_from("serial 64-pt", m, "minipool");

  EXPECT_EQ(row.name, "serial 64-pt");
  EXPECT_EQ(row.cluster, "minipool");
  EXPECT_EQ(row.kernel, "fft.serial");
  EXPECT_EQ(row.cores, m.desc.cores);
  EXPECT_EQ(row.macs, m.desc.macs);
  EXPECT_NE(row.params.find("n=64"), std::string::npos) << row.params;

  ASSERT_EQ(row.metrics.size(), 8u);
  EXPECT_EQ(row.metrics[0].name, "cycles");
  EXPECT_EQ(row.metrics[0].value, static_cast<double>(m.rep.cycles));
  EXPECT_EQ(row.metrics[1].name, "ipc");
  EXPECT_DOUBLE_EQ(row.metrics[1].value, m.rep.ipc());
  // Simulator-derived metrics are all deterministic and direction-gated.
  double frac_sum = 0.0;
  for (const Metric& metric : row.metrics) {
    EXPECT_TRUE(metric.deterministic) << metric.name;
    EXPECT_NE(metric.better, "info") << metric.name;
    if (metric.name.rfind("frac_", 0) == 0) frac_sum += metric.value;
  }
  // Every cycle is attributed to exactly one bucket.
  EXPECT_NEAR(frac_sum, 1.0, 1e-9);
}

TEST(Report, RunsAreReproducible) {
  // The premise of gating on deterministic metrics: identical runs give
  // identical reports.
  const Measured a = small_fft();
  const Measured b = small_fft();
  EXPECT_EQ(a.rep.cycles, b.rep.cycles);
  EXPECT_EQ(a.rep.instrs, b.rep.instrs);
}

TEST(Report, ToJsonShape) {
  Report rep = make_report("bench_x", "[Fig. 1]", "a title");
  rep.add_meta("arch", "both");
  rep.rows.push_back(report_from("serial 64-pt", small_fft(), "minipool"));
  rep.add_row("host row").metric(
      wall_metric("wall", {0.3, 0.1, 0.2}));

  const Json j = rep.to_json();
  EXPECT_EQ(j.get_str("schema", ""), "pp-bench-report-v1");
  EXPECT_EQ(j.get_str("bench", ""), "bench_x");
  EXPECT_EQ(j.get_str("figure", ""), "[Fig. 1]");
  EXPECT_FALSE(j.get_str("git", "").empty());
  EXPECT_EQ(j.find("meta")->get_str("arch", ""), "both");

  const Json& rows = *j.find("rows");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows.at(0).get_str("kernel", ""), "fft.serial");
  EXPECT_EQ(rows.at(0).get_str("cluster", ""), "minipool");
  const Json& cycles = rows.at(0).find("metrics")->at(0);
  EXPECT_EQ(cycles.get_str("name", ""), "cycles");
  EXPECT_TRUE(cycles.get_bool("deterministic", false));

  // The wall-clock row is marked host-dependent with its statistics.
  const Json& wall = rows.at(1).find("metrics")->at(0);
  EXPECT_FALSE(wall.get_bool("deterministic", true));
  EXPECT_EQ(wall.get_str("better", ""), "info");
  EXPECT_DOUBLE_EQ(wall.get_num("value", 0), 0.1);  // min
  EXPECT_DOUBLE_EQ(wall.get_num("min", 0), 0.1);
  EXPECT_DOUBLE_EQ(wall.get_num("median", 0), 0.2);
  EXPECT_EQ(wall.find("reps")->num_int(), 3);
}

TEST(Report, WallMetricStats) {
  const Metric m = wall_metric("t", {4.0, 1.0, 2.0, 3.0});
  EXPECT_EQ(m.reps, 4u);
  EXPECT_DOUBLE_EQ(m.min, 1.0);
  EXPECT_DOUBLE_EQ(m.value, 1.0);
  EXPECT_DOUBLE_EQ(m.median, 2.5);
  // Sample stdev of {1,2,3,4}.
  EXPECT_NEAR(m.stdev, 1.2909944487358056, 1e-12);
  // Quartiles 1.75 and 3.25 (linear interpolation) over the median 2.5.
  EXPECT_DOUBLE_EQ(m.spread, 0.6);
  EXPECT_EQ(wall_metric("t", {}).reps, 0u);
  EXPECT_DOUBLE_EQ(wall_metric("t", {5.0}).stdev, 0.0);
}

TEST(Report, WriteJsonRoundTrips) {
  Report rep = make_report("bench_rt", "[Table I]", "escaping \"title\"\n");
  rep.add_row("row \\ with \t specials")
      .metric("macs", 12345.0, "macs", true, "exact");

  const std::string path = ::testing::TempDir() + "report_rt.json";
  ASSERT_TRUE(rep.write_json(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[512];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());

  const Json j = Json::parse(text);
  EXPECT_EQ(j.get_str("title", ""), "escaping \"title\"\n");
  EXPECT_EQ(j.find("rows")->at(0).get_str("name", ""),
            "row \\ with \t specials");
  EXPECT_EQ(j.find("rows")->at(0).find("metrics")->at(0).get_num("value", 0),
            12345.0);
  // The dump parses to the exact same document (writer/parser agreement).
  EXPECT_EQ(Json::parse(j.dump()).dump(), j.dump());
}

TEST(Report, EmitHonorsJsonFlag) {
  const std::string path = ::testing::TempDir() + "report_emit.json";
  std::remove(path.c_str());
  Report rep = make_report("bench_emit", "[host]", "t");

  const char* no_flag[] = {"prog"};
  EXPECT_EQ(emit(rep, common::Cli(1, const_cast<char**>(no_flag))), 0);
  std::FILE* missing = std::fopen(path.c_str(), "r");
  EXPECT_EQ(missing, nullptr);  // no --json -> nothing written

  const char* with_flag[] = {"prog", "--json", path.c_str()};
  EXPECT_EQ(emit(rep, common::Cli(3, const_cast<char**>(with_flag))), 0);
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  std::remove(path.c_str());

  // Unwritable path -> non-zero, so benches fail loudly in scripts.
  const char* bad[] = {"prog", "--json", "/nonexistent-dir/x.json"};
  EXPECT_EQ(emit(rep, common::Cli(3, const_cast<char**>(bad))), 1);
}

TEST(Report, PlacementFromCliValidatesAgainstTheRegistry) {
  const char* good[] = {"prog", "--placement", "load-aware"};
  EXPECT_EQ(placement_from_cli(common::Cli(3, const_cast<char**>(good))),
            "load-aware");
  const char* none[] = {"prog"};
  EXPECT_EQ(placement_from_cli(common::Cli(1, const_cast<char**>(none))),
            "round-robin");
  // Unknown names exit 2 with the registered list - the same convention as
  // --backend/--arch, so scripts and users get choices, not an abort.
  const char* bad[] = {"prog", "--placement", "random"};
  EXPECT_EXIT(placement_from_cli(common::Cli(3, const_cast<char**>(bad))),
              ::testing::ExitedWithCode(2),
              "unknown placement 'random' for --placement; "
              "registered: round-robin load-aware");
}

TEST(Report, ValueFlagGivenLastExitsInsteadOfFallingBack) {
  // `--workers 2 --slots` must not serve the default slot count: every
  // value getter exits 2 on a flag with nothing after it.
  const char* last[] = {"prog", "--workers", "2", "--slots"};
  const common::Cli cli(4, const_cast<char**>(last));
  EXPECT_EQ(cli.get_u32("--workers", 1), 2u);
  EXPECT_EXIT(slots_from_cli(cli, 64), ::testing::ExitedWithCode(2),
              "missing value for --slots");
  EXPECT_EXIT(cli.get("--slots", "64"), ::testing::ExitedWithCode(2),
              "missing value for --slots");
  EXPECT_EXIT(cli.get_double("--slots", 64.0), ::testing::ExitedWithCode(2),
              "missing value for --slots");
  EXPECT_EXIT(cli.get_u32_list("--slots", "64"), ::testing::ExitedWithCode(2),
              "missing value for --slots");
}

TEST(Report, OverloadFromCliValidatesAgainstTheRegistry) {
  const char* good[] = {"prog", "--overload", "degrade"};
  EXPECT_EQ(overload_from_cli(common::Cli(3, const_cast<char**>(good))),
            "degrade");
  const char* none[] = {"prog"};
  EXPECT_EQ(overload_from_cli(common::Cli(1, const_cast<char**>(none))),
            "off");
  const char* bad[] = {"prog", "--overload", "shed"};
  EXPECT_EXIT(overload_from_cli(common::Cli(3, const_cast<char**>(bad))),
              ::testing::ExitedWithCode(2),
              "unknown policy 'shed' for --overload; "
              "registered: off drop queue degrade");
}

}  // namespace
}  // namespace pp::bench
