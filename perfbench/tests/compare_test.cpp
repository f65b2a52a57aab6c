// The gate's RunResult comparison must flag exactly what the repository's
// deep comparison (tests/result_compare.hpp) flags: identical results pass
// both, and a result changed in any one compared field fails both.
#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "perfbench/src/gate.hpp"
#include "src/scenario/scenario.hpp"
#include "tests/result_compare.hpp"

namespace {

using abp::stats::RunResult;

RunResult small_run() {
  abp::scenario::ScenarioConfig cfg = abp::scenario::paper_scenario(
      abp::traffic::PatternKind::II, abp::core::ControllerType::UtilBp);
  cfg.grid.rows = 2;
  cfg.grid.cols = 2;
  cfg.duration_s = 300.0;
  cfg.watches.push_back({0, 0, abp::net::Side::North, "north"});
  return abp::scenario::run_scenario(cfg);
}

bool gate_flags(const RunResult& a, const RunResult& b) {
  std::vector<std::string> problems;
  perfbench::check_identical(a, b, "test", problems);
  return !problems.empty();
}

bool result_compare_flags(const RunResult& a, const RunResult& b) {
  ::testing::TestPartResultArray failures;
  {
    ::testing::ScopedFakeTestPartResultReporter reporter(
        ::testing::ScopedFakeTestPartResultReporter::INTERCEPT_ONLY_CURRENT_THREAD,
        &failures);
    abp::testing::expect_results_identical(a, b);
  }
  return failures.size() > 0;
}

TEST(GateCompare, IdenticalResultsPassBoth) {
  const RunResult a = small_run();
  const RunResult b = small_run();
  EXPECT_FALSE(gate_flags(a, b));
  EXPECT_FALSE(result_compare_flags(a, b));
}

TEST(GateCompare, EveryComparedFieldIsFlaggedByBoth) {
  const RunResult base = small_run();
  ASSERT_FALSE(base.phase_traces.empty());
  ASSERT_FALSE(base.road_series.empty());
  const std::vector<std::pair<std::string, std::function<void(RunResult&)>>> mutations = {
      {"generated", [](RunResult& r) { r.metrics.generated += 1; }},
      {"entered", [](RunResult& r) { r.metrics.entered += 1; }},
      {"completed", [](RunResult& r) { r.metrics.completed += 1; }},
      {"in_network_at_end", [](RunResult& r) { r.metrics.in_network_at_end += 1; }},
      {"queuing sample", [](RunResult& r) { r.metrics.queuing_time_s.add(1e6); }},
      {"travel sample", [](RunResult& r) { r.metrics.travel_time_s.add(1e6); }},
      {"entry_blocked", [](RunResult& r) { r.metrics.entry_blocked_time_s += 1.0; }},
      {"duration", [](RunResult& r) { r.duration_s += 1.0; }},
      {"in_network_series", [](RunResult& r) { r.in_network_series.push(1e9, 1.0); }},
      {"road_series", [](RunResult& r) { r.road_series[0].push(1e9, 1.0); }},
      {"road_series count", [](RunResult& r) { r.road_series.emplace_back("extra"); }},
      {"phase_trace", [](RunResult& r) { r.phase_traces[0] = abp::stats::PhaseTrace{}; }},
      {"detection samples", [](RunResult& r) { r.detections.samples += 1; }},
      {"detection event", [](RunResult& r) { r.detections.events.emplace_back(); }},
  };
  for (const auto& [name, mutate] : mutations) {
    SCOPED_TRACE(name);
    RunResult changed = base;
    mutate(changed);
    EXPECT_TRUE(gate_flags(base, changed));
    EXPECT_TRUE(result_compare_flags(base, changed));
  }
}

TEST(GateCompare, ConservationFlagsALostVehicle) {
  RunResult r = small_run();
  std::vector<std::string> problems;
  perfbench::check_conservation(r, problems);
  EXPECT_TRUE(problems.empty());
  r.metrics.completed += 1;
  perfbench::check_conservation(r, problems);
  EXPECT_EQ(problems.size(), 1u);
}

}  // namespace
