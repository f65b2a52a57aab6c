// The surrogate pipeline's determinism and serialization contract
// (src/surrogate/): the CalibrationProfile JSON round trip is byte-stable
// with scenario_io's strictness (unknown keys and bad scales rejected by
// dotted path), calibration and the full sweep report are bit-identical
// across jobs counts, the spot-check selection is a pure function of
// (ranking, options, seed), and sim::effective_grid applies a profile's
// scales only to enabled queue-backend configs — the guarantee that keeps
// every existing micro golden pin untouched by this subsystem.
#include <gtest/gtest.h>

#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/scenario/scenario.hpp"
#include "src/sim/run_setup.hpp"
#include "src/surrogate/calibration_profile.hpp"
#include "src/surrogate/calibrator.hpp"
#include "src/surrogate/sweep.hpp"
#include "src/util/json.hpp"

namespace abp::surrogate {
namespace {

scenario::ScenarioConfig small_family() {
  scenario::ScenarioConfig cfg = scenario::paper_scenario(
      traffic::PatternKind::II, core::ControllerType::UtilBp);
  cfg.name = "surrogate-family";
  cfg.grid.rows = 2;
  cfg.grid.cols = 2;
  cfg.duration_s = 150.0;
  cfg.seed = 11;
  return cfg;
}

CalibrationOptions quick_calibration(int jobs) {
  CalibrationOptions opt;
  opt.replications = 2;
  opt.passes = 2;
  opt.jobs = jobs;
  // The dev container may be single-vCPU; jobs-invariance is exactly what
  // this test pins, so oversubscribing is the point, not a hazard.
  opt.allow_oversubscribe = true;
  opt.duration_s = 120.0;
  return opt;
}

TEST(SurrogateProfile, RoundTripIsByteStable) {
  CalibrationProfile p;
  p.name = "demo-fit";
  p.scenario = "surrogate-family";
  p.service_scale = 0.75;
  p.transit_scale = 1.5;
  p.capacity_scale = 1.0;
  p.objective = 0.015625;
  p.evaluations = 9;
  p.replications = 2;
  p.duration_s = 120.0;
  p.seed = 11;

  const std::string dumped = dump_profile(p);
  const CalibrationProfile reloaded = load_profile(dumped);
  EXPECT_EQ(dump_profile(reloaded), dumped);
  EXPECT_EQ(reloaded.name, p.name);
  EXPECT_EQ(reloaded.service_scale, p.service_scale);
  EXPECT_EQ(reloaded.transit_scale, p.transit_scale);
  EXPECT_EQ(reloaded.capacity_scale, p.capacity_scale);
  EXPECT_EQ(reloaded.seed, p.seed);
}

TEST(SurrogateProfile, RejectsUnknownKeysAndBadScales) {
  try {
    (void)load_profile(R"({"version": 1, "bogus": 3})");
    FAIL() << "unknown key accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "bogus: unknown key");
  }
  try {
    (void)load_profile(R"({"version": 1, "service_scale": 0})");
    FAIL() << "zero scale accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "service_scale: must be > 0");
  }
  try {
    (void)load_profile(R"({"version": 2})");
    FAIL() << "future version accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "version: unsupported profile version 2 (this build reads version 1)");
  }
}

// Integers too large for their field fail with the field's path, through the
// same readers the scenario loader uses.
TEST(SurrogateProfile, RejectsOutOfRangeIntegersByPath) {
  const std::pair<const char*, const char*> cases[] = {
      {R"({"version": 1, "evaluations": 99999999999999999999})",
       "evaluations: integer out of range"},
      {R"({"version": 1, "seed": 99999999999999999999})", "seed: must fit in 64 bits"},
      {R"({"version": 99999999999999999999})", "version: integer out of range"},
  };
  for (const auto& [text, expected] : cases) {
    SCOPED_TRACE(text);
    try {
      (void)load_profile(text);
      FAIL() << "out-of-range integer accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), expected);
    }
  }
}

TEST(SurrogateProfile, RejectsDeepNestingAsAParseError) {
  const std::string deep =
      R"({"version": 1, "name": )" + std::string(100000, '[') + std::string(100000, ']') + "}";
  EXPECT_THROW((void)load_profile(deep), json::ParseError);
}

TEST(SurrogateGrid, EffectiveGridAppliesOnlyToEnabledQueueConfigs) {
  scenario::ScenarioConfig cfg = small_family();
  cfg.surrogate.enabled = true;
  cfg.surrogate.service_scale = 0.5;
  cfg.surrogate.transit_scale = 2.0;
  cfg.surrogate.capacity_scale = 0.5;

  cfg.simulator = scenario::SimulatorKind::Micro;
  const net::GridConfig micro_grid = sim::effective_grid(cfg);
  EXPECT_EQ(micro_grid.service_rate, cfg.grid.service_rate);
  EXPECT_EQ(micro_grid.speed_limit_mps, cfg.grid.speed_limit_mps);
  EXPECT_EQ(micro_grid.capacity, cfg.grid.capacity);

  cfg.simulator = scenario::SimulatorKind::Queue;
  const net::GridConfig queue_grid = sim::effective_grid(cfg);
  EXPECT_EQ(queue_grid.service_rate, cfg.grid.service_rate * 0.5);
  EXPECT_EQ(queue_grid.speed_limit_mps, cfg.grid.speed_limit_mps / 2.0);
  EXPECT_EQ(queue_grid.capacity, cfg.grid.capacity / 2);

  // The floor: pathological downscales still build a drivable road.
  cfg.surrogate.capacity_scale = 1e-6;
  EXPECT_EQ(sim::effective_grid(cfg).capacity, 1);

  cfg.surrogate.enabled = false;
  EXPECT_EQ(sim::effective_grid(cfg).capacity, cfg.grid.capacity);
}

TEST(SurrogateCalibration, FitIsBitIdenticalAcrossJobsCounts) {
  const scenario::ScenarioConfig family = small_family();
  const CalibrationProfile serial = calibrate(family, quick_calibration(1));
  const CalibrationProfile parallel = calibrate(family, quick_calibration(2));
  // Byte-equality of the canonical dump covers every field at full precision.
  EXPECT_EQ(dump_profile(serial), dump_profile(parallel));
  EXPECT_GT(serial.evaluations, 0);
  EXPECT_EQ(serial.replications, 2);
  EXPECT_EQ(serial.seed, family.seed);
}

TEST(SurrogateSpotChecks, SelectionIsDeterministicStratifiedAndSorted) {
  std::vector<std::size_t> ranking(40);
  std::iota(ranking.begin(), ranking.end(), std::size_t{0});
  // Shuffle-free permutation: reverse puts the "best" points at high indices
  // so head-of-ranking and low-index are distinguishable below.
  std::reverse(ranking.begin(), ranking.end());

  SweepOptions opt;
  opt.best_k = 3;
  opt.sample_fraction = 0.1;

  const std::vector<std::size_t> a = spot_check_selection(ranking, opt, 99);
  const std::vector<std::size_t> b = spot_check_selection(ranking, opt, 99);
  EXPECT_EQ(a, b);

  // best_k head: ranking[0..2] = {39, 38, 37} must all be chosen.
  for (const std::size_t want : {std::size_t{39}, std::size_t{38}, std::size_t{37}}) {
    EXPECT_NE(std::find(a.begin(), a.end(), want), a.end());
  }
  // 3 best + ceil(0.1 * 40) = 4 strata of the remaining tail.
  EXPECT_EQ(a.size(), 7u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  for (const std::size_t idx : a) EXPECT_LT(idx, ranking.size());

  // Selection reacts to the seed only through the stratified tail; the
  // best-k head never moves.
  const std::vector<std::size_t> c = spot_check_selection(ranking, opt, 100);
  for (const std::size_t want : {std::size_t{39}, std::size_t{38}, std::size_t{37}}) {
    EXPECT_NE(std::find(c.begin(), c.end(), want), c.end());
  }
  EXPECT_EQ(c.size(), 7u);
}

TEST(SurrogateSweep, ReportIsBitIdenticalAcrossJobsCounts) {
  const scenario::ScenarioConfig base = small_family();
  CalibrationProfile profile;
  profile.name = "unit-profile";
  profile.service_scale = 0.875;
  profile.transit_scale = 1.25;
  profile.capacity_scale = 1.0;

  SweepAxes axes;
  axes.controllers = {core::ControllerType::CapBp, core::ControllerType::FixedTime};
  axes.patterns = {traffic::PatternKind::I, traffic::PatternKind::II};
  axes.periods_s = {12.0, 16.0};
  ASSERT_EQ(axis_points(axes).size(), 8u);

  SweepOptions opt;
  opt.best_k = 2;
  opt.sample_fraction = 0.25;
  opt.spot_replications = 2;
  opt.allow_oversubscribe = true;

  opt.jobs = 1;
  const SweepReport serial = surrogate_sweep(base, profile, axes, opt);
  opt.jobs = 2;
  const SweepReport parallel = surrogate_sweep(base, profile, axes, opt);
  EXPECT_EQ(dump_report(serial), dump_report(parallel));

  EXPECT_EQ(serial.rows.size(), 8u);
  EXPECT_GT(serial.spot_checks, 0);
  for (const MetricErrorBar& bar : serial.error_bars) {
    EXPECT_EQ(bar.samples, serial.spot_checks);
    EXPECT_GE(bar.max_relative_error, bar.mean_relative_error);
  }
  // Every spot-checked row carries a finite CI (spot_replications = 2 gives
  // 1 df) and ranks form a permutation.
  std::vector<int> ranks;
  for (const SweepRow& row : serial.rows) {
    ranks.push_back(row.rank);
    if (row.spot_checked) {
      for (std::size_t i = 0; i < kMetricCount; ++i) {
        EXPECT_GE(row.spot.micro_ci95_halfwidth[i], 0.0);
      }
    }
  }
  std::sort(ranks.begin(), ranks.end());
  for (int r = 0; r < static_cast<int>(ranks.size()); ++r) EXPECT_EQ(ranks[r], r);
}

TEST(SurrogateSweep, UtilBpCollapsesThePeriodAxis) {
  SweepAxes axes;
  axes.controllers = {core::ControllerType::UtilBp, core::ControllerType::CapBp};
  axes.patterns = {traffic::PatternKind::I};
  axes.periods_s = {8.0, 12.0, 16.0};
  // UTIL-BP has no period knob: 1 point instead of 3, CAP-BP keeps all 3.
  EXPECT_EQ(axis_points(axes).size(), 4u);
}

}  // namespace
}  // namespace abp::surrogate
