// Memo-table rebuild elision pin (ROADMAP single-core frontier).
//
// The control-step memo tables (queued counts per road and per link) used to
// be rebuilt from a global zero of every row before each control boundary.
// The elided path instead zeroes rows per road, lazily: a road's rows are
// cleared only when the road is occupied this tick (about to be
// re-accumulated) or still dirty from an earlier rebuild; empty-and-clean
// roads — the common case on large grids — are skipped entirely. These tests
// pin the elided path bit-identical to the retained always-rebuild reference
// (MicroSim::set_memo_always_rebuild) over full runs whose roads repeatedly
// drain and refill, so stale-row bugs cannot hide: a row left dirty after a
// road empties would feed a wrong queue reading to the next controller
// decision and shift every downstream phase choice.
#include <gtest/gtest.h>

#include <cstdint>

#include "src/microsim/micro_sim.hpp"
#include "src/scenario/scenario.hpp"
#include "src/sim/run_setup.hpp"
#include "tests/result_compare.hpp"

namespace abp {
namespace {

scenario::ScenarioConfig elision_config(traffic::PatternKind pattern, std::uint64_t seed) {
  scenario::ScenarioConfig cfg =
      scenario::paper_scenario(pattern, core::ControllerType::UtilBp);
  cfg.grid.rows = 3;
  cfg.grid.cols = 3;
  cfg.seed = seed;
  cfg.simulator = scenario::SimulatorKind::Micro;
  // Long enough that light-demand roads drain to empty and refill many times
  // — each transition exercises the dirty-bit clear and re-set.
  cfg.duration_s = 900.0;
  return cfg;
}

// One full micro run, built as make_simulator() builds it.
stats::RunResult run_micro(const scenario::ScenarioConfig& cfg, bool always_rebuild) {
  const net::Network network = sim::build_validated(sim::effective_grid(cfg));
  traffic::DemandGenerator demand(network, cfg.demand, cfg.seed);
  microsim::MicroSim sim = sim::construct_backend<microsim::MicroSim>(
      cfg, network, demand, sim::make_run_controllers(cfg, network, nullptr));
  sim.set_memo_always_rebuild(always_rebuild);
  return sim.finish(cfg.duration_s);
}

void expect_paths_identical(const scenario::ScenarioConfig& cfg) {
  testing::expect_results_identical(run_micro(cfg, false), run_micro(cfg, true));
}

TEST(MemoElision, BitIdenticalToAlwaysRebuildLightDemand) {
  // Pattern I is light: most roads are empty at most control boundaries, so
  // nearly every rebuild takes the elision path.
  expect_paths_identical(elision_config(traffic::PatternKind::I, 11));
}

TEST(MemoElision, BitIdenticalToAlwaysRebuildHeavyDemand) {
  // Pattern III saturates the grid: rows churn between dirty and clean under
  // spillback, the adversarial case for stale rows.
  expect_paths_identical(elision_config(traffic::PatternKind::III, 12));
}

TEST(MemoElision, BitIdenticalWithImperfectSensorAndThreads) {
  // Imperfect detectors tie the sequential RNG stream to every queue reading:
  // any memo drift desynchronizes the sensor stream and cascades through the
  // rest of the run. Two sweep threads additionally pin that the per-road
  // dirty bits stay race-free under the partitioned sweep.
  scenario::ScenarioConfig cfg = elision_config(traffic::PatternKind::II, 13);
  cfg.micro.sensor.detection_probability = 0.95;
  cfg.micro.sensor.dropout_probability = 0.01;
  cfg.micro.threads = 2;
  expect_paths_identical(cfg);
}

}  // namespace
}  // namespace abp
