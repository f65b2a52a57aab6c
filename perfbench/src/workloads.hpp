// The benchmark's three workloads, generated from a seed.
//
// Every workload reaches the library only as scenario text: the generator
// builds ScenarioConfigs and serializes them with dump_scenario, and the
// measuring code loads them back with load_scenario, so the scenario file ->
// RunResult path is what gets measured. README.md explains why each workload
// was chosen.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/stats/run_result.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  // One scenario document per run: 105 for paper_table3, 1 otherwise.
  std::vector<std::string> scenarios;
  // The untimed prefix of every run; the timed window is [warmup_s,
  // duration_s). 0 for paper_table3, whose whole batch is timed.
  double warmup_s = 0.0;
  // Runs in flight through exp::ExperimentRunner (paper_table3 only; the
  // single-run workloads are driven directly).
  int jobs = 1;
  [[nodiscard]] bool is_batch() const noexcept { return scenarios.size() > 1; }
};

// Names accepted by make_workload, in the order README.md lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();

// Builds the named workload's scenarios from `seed` (same seed, same texts).
// `smoke` shortens the horizons for the benchmark's own tests: paper
// durations shrink tenfold and the single-run windows shrink, while warm-ups
// stay as long, so every correctness check keeps its meaning. Throws
// std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(std::string_view name, std::uint64_t seed,
                                     bool smoke);

// Vehicle-steps (one vehicle inside the network for one tick) over the ticks
// that start in [from_s, to_s). The workloads sample the in-network series on
// every tick, so the sum is an exact count, not an estimate.
[[nodiscard]] long long vehicle_steps(const abp::stats::RunResult& result, double from_s,
                                      double to_s);

}  // namespace perfbench
