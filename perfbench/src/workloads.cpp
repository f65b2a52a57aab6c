#include "perfbench/src/workloads.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/exp/experiment_runner.hpp"
#include "src/scenario/scenario.hpp"
#include "src/scenario/scenario_io.hpp"

namespace perfbench {
namespace {

using abp::scenario::ScenarioConfig;

// splitmix64: spreads small consecutive --seed values over the whole 64-bit
// seed space, so seed 1 and seed 2 share no demand stream structure.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + salt * 0x9e3779b97f4a7c15ULL + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Samples the in-network series on every tick (see vehicle_steps). Sampling
// reads state only, so the simulated dynamics are those of the paper's
// default sampling interval.
void sample_every_tick(ScenarioConfig& cfg) {
  cfg.micro.sample_interval_s = cfg.micro.dt_s;
  cfg.queue.sample_interval_s = cfg.queue.step_s;
}

// The paper's Table III batch, in bench_table3_patterns' order: per pattern,
// CAP-BP at 20 periods, then the UTIL-BP reference. One demand seed for all
// 105 runs, as in the paper, so every policy sees the same arrivals.
std::vector<ScenarioConfig> paper_table3(std::uint64_t seed, bool smoke) {
  using abp::traffic::PatternKind;
  std::vector<double> periods;
  for (double p = 10.0; p <= 40.0; p += 2.0) periods.push_back(p);
  for (double p = 45.0; p <= 60.0; p += 5.0) periods.push_back(p);
  std::vector<ScenarioConfig> configs;
  for (PatternKind pattern : {PatternKind::I, PatternKind::II, PatternKind::III,
                              PatternKind::IV, PatternKind::Mixed}) {
    const double duration =
        abp::traffic::paper_duration_s(pattern) * (smoke ? 0.1 : 1.0);
    auto add = [&](ScenarioConfig cfg) {
      cfg.duration_s = duration;
      cfg.seed = derive_seed(seed, 1);
      sample_every_tick(cfg);
      configs.push_back(std::move(cfg));
    };
    for (double period : periods) {
      add(abp::scenario::paper_scenario(pattern, abp::core::ControllerType::CapBp, period));
    }
    add(abp::scenario::paper_scenario(pattern, abp::core::ControllerType::UtilBp));
  }
  return configs;
}

std::vector<std::string> to_texts(const std::vector<ScenarioConfig>& configs) {
  std::vector<std::string> texts;
  for (const ScenarioConfig& cfg : configs) {
    texts.push_back(abp::scenario::dump_scenario(cfg));
  }
  return texts;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper_table3", "metro_light",
                                                 "queue_heavy"};
  return names;
}

Workload make_workload(std::string_view name, std::uint64_t seed, bool smoke) {
  Workload w;
  w.name = std::string(name);
  if (name == "paper_table3") {
    w.scenarios = to_texts(paper_table3(seed, smoke));
    // Closed loop: each worker starts its next run when the last one ends.
    // Three in flight on a 4-core box leaves a core for the system.
    w.jobs = std::min(3, abp::exp::max_safe_jobs());
    return w;
  }
  ScenarioConfig cfg;
  double window_s = 0.0;
  if (name == "metro_light") {
    // Sparse metro grid: per-junction work dominates the tick.
    cfg = abp::scenario::paper_scenario(abp::traffic::PatternKind::II,
                                        abp::core::ControllerType::UtilBp);
    cfg.grid.rows = 32;
    cfg.grid.cols = 32;
    cfg.demand.interarrival_scale = 8.0;
    w.warmup_s = 900.0;
    window_s = smoke ? 300.0 : 1800.0;
    cfg.seed = derive_seed(seed, 2);
  } else if (name == "queue_heavy") {
    // Heavy queue-backend grid on CAP-BP 16 s slots: threads = 1 takes the
    // fused serial tick.
    cfg = abp::scenario::paper_scenario(abp::traffic::PatternKind::III,
                                        abp::core::ControllerType::CapBp, 16.0);
    cfg.simulator = abp::scenario::SimulatorKind::Queue;
    cfg.grid.rows = 16;
    cfg.grid.cols = 16;
    w.warmup_s = 1200.0;
    window_s = smoke ? 600.0 : 6000.0;
    cfg.seed = derive_seed(seed, 3);
  } else {
    throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
  }
  cfg.duration_s = w.warmup_s + window_s;
  sample_every_tick(cfg);
  w.scenarios = to_texts({cfg});
  return w;
}

long long vehicle_steps(const abp::stats::RunResult& result, double from_s, double to_s) {
  const std::vector<double>& times = result.in_network_series.times();
  const std::vector<double>& values = result.in_network_series.values();
  long long steps = 0;
  for (std::size_t i = 0; i < times.size(); ++i) {
    if (times[i] >= from_s && times[i] < to_s) steps += static_cast<long long>(values[i]);
  }
  return steps;
}

}  // namespace perfbench
