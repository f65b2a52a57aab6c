#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/host.hpp"
#include "perfbench/src/measure.hpp"
#include "src/exp/experiment_runner.hpp"
#include "src/scenario/scenario_io.hpp"
#include "src/sim/simulator.hpp"

namespace perfbench {
namespace {

using abp::scenario::ScenarioConfig;
using abp::stats::RunResult;

// A single-run window is in steady state when its second half carries within
// this share of its first half's vehicle-steps; a network still filling up
// (warm-up too short) or draining fails the run.
constexpr double kSteadyTolerance = 0.10;

// Minimum repetitions of the timed section, whatever --seconds says: two
// batches give the repetition check something to compare, three windows a
// median.
constexpr int kMinBatchRepetitions = 2;
constexpr int kMinWindowRepetitions = 3;

// Set-up samples taken after each repetition of the timed section. Spread
// over the whole run, they see the host's load the way the timed section
// does; a burst at start-up would see only that moment's.
constexpr int kSetupSamplesPerRepetition = 4;

// Set-up as users pay it, scenario text to a simulator ready to tick, in CPU
// seconds summed over the workload's scenarios: one sample per call.
void sample_setup(const Workload& w, std::vector<double>& samples) {
  for (int i = 0; i < kSetupSamplesPerRepetition; ++i) {
    double total = 0.0;
    for (const std::string& text : w.scenarios) {
      const double start = cpu_seconds();
      const std::unique_ptr<abp::sim::Simulator> sim =
          abp::sim::make_simulator(abp::scenario::load_scenario(text));
      total += cpu_seconds() - start;
    }
    samples.push_back(total);
  }
}

// Table III as the batch computed it: best-period CAP-BP against UTIL-BP per
// pattern. Printed for the reader; the gate does not judge the paper's claim.
void print_table3(const std::vector<ScenarioConfig>& configs,
                  const std::vector<RunResult>& results) {
  double improvement_sum = 0.0;
  int patterns = 0;
  for (std::size_t begin = 0; begin < configs.size();) {
    const abp::traffic::PatternKind pattern = configs[begin].demand.pattern;
    double best_cap = INFINITY;
    double best_period = 0.0;
    double util = 0.0;
    std::size_t i = begin;
    for (; i < configs.size() && configs[i].demand.pattern == pattern; ++i) {
      const double q = results[i].metrics.average_queuing_time_s();
      if (configs[i].controller.type == abp::core::ControllerType::UtilBp) {
        util = q;
      } else if (q < best_cap) {
        best_cap = q;
        best_period = configs[i].controller.fixed_slot.period_s;
      }
    }
    const double improvement = 100.0 * (best_cap - util) / best_cap;
    std::printf("table3 pattern=%s capbp_best_period_s=%g capbp_avg_queuing_s=%.3f "
                "utilbp_avg_queuing_s=%.3f improvement_pct=%.1f\n",
                abp::traffic::pattern_name(pattern).c_str(), best_period, best_cap, util,
                improvement);
    improvement_sum += improvement;
    ++patterns;
    begin = i;
  }
  std::printf("table3 mean_improvement_pct=%.1f (the paper reports about 13)\n",
              improvement_sum / patterns);
}

// Host and CPU seconds of every repetition of the timed section.
struct Timed {
  std::vector<double> walls;
  std::vector<double> cpus;
  std::vector<double> setups;
  std::vector<RunResult> reference;
  long long veh_steps = 0;
};

// paper_table3: the whole batch through ExperimentRunner, repeated.
Timed time_batch(const Workload& w, double seconds, Gate& gate) {
  std::vector<ScenarioConfig> configs;
  for (const std::string& text : w.scenarios) {
    configs.push_back(abp::scenario::load_scenario(text));
  }
  abp::exp::ExperimentRunner runner({.jobs = w.jobs});
  Timed t;
  const Clock::time_point begin = Clock::now();
  for (int rep = 0; rep < kMinBatchRepetitions || seconds_since(begin) < seconds; ++rep) {
    const Clock::time_point start = Clock::now();
    const double cpu_start = cpu_seconds();
    std::vector<abp::exp::RunStatus> statuses = runner.run_statuses(configs);
    t.cpus.push_back(cpu_seconds() - cpu_start);
    t.walls.push_back(seconds_since(start));
    sample_setup(w, t.setups);
    for (std::size_t i = 0; i < statuses.size(); ++i) {
      std::vector<std::string> problems;
      const abp::exp::RunStatus& s = statuses[i];
      if (!s.ok()) {
        problems.push_back("run status is not Ok: " + s.error);
      } else {
        check_conservation(s.result, problems);
        if (rep > 0) check_identical(t.reference[i], s.result, "repetition", problems);
      }
      gate.record(w.name + " run " + std::to_string(i) + " rep " + std::to_string(rep),
                  problems);
    }
    if (rep == 0) {
      for (abp::exp::RunStatus& s : statuses) {
        t.veh_steps += vehicle_steps(s.result, 0.0, INFINITY);
        t.reference.push_back(std::move(s.result));
      }
    }
  }
  print_table3(configs, t.reference);
  return t;
}

// Single-run workloads: a fresh simulator per repetition, warmed up untimed,
// then the window timed.
Timed time_window(const Workload& w, double seconds, Gate& gate) {
  const std::string& text = w.scenarios.front();
  Timed t;
  const Clock::time_point begin = Clock::now();
  for (int rep = 0; rep < kMinWindowRepetitions || seconds_since(begin) < seconds; ++rep) {
    std::vector<std::string> problems;
    try {
      const ScenarioConfig cfg = abp::scenario::load_scenario(text);
      const std::unique_ptr<abp::sim::Simulator> sim = abp::sim::make_simulator(cfg);
      sim->run_until(w.warmup_s);
      const int in_start = sim->vehicles_in_network();
      const Clock::time_point start = Clock::now();
      const double cpu_start = cpu_seconds();
      sim->run_until(cfg.duration_s);
      t.cpus.push_back(cpu_seconds() - cpu_start);
      t.walls.push_back(seconds_since(start));
      const int in_end = sim->vehicles_in_network();
      RunResult result = sim->finish(cfg.duration_s);

      check_conservation(result, problems);
      const double mid = 0.5 * (w.warmup_s + cfg.duration_s);
      const long long first = vehicle_steps(result, w.warmup_s, mid);
      const long long second = vehicle_steps(result, mid, cfg.duration_s);
      const double ratio = static_cast<double>(second) / static_cast<double>(first);
      if (rep == 0) {
        std::printf("steady %s: in_network window_start=%d window_end=%d "
                    "veh_steps first_half=%lld second_half=%lld ratio=%.4f "
                    "(must be within 1 +- %.2f)\n",
                    w.name.c_str(), in_start, in_end, first, second, ratio,
                    kSteadyTolerance);
      }
      if (!(std::fabs(ratio - 1.0) <= kSteadyTolerance)) {
        problems.push_back("not in steady state: second/first half veh-steps = " +
                           std::to_string(ratio) + " (warm-up too short?)");
      }
      if (rep == 0) {
        t.veh_steps = first + second;
        t.reference.push_back(std::move(result));
      } else {
        check_identical(t.reference.front(), result, "repetition", problems);
      }
    } catch (const std::exception& e) {
      problems.push_back(std::string("exception: ") + e.what());
    }
    gate.record(w.name + " rep " + std::to_string(rep), problems);
    if (t.reference.empty()) break;  // the first repetition failed outright
    sample_setup(w, t.setups);
  }
  return t;
}

}  // namespace

UntracedResult measure_untraced(const Workload& w, double seconds, Gate& gate) {
  Timed t = w.is_batch() ? time_batch(w, seconds, gate) : time_window(w, seconds, gate);
  const double setup_s = t.setups.empty() ? 0.0 : median(t.setups);

  UntracedResult out;
  out.wall_s = t.walls.empty() ? 0.0 : median(t.walls);
  const double cpu_s = t.cpus.empty() ? 0.0 : median(t.cpus);
  double queuing_sum = 0.0;
  double completed = 0.0;
  for (const RunResult& r : t.reference) {
    queuing_sum += r.metrics.average_queuing_time_s();
    completed += static_cast<double>(r.metrics.completed);
  }
  const double runs = static_cast<double>(std::max<std::size_t>(1, t.reference.size()));
  const double ns_per_veh_step =
      t.veh_steps > 0 ? cpu_s * 1e9 / static_cast<double>(t.veh_steps) : 0.0;
  std::printf("timing %s: veh_steps=%lld, %zu set-up samples, %zu repetitions, "
              "median cpu_s=%.6f wall_s=%.6f, cpus/walls:",
              w.name.c_str(), t.veh_steps, t.setups.size(), t.walls.size(), cpu_s,
              out.wall_s);
  for (std::size_t i = 0; i < t.walls.size(); ++i) {
    std::printf(" %.4f/%.4f", t.cpus[i], t.walls[i]);
  }
  std::printf("\n");
  // The timed metrics are CPU time: host time on a shared host moves with
  // the neighbours' load by far more than any bound could allow. wall_s is
  // printed for the reader; error_rate travels as attempted/failed.
  out.metrics = {
      {"cpu_s", cpu_s, "s"},
      {"ns_per_veh_step", ns_per_veh_step, "ns"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"avg_queuing_s", queuing_sum / runs, "s"},
      {"completed", completed, "vehicles"},
      {"wall_s", out.wall_s, "s", false},
      {"error_rate", gate.error_rate(), "ratio", false},
  };
  out.reference = std::move(t.reference);
  return out;
}

}  // namespace perfbench
