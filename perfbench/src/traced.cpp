// The traced mode: spans around calls into each layer's public functions,
// made from outside the library.
//
//   set-up     scenario::load_scenario, sim::build_validated,
//              sim::make_run_controllers, sim::construct_backend
//   control    core::SignalController::decide, through the TimedController
//              decorator wrapped around every junction's controller
//   micro tick MicroSim::step_begin / step_service / step_finish (the same
//              sequence as MicroSim::step)
//   queue tick QueueSim::run_until(now + step_s), one tick per call, which
//              keeps the fused serial tick; the public phase split would take
//              the slower staged path
//   demand     DemandGenerator::poll_into, replayed on a standalone generator
//              with the run's exact call sequence
//   runner     exp::ExperimentRunner::run_statuses
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "perfbench/src/measure.hpp"
#include "src/core/controller.hpp"
#include "src/exp/experiment_runner.hpp"
#include "src/microsim/micro_sim.hpp"
#include "src/queuesim/queue_sim.hpp"
#include "src/scenario/scenario_io.hpp"
#include "src/sim/run_setup.hpp"
#include "src/sim/simulator.hpp"
#include "src/traffic/demand.hpp"

namespace perfbench {
namespace {

using abp::scenario::ScenarioConfig;
using abp::stats::RunResult;

// Set-up-only repetitions behind the single-run workloads' set-up layer
// medians: set-up takes milliseconds, so its median needs many of them.
constexpr int kSetupRepetitions = 41;

struct DecideClock {
  double seconds = 0.0;
  long long calls = 0;
  // Decisions whose phase differs from the same junction's previous one.
  long long changes = 0;
};

// Times decide() on the wrapped controller. Each junction's first decision
// has no predecessor and never counts as a change.
class TimedController final : public abp::core::SignalController {
 public:
  TimedController(abp::core::ControllerPtr inner, DecideClock& clock)
      : inner_(std::move(inner)), clock_(clock) {}

  abp::net::PhaseIndex decide(const abp::core::IntersectionObservation& obs) override {
    const Clock::time_point start = Clock::now();
    const abp::net::PhaseIndex phase = inner_->decide(obs);
    clock_.seconds += seconds_since(start);
    ++clock_.calls;
    if (decided_ && phase != last_) ++clock_.changes;
    last_ = phase;
    decided_ = true;
    return phase;
  }

  void reset() override {
    inner_->reset();
    decided_ = false;
  }

  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  abp::core::ControllerPtr inner_;
  DecideClock& clock_;
  abp::net::PhaseIndex last_ = 0;
  bool decided_ = false;
};

struct SetupTimes {
  double load_s = 0.0;
  double build_s = 0.0;
  double controllers_s = 0.0;
  double backend_s = 0.0;
};

// What one traced run adds up. Times cover the timed section only: the
// window of a single-run workload, the whole run in paper_table3.
struct RunLayers {
  double section_s = 0.0;  // the traced timed section, host seconds
  double begin_s = 0.0;    // micro step_begin (decide included)
  double service_s = 0.0;  // micro step_service
  double sweep_s = 0.0;    // micro step_finish
  double tick_s = 0.0;     // queue run_until, one tick (decide included)
  long long veh_steps = 0;
  long long junction_samples = 0;
  long long active_junction_samples = 0;
  long long road_samples = 0;
  long long empty_road_samples = 0;
  DecideClock decide;
  double poll_s = 0.0;
  long long spawns = 0;
};

// Builds one run's object graph through the same run_setup.hpp calls
// make_simulator makes, timing each, with every controller wrapped in a
// TimedController; then hands the backend to `body`. The backends are not
// movable, so the backend lives in this frame and `body` runs inside it.
template <typename Backend, typename Body>
void with_traced_backend(const std::string& text, SetupTimes& setup, DecideClock& decide,
                         Body&& body) {
  Clock::time_point start = Clock::now();
  const ScenarioConfig cfg = abp::scenario::load_scenario(text);
  setup.load_s += seconds_since(start);
  start = Clock::now();
  const abp::net::Network network =
      abp::sim::build_validated(abp::sim::effective_grid(cfg));
  setup.build_s += seconds_since(start);
  abp::traffic::DemandGenerator demand(network, cfg.demand, cfg.seed);
  start = Clock::now();
  std::vector<abp::core::ControllerPtr> controllers =
      abp::sim::make_run_controllers(cfg, network, nullptr);
  setup.controllers_s += seconds_since(start);
  for (abp::core::ControllerPtr& c : controllers) {
    c = std::make_unique<TimedController>(std::move(c), decide);
  }
  start = Clock::now();
  Backend sim = abp::sim::construct_backend<Backend>(cfg, network, demand,
                                                     std::move(controllers));
  setup.backend_s += seconds_since(start);
  body(sim, cfg, network);
}

// Samples which junctions have any vehicle on an approach and which roads
// are empty, via the public road_occupancy hook.
void sample_occupancy(const abp::microsim::MicroSim& sim,
                      const abp::net::Network& network, RunLayers& layers) {
  for (const abp::net::Intersection& node : network.intersections()) {
    bool active = false;
    for (abp::RoadId road : node.incoming) {
      if (road.valid() && sim.road_occupancy(road) > 0) active = true;
    }
    ++layers.junction_samples;
    if (active) ++layers.active_junction_samples;
  }
  for (const abp::net::Road& road : network.roads()) {
    ++layers.road_samples;
    if (sim.road_occupancy(road.id) == 0) ++layers.empty_road_samples;
  }
}

// One traced run: untimed warm-up to `warmup_s`, then the traced window up
// to the configured duration, then the demand replay. Checks the run and
// returns its result.
template <typename Backend>
RunResult traced_run(const std::string& text, double warmup_s, SetupTimes& setup,
                     RunLayers& layers, std::vector<std::string>& problems) {
  constexpr bool kMicro = std::is_same_v<Backend, abp::microsim::MicroSim>;
  RunResult result;
  DecideClock decide;
  with_traced_backend<Backend>(text, setup, decide, [&](Backend& sim,
                                                        const ScenarioConfig& cfg,
                                                        const abp::net::Network& network) {
    sim.run_until(warmup_s);
    const DecideClock before = decide;
    long long veh_steps = 0;
    const Clock::time_point window = Clock::now();
    if constexpr (kMicro) {
      double next_sample = sim.now();  // once per simulated second
      while (sim.now() < cfg.duration_s) {
        if (sim.now() >= next_sample) {
          sample_occupancy(sim, network, layers);
          next_sample += 1.0;
        }
        veh_steps += sim.vehicles_in_network();
        const Clock::time_point t0 = Clock::now();
        sim.step_begin();
        const Clock::time_point t1 = Clock::now();
        sim.step_service();
        const Clock::time_point t2 = Clock::now();
        sim.step_finish();
        const Clock::time_point t3 = Clock::now();
        layers.begin_s += std::chrono::duration<double>(t1 - t0).count();
        layers.service_s += std::chrono::duration<double>(t2 - t1).count();
        layers.sweep_s += std::chrono::duration<double>(t3 - t2).count();
      }
    } else {
      while (sim.now() < cfg.duration_s) {
        veh_steps += sim.vehicles_in_network();
        const Clock::time_point t0 = Clock::now();
        sim.run_until(sim.now() + cfg.queue.step_s);
        layers.tick_s += seconds_since(t0);
      }
    }
    layers.section_s += seconds_since(window);
    layers.veh_steps += veh_steps;
    layers.decide.seconds += decide.seconds - before.seconds;
    layers.decide.calls += decide.calls - before.calls;
    layers.decide.changes += decide.changes - before.changes;
    result = sim.finish(cfg.duration_s);

    check_conservation(result, problems);
    const long long series_steps = vehicle_steps(result, warmup_s, cfg.duration_s);
    if (veh_steps != series_steps) {
      problems.push_back("traced veh-steps " + std::to_string(veh_steps) +
                         " != in-network series " + std::to_string(series_steps));
    }

    // The run's poll_into sequence, on a generator of its own.
    const double dt = kMicro ? cfg.micro.dt_s : cfg.queue.step_s;
    abp::traffic::DemandGenerator replay(network, cfg.demand, cfg.seed);
    std::vector<abp::traffic::SpawnRequest> spawned;
    std::size_t generated = 0;
    double t = 0.0;
    for (; t < warmup_s; t += dt) {
      replay.poll_into(t, t + dt, spawned);
      generated += spawned.size();
    }
    std::size_t window_spawns = 0;
    const Clock::time_point poll = Clock::now();
    for (; t < cfg.duration_s; t += dt) {
      replay.poll_into(t, t + dt, spawned);
      window_spawns += spawned.size();
    }
    layers.poll_s += seconds_since(poll);
    layers.spawns += static_cast<long long>(window_spawns);
    generated += window_spawns;
    if (generated != result.metrics.generated) {
      problems.push_back("demand replay spawned " + std::to_string(generated) +
                         " but the run generated " +
                         std::to_string(result.metrics.generated));
    }
  });
  return result;
}

template <typename Backend>
RunResult traced_run_checked(const Workload& w, std::size_t i, SetupTimes& setup,
                             RunLayers& layers, const RunResult& untraced,
                             Gate& gate) {
  std::vector<std::string> problems;
  RunResult result;
  try {
    result = traced_run<Backend>(w.scenarios[i], w.warmup_s, setup, layers, problems);
    check_identical(untraced, result, "traced vs untraced", problems);
  } catch (const std::exception& e) {
    problems.push_back(std::string("exception: ") + e.what());
  }
  gate.record(w.name + " traced run " + std::to_string(i), problems);
  return result;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// The runner layer (paper_table3 only; zero elsewhere).
struct BatchLayers {
  double batch_s = 0.0;
  // Serial untraced runs, set-up included: what the batch parallelizes.
  double serial_sum_s = 0.0;
  int jobs = 1;
  long long failed_runs = 0;
};

std::vector<Metric> layer_metrics(const SetupTimes& setup, const RunLayers& l,
                                  double untraced_section_s, const BatchLayers& b) {
  const double setup_total =
      setup.load_s + setup.build_s + setup.controllers_s + setup.backend_s;
  const double s = l.section_s;
  const double micro_begin_self = l.begin_s > 0.0 ? l.begin_s - l.decide.seconds : 0.0;
  const double queue_tick_self = l.tick_s > 0.0 ? l.tick_s - l.decide.seconds : 0.0;
  const auto micro_veh_steps = static_cast<double>(l.begin_s > 0.0 ? l.veh_steps : 0);
  const auto queue_veh_steps = static_cast<double>(l.tick_s > 0.0 ? l.veh_steps : 0);
  return {
      {"scenario.load_s", setup.load_s, "s"},
      {"scenario.load_share", ratio(setup.load_s, setup_total), "ratio"},
      {"net.build_s", setup.build_s, "s"},
      {"net.build_share", ratio(setup.build_s, setup_total), "ratio"},
      {"core.make_controllers_s", setup.controllers_s, "s"},
      {"core.make_controllers_share", ratio(setup.controllers_s, setup_total), "ratio"},
      {"sim.construct_backend_s", setup.backend_s, "s"},
      {"sim.construct_backend_share", ratio(setup.backend_s, setup_total), "ratio"},
      {"traffic.poll_s", l.poll_s, "s"},
      {"traffic.poll_share", ratio(l.poll_s, s), "ratio"},
      {"traffic.spawns", static_cast<double>(l.spawns), "count"},
      {"core.decide_s", l.decide.seconds, "s"},
      {"core.decide_share", ratio(l.decide.seconds, s), "ratio"},
      {"core.decide_calls", static_cast<double>(l.decide.calls), "count"},
      {"core.phase_change_ratio",
       ratio(static_cast<double>(l.decide.changes), static_cast<double>(l.decide.calls)),
       "ratio"},
      {"microsim.begin_self_s", micro_begin_self, "s"},
      {"microsim.begin_self_share", ratio(micro_begin_self, s), "ratio"},
      {"microsim.service_s", l.service_s, "s"},
      {"microsim.service_share", ratio(l.service_s, s), "ratio"},
      {"microsim.sweep_s", l.sweep_s, "s"},
      {"microsim.sweep_share", ratio(l.sweep_s, s), "ratio"},
      {"microsim.veh_steps", micro_veh_steps, "count"},
      {"microsim.active_junction_share",
       ratio(static_cast<double>(l.active_junction_samples),
             static_cast<double>(l.junction_samples)),
       "ratio"},
      {"microsim.empty_road_share",
       ratio(static_cast<double>(l.empty_road_samples),
             static_cast<double>(l.road_samples)),
       "ratio"},
      {"queuesim.tick_s", l.tick_s, "s"},
      {"queuesim.tick_share", ratio(l.tick_s, s), "ratio"},
      {"queuesim.tick_self_s", queue_tick_self, "s"},
      {"queuesim.tick_self_share", ratio(queue_tick_self, s), "ratio"},
      {"queuesim.veh_steps", queue_veh_steps, "count"},
      {"trace.section_s", s, "s"},
      {"trace.overhead", ratio(s, untraced_section_s) - 1.0, "ratio"},
      {"exp.batch_s", b.batch_s, "s"},
      {"exp.serial_sum_s", b.serial_sum_s, "s"},
      {"exp.parallel_efficiency", ratio(b.serial_sum_s, b.jobs * b.batch_s), "ratio"},
      {"exp.failed_runs", static_cast<double>(b.failed_runs), "count"},
  };
}

// paper_table3: every run serially, untraced then traced (interleaved, so
// drift hits both alike), then the batch once through the runner.
std::vector<Metric> traced_batch(const Workload& w, Gate& gate) {
  SetupTimes setup;
  RunLayers layers;
  BatchLayers batch{.jobs = w.jobs};
  double untraced_run_sum = 0.0;
  std::vector<RunResult> traced;
  for (std::size_t i = 0; i < w.scenarios.size(); ++i) {
    Clock::time_point start = Clock::now();
    const ScenarioConfig cfg = abp::scenario::load_scenario(w.scenarios[i]);
    const std::unique_ptr<abp::sim::Simulator> sim = abp::sim::make_simulator(cfg);
    const double setup_s = seconds_since(start);
    start = Clock::now();
    const RunResult untraced = sim->finish(cfg.duration_s);
    const double run_s = seconds_since(start);
    untraced_run_sum += run_s;
    batch.serial_sum_s += setup_s + run_s;
    traced.push_back(
        traced_run_checked<abp::microsim::MicroSim>(w, i, setup, layers, untraced, gate));
  }

  std::vector<ScenarioConfig> configs;
  for (const std::string& text : w.scenarios) {
    configs.push_back(abp::scenario::load_scenario(text));
  }
  abp::exp::ExperimentRunner runner({.jobs = w.jobs});
  const Clock::time_point start = Clock::now();
  const std::vector<abp::exp::RunStatus> statuses = runner.run_statuses(configs);
  batch.batch_s = seconds_since(start);
  for (std::size_t i = 0; i < statuses.size(); ++i) {
    std::vector<std::string> problems;
    if (!statuses[i].ok()) {
      ++batch.failed_runs;
      problems.push_back("run status is not Ok: " + statuses[i].error);
    } else {
      check_identical(traced[i], statuses[i].result, "batch vs serial traced", problems);
    }
    gate.record(w.name + " batch run " + std::to_string(i), problems);
  }

  return layer_metrics(setup, layers, untraced_run_sum, batch);
}

template <typename Backend>
std::vector<Metric> traced_window(const Workload& w, double seconds, Gate& gate) {
  const UntracedResult untraced = measure_untraced(w, seconds, gate);
  // Set-up layers: medians over set-up-only repetitions.
  std::vector<double> load, build, controllers, backend;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    SetupTimes one;
    DecideClock unused;
    with_traced_backend<Backend>(w.scenarios.front(), one, unused,
                                 [](Backend&, const ScenarioConfig&,
                                    const abp::net::Network&) {});
    load.push_back(one.load_s);
    build.push_back(one.build_s);
    controllers.push_back(one.controllers_s);
    backend.push_back(one.backend_s);
  }
  const SetupTimes setup{median(load), median(build), median(controllers),
                         median(backend)};

  SetupTimes run_setup;
  RunLayers layers;
  if (!untraced.reference.empty()) {
    (void)traced_run_checked<Backend>(w, 0, run_setup, layers, untraced.reference.front(),
                                      gate);
  }
  return layer_metrics(setup, layers, untraced.wall_s, BatchLayers{});
}

}  // namespace

std::vector<Metric> measure_traced(const Workload& w, double seconds, Gate& gate) {
  if (w.is_batch()) return traced_batch(w, gate);
  const ScenarioConfig cfg = abp::scenario::load_scenario(w.scenarios.front());
  return cfg.simulator == abp::scenario::SimulatorKind::Micro
             ? traced_window<abp::microsim::MicroSim>(w, seconds, gate)
             : traced_window<abp::queuesim::QueueSim>(w, seconds, gate);
}

}  // namespace perfbench
