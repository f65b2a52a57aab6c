// Scenario description: everything needed to construct and run one simulation.
//
// A ScenarioConfig bundles the network (grid), demand (pattern), controller
// policy and simulator choice. It is a pure value type — the construction
// machinery lives behind abp::sim::make_simulator() (src/sim/simulator.hpp),
// and the one-call experiment entry points (run_scenario, run_replications,
// paper_scenario) in src/scenario/scenario.hpp. Split out of scenario.hpp so
// the simulator factory and the experiment layer (src/exp) can consume the
// config without a circular dependency on the scenario API.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/factory.hpp"
#include "src/detect/detector_config.hpp"
#include "src/microsim/params.hpp"
#include "src/net/grid.hpp"
#include "src/queuesim/queue_sim.hpp"
#include "src/scenario/fault_schedule.hpp"
#include "src/traffic/demand.hpp"

namespace abp::scenario {

enum class SimulatorKind {
  // Microscopic car-following simulator (the SUMO substitute) — used for the
  // headline experiments.
  Micro,
  // Discrete-time queueing-network model of Section II — used for property
  // tests and fast model-level cross-checks.
  Queue,
};

// Requests a queue-length time series on the incoming road arriving at grid
// junction (row, col) from boundary side `side` (Fig. 5 watches the road from
// the East at the top-right junction).
struct WatchSpec {
  int row = 0;
  int col = 0;
  net::Side side = net::Side::East;
  std::string name;
};

// Replaces the run-wide ControllerSpec at one grid junction. The declarative
// layer uses this for heterogeneous control — e.g. an arterial corridor whose
// fixed-time junctions carry staggered offsets (a green wave) while the rest
// of the grid stays adaptive. When several overrides name the same junction,
// the last one wins (scenario files reject such duplicates at load time).
struct ControllerOverride {
  GridNodeRef node;
  core::ControllerSpec spec;
};

// Calibrated-surrogate parameters (src/surrogate/; docs/PERFORMANCE.md,
// "Surrogate throughput"). When enabled and the run selects the queue
// backend, the grid's uniform service-rate / transit-time / capacity scalars
// are rescaled by these factors before network construction, so the queue
// sim imitates the micro sim's behavior for the scenario family the profile
// was fitted on. The micro backend ignores the section entirely (it is the
// calibration *target*), so a profile can be attached to a scenario without
// perturbing its micro-sim pins.
struct SurrogateConfig {
  bool enabled = false;
  // Multiplies GridConfig::service_rate (junction discharge, veh/s/link).
  double service_scale = 1.0;
  // Divides GridConfig::speed_limit_mps: transit_scale > 1 means vehicles
  // take proportionally longer to traverse a road than the design speed.
  double transit_scale = 1.0;
  // Multiplies GridConfig::capacity (rounded, floored at 1 vehicle).
  double capacity_scale = 1.0;
  // Name of the CalibrationProfile these scales came from ("" = hand-set).
  std::string profile;
};

struct ScenarioConfig {
  // Descriptive metadata (scenario library identity; empty for programmatic
  // configs). `name` keys the library's golden determinism pins.
  std::string name;
  std::string description;
  net::GridConfig grid;
  traffic::DemandConfig demand;
  core::ControllerSpec controller;
  // Per-junction exceptions to `controller`, applied by make_simulator().
  std::vector<ControllerOverride> controller_overrides;
  SimulatorKind simulator = SimulatorKind::Micro;
  double duration_s = 3600.0;
  std::uint64_t seed = 42;
  microsim::MicroSimConfig micro;
  queuesim::QueueSimConfig queue;
  std::vector<WatchSpec> watches;
  // Timed incidents executed during the run (empty = fault-free, zero
  // hot-path cost). Validated by make_simulator(); see fault_schedule.hpp.
  FaultSchedule faults;
  // Opt-in runtime invariant guard (sim::SimulatorGuard).
  GuardConfig guard;
  // Opt-in online changepoint detection over the junctions' sensor streams
  // (detect::JunctionMonitor via core::AdaptiveController; see
  // docs/CHANGEPOINT.md).
  detect::DetectorConfig detector;
  // Calibrated-surrogate rescaling of the queue backend (src/surrogate/).
  SurrogateConfig surrogate;
};

// Tick-level parallelism the config's *selected* backend will use: the
// micro backend's road-partitioned sweep width; the queue backend's tick is
// serial. The experiment layer multiplies this by its run-level `jobs` when
// checking for oversubscription (docs/PERFORMANCE.md, "Run-level vs
// tick-level parallelism").
[[nodiscard]] inline int tick_threads(const ScenarioConfig& config) noexcept {
  return config.simulator == SimulatorKind::Micro ? config.micro.threads : 1;
}

}  // namespace abp::scenario
