// Shared run-construction helpers: the pieces of make_simulator() that build
// one run's object graph from a ScenarioConfig — network validation, the
// controller set (overrides, detector wrapping, fault decorators), capacity
// fault expansion, watch resolution and the per-backend constructor calls.
//
// Exposed so code outside the simulator adapter (e.g. a tracing harness that
// drives a backend tick by tick) builds a run's object graph through exactly
// the same code path as make_simulator(), seeding every stream the same way.
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/adaptive_controller.hpp"
#include "src/core/controller.hpp"
#include "src/net/grid.hpp"
#include "src/net/network.hpp"
#include "src/scenario/scenario_config.hpp"
#include "src/traffic/demand.hpp"
#include "src/util/ids.hpp"

namespace abp::microsim {
class MicroSim;
}
namespace abp::queuesim {
class QueueSim;
}

namespace abp::sim {

// Seed salt for the fault decorators' noise streams: keeps them disjoint
// from the demand streams (config.seed) and the micro dawdle/sensor streams
// (config.seed + kMicroSeedSalt), whatever junction index is used as the
// stream id.
inline constexpr std::uint64_t kFaultSeedSalt = 0xFA17ULL;
// Seed salt of the microscopic backend's own streams (dawdle, sensor noise).
inline constexpr std::uint64_t kMicroSeedSalt = 0x5157ULL;

// Builds and validates the grid before any backend state references it.
[[nodiscard]] net::Network build_validated(const net::GridConfig& grid);

// The grid the run actually builds: config.grid, with the surrogate
// calibration scales applied when the config enables them AND selects the
// queue backend. The micro backend always runs the design grid — it is the
// calibration target, so attaching a profile to a scenario must not perturb
// its micro pins. Every construction path must funnel through this so a
// calibrated run is built identically wherever it is constructed.
[[nodiscard]] net::GridConfig effective_grid(const scenario::ScenarioConfig& config);

// Resolves a grid (row, col) reference; throws std::invalid_argument naming
// `what` when the node lies outside the grid.
[[nodiscard]] IntersectionId resolve_node(const net::Network& network, int row, int col,
                                          const char* what);

// Resolves the incoming road arriving at (row, col) from `side`.
[[nodiscard]] RoadId resolve_approach(const net::Network& network, int row, int col,
                                      net::Side side, const char* what);

[[nodiscard]] RoadId resolve_watch(const net::Network& network,
                                   const scenario::WatchSpec& w);

// One controller per intersection — the run-wide spec with any per-junction
// overrides applied — wrapped (inside out) in a core::AdaptiveController when
// the scenario enables the changepoint detector, and in a
// core::FaultInjectedController at the junctions named by the fault schedule.
// That order puts the monitor behind the fault decorator, so it watches
// exactly the possibly-faulted readings the policy acts on. Junctions without
// faults in a detector-free run keep their plain controller — a run with an
// empty schedule builds exactly the controller set it always has.
//
// When `monitors` is non-null it receives one AdaptiveController pointer per
// junction (in junction-index order); the pointees are owned by the returned
// controllers (directly or via their fault wrapper) and stay stable for the
// simulator's lifetime.
[[nodiscard]] std::vector<core::ControllerPtr> make_run_controllers(
    const scenario::ScenarioConfig& config, const net::Network& network,
    std::vector<const core::AdaptiveController*>* monitors);

// A capacity change the run loop applies once sim time reaches time_s.
struct CapacityEvent {
  double time_s = 0.0;
  RoadId road;
  int capacity = 0;
};

// Expands the schedule's capacity faults into a time-sorted event list:
// a drop to floor(factor * W) at start_s, and (for finite windows) a
// restoration to the design W at end_s. Stable sort: simultaneous events
// apply in schedule order, so "last writer wins" is well defined and
// deterministic.
[[nodiscard]] std::vector<CapacityEvent> build_capacity_events(
    const scenario::ScenarioConfig& config, const net::Network& network);

// Per-backend construction (the only thing the two backends don't share):
// returned as a prvalue so guaranteed copy elision constructs the simulator
// in place — the backends hold reference members and are not movable.
// Specialized for microsim::MicroSim and queuesim::QueueSim.
template <typename Backend>
Backend construct_backend(const scenario::ScenarioConfig& config,
                          const net::Network& network, traffic::DemandGenerator& demand,
                          std::vector<core::ControllerPtr> controllers);

template <>
microsim::MicroSim construct_backend<microsim::MicroSim>(
    const scenario::ScenarioConfig& config, const net::Network& network,
    traffic::DemandGenerator& demand, std::vector<core::ControllerPtr> controllers);

template <>
queuesim::QueueSim construct_backend<queuesim::QueueSim>(
    const scenario::ScenarioConfig& config, const net::Network& network,
    traffic::DemandGenerator& demand, std::vector<core::ControllerPtr> controllers);

}  // namespace abp::sim
