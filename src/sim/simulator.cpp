#include "src/sim/simulator.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/core/adaptive_controller.hpp"
#include "src/core/factory.hpp"
#include "src/core/fault_controller.hpp"
#include "src/microsim/micro_sim.hpp"
#include "src/net/grid.hpp"
#include "src/net/validation.hpp"
#include "src/queuesim/queue_sim.hpp"
#include "src/sim/run_setup.hpp"
#include "src/sim/simulator_guard.hpp"

namespace abp::sim {
namespace {

// Owns the full object graph of one run: network, demand, backend. Members
// are declared in dependency order — the backend holds references into the
// network and the demand generator, so it is constructed last and destroyed
// first. Both backends expose the same member names for the interface
// surface, so one adapter covers them.
//
// Fault execution lives here, not in the backends: run_until() advances the
// backend in slices bounded by the next due capacity event / guard check,
// applying each through the backend's sequential-phase hooks. Slicing is
// free of behavioral effect — run_until(a); run_until(b) is the same tick
// sequence as run_until(b) — so a run whose schedule never fires is
// bit-identical to a fault-free run, and when the schedule is empty and the
// guard is off the adapter forwards straight to the backend (zero cost).
template <typename Backend>
class BackendSimulator final : public Simulator {
 public:
  explicit BackendSimulator(const scenario::ScenarioConfig& config)
      : network_(build_validated(effective_grid(config))),
        demand_(network_, config.demand, config.seed),
        sim_(construct_backend<Backend>(
            config, network_, demand_,
            make_run_controllers(config, network_, &adaptive_))),
        events_(build_capacity_events(config, network_)) {
    if (config.guard.enabled) {
      if (!(config.guard.interval_s > 0.0)) {
        throw std::invalid_argument("guard interval must be positive");
      }
      guard_.emplace(config.guard.policy);
      guard_interval_s_ = config.guard.interval_s;
      next_guard_s_ = guard_interval_s_;
    }
    plain_ = events_.empty() && !guard_;
  }

  void watch_road(RoadId road, std::string series_name) override {
    sim_.watch_road(road, std::move(series_name));
  }

  stats::RunResult& run_until(double until_s) override {
    if (plain_) return export_detections(sim_.run_until(until_s));
    for (;;) {
      double target = until_s;
      if (next_event_ < events_.size()) {
        target = std::min(target, events_[next_event_].time_s);
      }
      if (guard_) target = std::min(target, next_guard_s_);
      stats::RunResult& result = sim_.run_until(target);
      const double now_s = sim_.now();
      while (next_event_ < events_.size() && events_[next_event_].time_s <= now_s) {
        sim_.set_road_capacity(events_[next_event_].road, events_[next_event_].capacity);
        ++next_event_;
      }
      if (guard_ && now_s >= next_guard_s_) {
        guard_->check(*this, result.metrics, result.guard);
        // Step strictly past `now`: a horizon jump larger than the interval
        // triggers one check, not a burst of catch-up checks.
        while (next_guard_s_ <= now_s) next_guard_s_ += guard_interval_s_;
      }
      if (now_s >= until_s) return export_detections(result);
    }
  }

  stats::RunResult finish(double duration_s) override {
    if (!plain_) run_until(duration_s);
    stats::RunResult result = sim_.finish(duration_s);
    export_detections(result);
    // Final check on the closed books: end-of-run accounting (records closed
    // by finish) must still conserve vehicles.
    if (guard_) guard_->check(*this, result.metrics, result.guard);
    return result;
  }

  [[nodiscard]] double now() const noexcept override { return sim_.now(); }
  [[nodiscard]] int vehicles_in_network() const override {
    return sim_.vehicles_in_network();
  }
  [[nodiscard]] int road_occupancy(RoadId road) const override {
    return sim_.road_occupancy(road);
  }
  [[nodiscard]] int queued_on_road(RoadId road) const override {
    return sim_.queued_on_road(road);
  }
  [[nodiscard]] net::PhaseIndex displayed_phase(IntersectionId node) const override {
    return sim_.displayed_phase(node);
  }
  [[nodiscard]] const net::Network& network() const noexcept override { return network_; }

 private:
  // Rebuilds result.detections from the junction monitors: events merged
  // into one stream ordered by (time, row, col), samples summed. Junction
  // streams are already time-sorted, and at equal times junction-index order
  // is (row, col) order, so a stable sort by time alone yields the canonical
  // order. No-op (and detections stays empty) in a detector-free run.
  stats::RunResult& export_detections(stats::RunResult& result) {
    if (adaptive_.empty()) return result;
    result.detections.samples = 0;
    result.detections.events.clear();
    for (const core::AdaptiveController* controller : adaptive_) {
      const detect::JunctionMonitor& monitor = controller->monitor();
      result.detections.samples += monitor.samples();
      result.detections.events.insert(result.detections.events.end(),
                                      monitor.events().begin(),
                                      monitor.events().end());
    }
    std::stable_sort(result.detections.events.begin(), result.detections.events.end(),
                     [](const stats::DetectionEvent& a, const stats::DetectionEvent& b) {
                       return a.time_s < b.time_s;
                     });
    return result;
  }

  net::Network network_;
  traffic::DemandGenerator demand_;
  // AdaptiveController per junction when the detector is enabled (empty
  // otherwise); pointees owned by sim_'s controllers. Declared before sim_:
  // filled while sim_'s initializer builds the controller set.
  std::vector<const core::AdaptiveController*> adaptive_;
  Backend sim_;
  // Time-sorted capacity events; next_event_ is the first not yet applied.
  std::vector<CapacityEvent> events_;
  std::size_t next_event_ = 0;
  std::optional<SimulatorGuard> guard_;
  double guard_interval_s_ = 0.0;
  double next_guard_s_ = 0.0;
  // True when there is nothing to inject or check: run_until forwards
  // directly to the backend.
  bool plain_ = true;
};

}  // namespace

std::unique_ptr<Simulator> make_simulator(const scenario::ScenarioConfig& config) {
  scenario::validate_or_throw(config.faults);
  if (config.detector.enabled) {
    const detect::DetectorConfig& d = config.detector;
    if (d.window_samples < 1) {
      throw std::invalid_argument("detector window_samples must be at least 1");
    }
    if (d.warmup_samples < 1) {
      throw std::invalid_argument("detector warmup_samples must be at least 1");
    }
    if (!(d.drift >= 0.0)) throw std::invalid_argument("detector drift must be >= 0");
    if (!(d.threshold > 0.0)) {
      throw std::invalid_argument("detector threshold must be positive");
    }
    if (!(d.min_sigma > 0.0)) {
      throw std::invalid_argument("detector min_sigma must be positive");
    }
    if (d.min_links < 1) {
      throw std::invalid_argument("detector min_links must be at least 1");
    }
    if (!(d.fuse_window_s > 0.0)) {
      throw std::invalid_argument("detector fuse_window_s must be positive");
    }
    if (!(d.cooldown_s >= 0.0)) {
      throw std::invalid_argument("detector cooldown_s must be >= 0");
    }
  }
  std::unique_ptr<Simulator> sim;
  if (config.simulator == scenario::SimulatorKind::Micro) {
    sim = std::make_unique<BackendSimulator<microsim::MicroSim>>(config);
  } else {
    sim = std::make_unique<BackendSimulator<queuesim::QueueSim>>(config);
  }
  for (const scenario::WatchSpec& w : config.watches) {
    sim->watch_road(resolve_watch(sim->network(), w), w.name);
  }
  return sim;
}

}  // namespace abp::sim
