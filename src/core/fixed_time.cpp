#include "src/core/fixed_time.hpp"

#include <cmath>
#include <stdexcept>

namespace abp::core {

FixedTimeController::FixedTimeController(IntersectionPlan plan, FixedTimeConfig config)
    : plan_(std::move(plan)), config_(config) {
  if (!(config_.green_duration_s > 0.0)) {
    throw std::invalid_argument("green duration must be positive");
  }
  if (config_.amber_duration_s < 0.0) {
    throw std::invalid_argument("amber duration must be non-negative");
  }
  if (!(config_.offset_s >= 0.0) || !std::isfinite(config_.offset_s)) {
    throw std::invalid_argument("offset must be finite and non-negative");
  }
  if (plan_.num_control_phases() < 1) {
    throw std::invalid_argument("fixed-time control needs at least one control phase");
  }
}

void FixedTimeController::reset() {
  started_ = false;
  cycle_origin_ = 0.0;
}

net::PhaseIndex FixedTimeController::decide(const IntersectionObservation& obs) {
  if (!started_) {
    started_ = true;
    cycle_origin_ = obs.time;
  }
  const int phases = plan_.num_control_phases();
  const double slot = config_.green_duration_s + config_.amber_duration_s;
  const double cycle = slot * phases;
  // The configured offset shifts where in the common cycle this junction
  // starts: a junction with offset o displays at time t what an offset-0
  // junction displays at t + o, i.e. it reaches each phase boundary o seconds
  // *earlier*. A green wave for travel time tau per block therefore uses
  // offsets decreasing by tau along the travel direction (modularly:
  // offset_k = (cycle - k * tau) mod cycle).
  double offset = std::fmod(obs.time - cycle_origin_ + config_.offset_s, cycle);
  if (offset < 0.0) offset += cycle;
  const int slot_index = static_cast<int>(offset / slot);
  const double within = offset - slot_index * slot;
  // Amber leads each slot so the first green also starts after a transition,
  // matching how the adaptive policies account transitions.
  if (within < config_.amber_duration_s) return net::kTransitionPhase;
  return slot_index + 1;
}

}  // namespace abp::core
