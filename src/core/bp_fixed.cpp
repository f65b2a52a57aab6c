#include "src/core/bp_fixed.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace abp::core {

FixedSlotBpController::FixedSlotBpController(IntersectionPlan plan, FixedSlotBpConfig config,
                                             FixedSlotRule rule, double pressure_capacity)
    : plan_(std::move(plan)),
      config_(config),
      rule_(rule),
      pressure_{config.pressure_kind, pressure_capacity} {
  if (!(config_.period_s > 0.0)) {
    throw std::invalid_argument("control period must be positive");
  }
  if (config_.amber_duration_s < 0.0 || config_.amber_duration_s >= config_.period_s) {
    throw std::invalid_argument("amber duration must be in [0, period)");
  }
  if (plan_.num_control_phases() < 1) {
    throw std::invalid_argument("fixed-slot BP needs at least one control phase");
  }
  if (!(pressure_capacity > 0.0)) {
    throw std::invalid_argument("pressure capacity must be positive");
  }
}

void FixedSlotBpController::reset() {
  next_slot_ = 0.0;
  started_ = false;
  current_ = net::kTransitionPhase;
  slot_phase_ = net::kTransitionPhase;
  last_green_ = net::kTransitionPhase;
  amber_until_ = 0.0;
}

void FixedSlotBpController::compute_link_weights(const IntersectionObservation& obs) {
  weights_.resize(obs.links.size());
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    const LinkState& l = obs.links[i];
    if (rule_ == FixedSlotRule::Original) {
      weights_[i] = link_gain_original(l, pressure_);
      continue;
    }
    // CAP-BP: occupancy-normalized pressures; a full downstream road yields
    // zero weight so the policy never commands flow into it.
    if (l.downstream_total >= l.downstream_capacity) {
      weights_[i] = 0.0;
      continue;
    }
    const double occupancy_in =
        static_cast<double>(l.queue) / static_cast<double>(std::max(l.upstream_capacity, 1));
    const double occupancy_out = static_cast<double>(l.downstream_queue) /
                                 static_cast<double>(std::max(l.downstream_capacity, 1));
    const double diff =
        pressure(pressure_, occupancy_in) - pressure(pressure_, occupancy_out);
    weights_[i] = std::max(0.0, diff * l.service_rate);
  }
}

double FixedSlotBpController::servable(const IntersectionObservation& obs,
                                       net::PhaseIndex phase) const {
  const double green = config_.period_s - config_.amber_duration_s;
  double total = 0.0;
  for (int idx : plan_.phases[static_cast<std::size_t>(phase)]) {
    const LinkState& l = obs.links[static_cast<std::size_t>(idx)];
    const double space =
        static_cast<double>(std::max(0, l.downstream_capacity - l.downstream_total));
    total += std::min({static_cast<double>(l.queue), l.service_rate * green, space});
  }
  return total;
}

net::PhaseIndex FixedSlotBpController::select_phase(const IntersectionObservation& obs) {
  compute_link_weights(obs);
  net::PhaseIndex best = net::kTransitionPhase;
  double best_score = 0.0;
  for (int j = 1; j <= plan_.num_control_phases(); ++j) {
    const double score = phase_gain(plan_.phases[static_cast<std::size_t>(j)], weights_);
    // Strictly-positive score required; the incumbent green wins ties to
    // avoid spending amber on an equivalent alternative.
    if (score > best_score || (score == best_score && score > 0.0 && j == last_green_)) {
      best_score = score;
      best = j;
    }
  }
  if (best != net::kTransitionPhase) return best;

  if (config_.work_conserving) {
    // All pressure weights are zero. Serve whatever can physically move, the
    // (relaxed) work conservation of [4].
    double best_served = 0.0;
    for (int j = 1; j <= plan_.num_control_phases(); ++j) {
      const double served = servable(obs, j);
      if (served > best_served || (served == best_served && served > 0.0 && j == last_green_)) {
        best_served = served;
        best = j;
      }
    }
  }
  return best;  // kTransitionPhase = no phase activated this slot
}

net::PhaseIndex FixedSlotBpController::decide(const IntersectionObservation& obs) {
  if (static_cast<int>(obs.links.size()) != plan_.num_links) {
    throw std::invalid_argument("observation size does not match plan");
  }
  if (!started_ || obs.time >= next_slot_) {
    if (!started_) {
      next_slot_ = obs.time;
      started_ = true;
    }
    // Catch up in case decide() is called less often than the period.
    while (obs.time >= next_slot_) next_slot_ += config_.period_s;

    const net::PhaseIndex chosen = select_phase(obs);
    slot_phase_ = chosen;
    if (chosen == net::kTransitionPhase) {
      // Idle slot: nothing worth serving. Display red; no amber bookkeeping.
      current_ = net::kTransitionPhase;
      last_green_ = net::kTransitionPhase;
    } else if (chosen == last_green_) {
      current_ = chosen;  // same green continues, no transition needed
    } else {
      current_ = net::kTransitionPhase;
      amber_until_ = obs.time + config_.amber_duration_s;
      last_green_ = chosen;
    }
    return current_;
  }

  if (current_ == net::kTransitionPhase && slot_phase_ != net::kTransitionPhase &&
      obs.time >= amber_until_) {
    current_ = slot_phase_;
  }
  return current_;
}

}  // namespace abp::core
