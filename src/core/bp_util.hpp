// UTIL-BP: the paper's utilization-aware adaptive back-pressure controller
// (Algorithm 1).
//
// Invoked every mini-slot, which is what enables varying-length control
// phases. Three cases:
//   Case 1  — amber (transition) still running: keep c0.
//   Case 2  — current phase still has a link with gain above the hysteresis
//             threshold g*(k): keep it (limits the number of transitions).
//   Case 3  — re-select: among phases that guarantee some utilization
//             (gmax > alpha) pick the one with the largest total gain;
//             if none exists, pick the phase with the largest single link
//             gain. Switching to a different phase first runs the amber
//             transition of length Delta-k.
#pragma once

#include <string>
#include <vector>

#include "src/core/controller.hpp"
#include "src/core/gain.hpp"
#include "src/core/pressure_presets.hpp"

namespace abp::core {

// Choice of the hysteresis threshold g*(k) used in Case 2.
enum class GStarPolicy {
  // Eq. (12): g* = W* mu of the current max-gain link, i.e. keep the phase
  // while that link's pressure difference is still positive.
  WStarMu,
  // g* = 0: keep the phase while any constituent gain is positive (most
  // reluctant to change that still respects work conservation).
  Zero,
  // g* = constant supplied in UtilBpConfig::gstar_constant.
  Constant,
};

struct UtilBpConfig {
  // Sentinel gains of Eq. (8)/(9); the paper uses alpha=-1, beta=-2.
  double alpha = -1.0;
  double beta = -2.0;
  // Transition-phase (amber) duration Delta-k; the paper uses 4 s.
  double amber_duration_s = 4.0;
  GStarPolicy gstar_policy = GStarPolicy::WStarMu;
  double gstar_constant = 0.0;
  // Pressure mapping b = f(q), chosen by preset (docs/SCENARIOS.md).
  PressureKind pressure_kind = PressureKind::Identity;
};

class UtilBpController final : public SignalController {
 public:
  // `pressure_capacity` is the W of the Normalized pressure preset.
  UtilBpController(IntersectionPlan plan, UtilBpConfig config,
                   double pressure_capacity = 120.0);

  [[nodiscard]] net::PhaseIndex decide(const IntersectionObservation& obs) override;
  void reset() override;
  [[nodiscard]] std::string name() const override { return "UTIL-BP"; }

  [[nodiscard]] const UtilBpConfig& config() const noexcept { return config_; }
  // Currently displayed phase (0 while in transition). For tests/traces.
  [[nodiscard]] net::PhaseIndex current_phase() const noexcept { return current_; }

 private:
  // `wstar_value` is wstar(obs), computed once per decision.
  [[nodiscard]] double gstar_for(const IntersectionObservation& obs, double wstar_value) const;
  [[nodiscard]] net::PhaseIndex select_phase(std::span<const double> gains) const;

  IntersectionPlan plan_;
  UtilBpConfig config_;
  GainParams gain_params_;
  // This decision's link gains; a member so decide() never allocates.
  std::vector<double> gains_;
  net::PhaseIndex current_ = net::kTransitionPhase;
  // t_Deltak of Algorithm 1: expiry time of the running transition phase.
  double transition_until_ = -1.0;
};

}  // namespace abp::core
