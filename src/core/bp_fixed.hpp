// Fixed-length-slot back-pressure controllers: CAP-BP and the original policy.
//
// Both policies re-evaluate once per fixed control period T (the paper's
// Fig. 2 sweeps T from 10 s to 80 s) instead of every mini-slot. A slot whose
// selected phase differs from the running one begins with the amber
// transition; the remainder of the slot is green.
//
//   CAP-BP  (Gregoire et al., IEEE TCNS 2015 [4]): capacity-aware weights
//           based on normalized occupancies q/W per movement; movements into
//           a full road get zero weight, so overflow is never commanded. A
//           work-conservation fallback serves *something* whenever any
//           movement has queued vehicles and downstream space, which is
//           exactly the (relaxed) work-conservation notion of [4].
//   ORIG-BP (Varaiya [3]): Eq. (5) weights from total incoming queues,
//           max(0, .); when every phase scores zero no phase is activated.
#pragma once

#include <string>
#include <vector>

#include "src/core/controller.hpp"
#include "src/core/gain.hpp"
#include "src/core/pressure_presets.hpp"

namespace abp::core {

// Which per-link weight the slot decision uses.
enum class FixedSlotRule {
  // Normalized pressure difference, zero into full roads (CAP-BP).
  CapacityAware,
  // Eq. (5) on raw totals (original back-pressure).
  Original,
};

struct FixedSlotBpConfig {
  // Control period T: one phase decision per T seconds.
  double period_s = 16.0;
  // Amber duration inserted at the start of a slot that changes phase.
  double amber_duration_s = 4.0;
  // Gregoire-style fallback: when all weights are zero, activate the phase
  // able to serve the most vehicles rather than idling a whole slot.
  bool work_conserving = true;
  // Pressure mapping b = f(q), chosen by preset (see UtilBpConfig).
  PressureKind pressure_kind = PressureKind::Identity;
};

class FixedSlotBpController final : public SignalController {
 public:
  // The factory derives `rule` from the controller type (CAP-BP or
  // ORIG-BP); `pressure_capacity` is the W of the Normalized pressure preset.
  FixedSlotBpController(IntersectionPlan plan, FixedSlotBpConfig config,
                        FixedSlotRule rule = FixedSlotRule::CapacityAware,
                        double pressure_capacity = 120.0);

  [[nodiscard]] net::PhaseIndex decide(const IntersectionObservation& obs) override;
  void reset() override;
  [[nodiscard]] std::string name() const override {
    return rule_ == FixedSlotRule::CapacityAware ? "CAP-BP" : "ORIG-BP";
  }

  [[nodiscard]] const FixedSlotBpConfig& config() const noexcept { return config_; }

 private:
  // Writes the slot decision's per-link weights into weights_.
  void compute_link_weights(const IntersectionObservation& obs);
  [[nodiscard]] net::PhaseIndex select_phase(const IntersectionObservation& obs);
  // Vehicles the phase could serve this slot, for the work-conserving fallback.
  [[nodiscard]] double servable(const IntersectionObservation& obs,
                                net::PhaseIndex phase) const;

  IntersectionPlan plan_;
  FixedSlotBpConfig config_;
  FixedSlotRule rule_;
  Pressure pressure_;
  // Per-link weights of the running slot decision; a member so decide()
  // never allocates.
  std::vector<double> weights_;
  // Time at which the next slot decision is due.
  double next_slot_ = 0.0;
  bool started_ = false;
  // Phase displayed now (0 during amber or an idle slot).
  net::PhaseIndex current_ = net::kTransitionPhase;
  // Phase the running slot will show once amber completes.
  net::PhaseIndex slot_phase_ = net::kTransitionPhase;
  // Green phase of the previous slot (to decide whether amber is needed).
  net::PhaseIndex last_green_ = net::kTransitionPhase;
  double amber_until_ = 0.0;
};

}  // namespace abp::core
