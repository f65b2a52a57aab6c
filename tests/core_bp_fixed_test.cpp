// Tests for the fixed-length-slot back-pressure controllers (CAP-BP / ORIG-BP).
#include "src/core/bp_fixed.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace abp::core {
namespace {

IntersectionPlan two_phase_plan() {
  IntersectionPlan plan;
  plan.num_links = 2;
  plan.phases = {{}, {0}, {1}};
  return plan;
}

IntersectionObservation obs_at(double time, const std::vector<int>& queues,
                               const std::vector<int>& downstream_queues,
                               int capacity = 120) {
  IntersectionObservation obs;
  obs.time = time;
  for (std::size_t i = 0; i < queues.size(); ++i) {
    LinkState l;
    l.queue = queues[i];
    l.upstream_total = queues[i];
    l.upstream_capacity = capacity;
    l.downstream_queue = downstream_queues[i];
    l.downstream_total = downstream_queues[i];
    l.downstream_capacity = capacity;
    l.service_rate = 1.0;
    obs.links.push_back(l);
  }
  return obs;
}

FixedSlotBpConfig cap_config(double period = 16.0) {
  FixedSlotBpConfig cfg;
  cfg.period_s = period;
  cfg.amber_duration_s = 4.0;
  cfg.rule = FixedSlotRule::CapacityAware;
  return cfg;
}

TEST(FixedSlotBp, RejectsBadConfig) {
  EXPECT_THROW(FixedSlotBpController(two_phase_plan(), {.period_s = 0.0}),
               std::invalid_argument);
  FixedSlotBpConfig amber_too_long;
  amber_too_long.period_s = 4.0;
  amber_too_long.amber_duration_s = 4.0;
  EXPECT_THROW(FixedSlotBpController(two_phase_plan(), amber_too_long),
               std::invalid_argument);
  IntersectionPlan no_phases;
  no_phases.num_links = 1;
  no_phases.phases = {{}};
  EXPECT_THROW(FixedSlotBpController(no_phases, cap_config()), std::invalid_argument);
}

TEST(FixedSlotBp, RejectsNanPeriod) {
  // NaN fails every ordered comparison, so a `period <= 0` guard let it
  // through and the controller never completed a slot.
  FixedSlotBpConfig cfg = cap_config();
  cfg.period_s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(FixedSlotBpController(two_phase_plan(), cfg), std::invalid_argument);
}

TEST(FixedSlotBp, NamesFollowRule) {
  FixedSlotBpController cap(two_phase_plan(), cap_config());
  EXPECT_EQ(cap.name(), "CAP-BP");
  FixedSlotBpConfig orig_cfg = cap_config();
  orig_cfg.rule = FixedSlotRule::Original;
  FixedSlotBpController orig(two_phase_plan(), orig_cfg);
  EXPECT_EQ(orig.name(), "ORIG-BP");
}

TEST(FixedSlotBp, FirstSlotStartsWithAmberThenGreen) {
  FixedSlotBpController c(two_phase_plan(), cap_config());
  // Slot decision at t=0 selects phase 1 (bigger queue); the change from
  // "nothing" to phase 1 passes through amber.
  EXPECT_EQ(c.decide(obs_at(0.0, {10, 2}, {0, 0})), net::kTransitionPhase);
  EXPECT_EQ(c.decide(obs_at(2.0, {10, 2}, {0, 0})), net::kTransitionPhase);
  EXPECT_EQ(c.decide(obs_at(4.0, {10, 2}, {0, 0})), 1);
  EXPECT_EQ(c.decide(obs_at(10.0, {10, 2}, {0, 0})), 1);
}

TEST(FixedSlotBp, HoldsDecisionForWholePeriod) {
  FixedSlotBpController c(two_phase_plan(), cap_config(16.0));
  EXPECT_EQ(c.decide(obs_at(0.0, {10, 2}, {0, 0})), net::kTransitionPhase);
  // Mid-slot the other queue explodes; the fixed-length policy cannot react.
  EXPECT_EQ(c.decide(obs_at(4.0, {0, 90}, {0, 0})), 1);
  EXPECT_EQ(c.decide(obs_at(8.0, {0, 90}, {0, 0})), 1);
  EXPECT_EQ(c.decide(obs_at(15.9, {0, 90}, {0, 0})), 1);
  // Next slot boundary reacts, through amber.
  EXPECT_EQ(c.decide(obs_at(16.0, {0, 90}, {0, 0})), net::kTransitionPhase);
  EXPECT_EQ(c.decide(obs_at(20.0, {0, 90}, {0, 0})), 2);
}

TEST(FixedSlotBp, SamePhaseContinuesWithoutAmber) {
  FixedSlotBpController c(two_phase_plan(), cap_config(10.0));
  EXPECT_EQ(c.decide(obs_at(0.0, {10, 2}, {0, 0})), net::kTransitionPhase);
  EXPECT_EQ(c.decide(obs_at(4.0, {10, 2}, {0, 0})), 1);
  // Next slot re-selects phase 1: green continues uninterrupted.
  EXPECT_EQ(c.decide(obs_at(10.0, {10, 2}, {0, 0})), 1);
  EXPECT_EQ(c.decide(obs_at(11.0, {10, 2}, {0, 0})), 1);
}

TEST(FixedSlotBp, CapacityAwareIgnoresFullDownstream) {
  FixedSlotBpController c(two_phase_plan(), cap_config());
  // Phase 1's link feeds a full road (weight 0); phase 2 has a small queue
  // with space: phase 2 must win despite the huge upstream queue.
  IntersectionObservation obs = obs_at(0.0, {100, 3}, {0, 0});
  obs.links[0].downstream_total = 120;
  obs.links[0].downstream_queue = 110;
  EXPECT_EQ(c.decide(obs), net::kTransitionPhase);
  EXPECT_EQ(c.decide(obs_at(4.0, {100, 3}, {0, 0})), 2);
}

TEST(FixedSlotBp, WorkConservingFallbackServesSomething) {
  // All normalized pressure differences are zero (equal occupancy up and
  // down), but vehicles exist and downstream has space: the fallback must
  // pick the phase able to serve the most vehicles rather than idle.
  FixedSlotBpController c(two_phase_plan(), cap_config());
  const auto phase0 = c.decide(obs_at(0.0, {8, 3}, {8, 3}));
  EXPECT_EQ(phase0, net::kTransitionPhase);  // amber into the chosen phase
  EXPECT_EQ(c.decide(obs_at(4.0, {8, 3}, {8, 3})), 1);
}

TEST(FixedSlotBp, NonConservingIdlesOnZeroWeights) {
  FixedSlotBpConfig cfg = cap_config();
  cfg.work_conserving = false;
  FixedSlotBpController c(two_phase_plan(), cfg);
  EXPECT_EQ(c.decide(obs_at(0.0, {8, 3}, {8, 3})), net::kTransitionPhase);
  // Whole slot stays red: the non-work-conserving original behaviour.
  EXPECT_EQ(c.decide(obs_at(8.0, {8, 3}, {8, 3})), net::kTransitionPhase);
  EXPECT_EQ(c.decide(obs_at(15.0, {8, 3}, {8, 3})), net::kTransitionPhase);
}

TEST(FixedSlotBp, OriginalRuleUsesTotalQueues) {
  FixedSlotBpConfig cfg = cap_config();
  cfg.rule = FixedSlotRule::Original;
  cfg.work_conserving = false;
  FixedSlotBpController c(two_phase_plan(), cfg);
  // Eq. (5): weights from total incoming queue; link 0 weight (20-0)=20,
  // link 1 weight (3-0)=3 -> phase 1.
  IntersectionObservation obs = obs_at(0.0, {2, 3}, {0, 0});
  obs.links[0].upstream_total = 20;
  EXPECT_EQ(c.decide(obs), net::kTransitionPhase);
  EXPECT_EQ(c.decide(obs_at(4.0, {2, 3}, {0, 0})), 1);
}

TEST(FixedSlotBp, OriginalRuleBlindToCapacity) {
  // The original policy happily selects a movement into a full road — the
  // flaw CAP-BP fixes.
  FixedSlotBpConfig cfg = cap_config();
  cfg.rule = FixedSlotRule::Original;
  FixedSlotBpController c(two_phase_plan(), cfg);
  IntersectionObservation obs = obs_at(0.0, {100, 3}, {0, 0});
  obs.links[0].downstream_total = 120;  // full, but raw pressures ignore it
  obs.links[0].downstream_queue = 0;
  c.decide(obs);
  EXPECT_EQ(c.decide(obs_at(4.0, {100, 3}, {0, 0}, 120)), 1);
}

TEST(FixedSlotBp, ResetRestartsSlotClock) {
  FixedSlotBpController c(two_phase_plan(), cap_config(16.0));
  c.decide(obs_at(0.0, {10, 2}, {0, 0}));
  c.decide(obs_at(4.0, {10, 2}, {0, 0}));
  c.reset();
  // A fresh first slot begins at the next decision time.
  EXPECT_EQ(c.decide(obs_at(100.0, {2, 10}, {0, 0})), net::kTransitionPhase);
  EXPECT_EQ(c.decide(obs_at(104.0, {2, 10}, {0, 0})), 2);
}

class FixedSlotPeriodSweep : public ::testing::TestWithParam<double> {};

TEST_P(FixedSlotPeriodSweep, DecisionsHappenOncePerPeriod) {
  const double period = GetParam();
  FixedSlotBpController c(two_phase_plan(), cap_config(period));
  // Count phase-selection changes over 10 periods of an alternating load
  // sampled every second: switches may happen only at slot boundaries, so at
  // most 10 ambers appear.
  int ambers = 0;
  net::PhaseIndex prev = 1;
  for (double t = 0.0; t < 10.0 * period; t += 1.0) {
    const bool favour1 = static_cast<long>(t / period) % 2 == 0;
    const auto phase = c.decide(
        obs_at(t, {favour1 ? 20 : 1, favour1 ? 1 : 20}, {0, 0}));
    if (phase == net::kTransitionPhase && prev != net::kTransitionPhase) ++ambers;
    prev = phase;
  }
  EXPECT_LE(ambers, 10);
  EXPECT_GE(ambers, 5);
}

INSTANTIATE_TEST_SUITE_P(Periods, FixedSlotPeriodSweep,
                         ::testing::Values(8.0, 10.0, 16.0, 20.0, 32.0, 64.0));

}  // namespace
}  // namespace abp::core
