// Tests for the gain metrics against the paper's equations (5)-(11).
#include "src/core/gain.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace abp::core {
namespace {

LinkState make_link(int queue, int down_queue, int down_total, int down_cap, double mu = 1.0,
                    int up_total = -1, int up_cap = 120) {
  LinkState l;
  l.queue = queue;
  l.upstream_total = up_total < 0 ? queue : up_total;
  l.upstream_capacity = up_cap;
  l.downstream_queue = down_queue;
  l.downstream_total = down_total;
  l.downstream_capacity = down_cap;
  l.service_rate = mu;
  return l;
}

TEST(Pressure, IdentityByDefault) {
  EXPECT_DOUBLE_EQ(pressure({}, 7.0), 7.0);
  EXPECT_DOUBLE_EQ(pressure({}, 0.0), 0.0);
}

TEST(Pressure, PresetsApply) {
  EXPECT_DOUBLE_EQ(pressure({PressureKind::Quadratic}, 3.0), 9.0);
  EXPECT_DOUBLE_EQ(pressure({PressureKind::Sqrt}, 9.0), 3.0);
  EXPECT_DOUBLE_EQ(pressure({PressureKind::Normalized, 40.0}, 10.0), 0.25);
}

TEST(WStar, TakesMaxDownstreamCapacity) {
  IntersectionObservation obs;
  obs.links.push_back(make_link(0, 0, 0, 100));
  obs.links.push_back(make_link(0, 0, 0, 120));
  obs.links.push_back(make_link(0, 0, 0, 80));
  EXPECT_DOUBLE_EQ(wstar(obs), 120.0);  // Eq. (7)
}

TEST(WStar, EmptyObservationIsZero) {
  IntersectionObservation obs;
  EXPECT_DOUBLE_EQ(wstar(obs), 0.0);
}

TEST(OriginalGain, PositivePressureDifference) {
  // Eq. (5): g_o = max(0, (b_i - b_{i'}) mu) with the *total* incoming queue.
  const LinkState l = make_link(3, 4, 4, 120, 2.0, /*up_total=*/10);
  EXPECT_DOUBLE_EQ(link_gain_original(l), (10.0 - 4.0) * 2.0);
}

TEST(OriginalGain, NegativeDifferenceClampsToZero) {
  const LinkState l = make_link(2, 9, 9, 120, 1.0, /*up_total=*/2);
  EXPECT_DOUBLE_EQ(link_gain_original(l), 0.0);
}

TEST(OriginalGain, UsesTotalNotPerLaneQueue) {
  // Distinguishing property the paper criticizes: vehicles not using the
  // link still contribute to its original gain.
  const LinkState l = make_link(/*queue=*/0, 1, 1, 120, 1.0, /*up_total=*/50);
  EXPECT_DOUBLE_EQ(link_gain_original(l), 49.0);
}

TEST(ModifiedGain, ShiftsByWStar) {
  // Eq. (6): g = (b_i^{i'} - b_{i'} + W*) mu.
  const LinkState l = make_link(5, 9, 9, 120);
  EXPECT_DOUBLE_EQ(link_gain_modified(l, 120.0), (5.0 - 9.0 + 120.0) * 1.0);
}

TEST(ModifiedGain, UsesPerLaneQueue) {
  const LinkState l = make_link(/*queue=*/2, 0, 0, 120, 3.0, /*up_total=*/40);
  EXPECT_DOUBLE_EQ(link_gain_modified(l, 120.0), (2.0 + 120.0) * 3.0);
}

TEST(ModifiedGain, ServiceRateScales) {
  const LinkState a = make_link(10, 0, 0, 120, 1.0);
  const LinkState b = make_link(10, 0, 0, 120, 2.0);
  EXPECT_DOUBLE_EQ(link_gain_modified(b, 120.0), 2.0 * link_gain_modified(a, 120.0));
}

TEST(UtilGain, FullDownstreamYieldsBeta) {
  // Eq. (8), first row: q_{i'} = W_{i'} -> beta.
  GainParams params;
  const LinkState l = make_link(50, 100, /*down_total=*/120, /*down_cap=*/120);
  EXPECT_DOUBLE_EQ(link_gain_util(l, 120.0, params), params.beta);
}

TEST(UtilGain, OverfullDownstreamStillBeta) {
  GainParams params;
  const LinkState l = make_link(50, 100, 125, 120);
  EXPECT_DOUBLE_EQ(link_gain_util(l, 120.0, params), params.beta);
}

TEST(UtilGain, EmptyLaneYieldsAlpha) {
  // Eq. (8), second row: space downstream but q_i^{i'} = 0 -> alpha.
  GainParams params;
  const LinkState l = make_link(/*queue=*/0, 10, 10, 120);
  EXPECT_DOUBLE_EQ(link_gain_util(l, 120.0, params), params.alpha);
}

TEST(UtilGain, FullBeatsEmptyInPriority) {
  // beta < alpha < 0 (Eq. 9): the full-downstream case ranks below empty.
  GainParams params;
  const LinkState full = make_link(50, 100, 120, 120);
  const LinkState empty = make_link(0, 10, 10, 120);
  EXPECT_LT(link_gain_util(full, 120.0, params), link_gain_util(empty, 120.0, params));
  EXPECT_LT(link_gain_util(empty, 120.0, params), 0.0);
}

TEST(UtilGain, GeneralCaseMatchesModifiedGain) {
  GainParams params;
  const LinkState l = make_link(7, 3, 5, 120);
  EXPECT_DOUBLE_EQ(link_gain_util(l, 120.0, params), link_gain_modified(l, 120.0));
}

TEST(UtilGain, NegativeDifferenceStillPositiveGain) {
  // The W* shift keeps gains positive even with more downstream than
  // upstream queue — the paper's utilization argument.
  GainParams params;
  const LinkState l = make_link(1, 30, 30, 120);
  EXPECT_GT(link_gain_util(l, 120.0, params), 0.0);
}

TEST(UtilGain, FullCaseWinsOverGeneralEvenAtCapacityBoundary) {
  // One below capacity uses the formula; at capacity uses beta.
  GainParams params;
  const LinkState below = make_link(5, 100, 119, 120);
  const LinkState at = make_link(5, 100, 120, 120);
  EXPECT_GT(link_gain_util(below, 120.0, params), 0.0);
  EXPECT_DOUBLE_EQ(link_gain_util(at, 120.0, params), params.beta);
}

TEST(AllLinkGains, ComputesPerLinkWithSharedWStar) {
  GainParams params;
  IntersectionObservation obs;
  obs.links.push_back(make_link(5, 0, 0, 100));
  obs.links.push_back(make_link(0, 0, 0, 120));   // empty -> alpha
  obs.links.push_back(make_link(9, 0, 120, 120)); // full -> beta
  std::vector<double> gains(7, 0.0);  // resized to the link count
  all_link_gains_util(obs, wstar(obs), params, gains);
  ASSERT_EQ(gains.size(), 3u);
  EXPECT_DOUBLE_EQ(gains[0], (5.0 + 120.0) * 1.0);  // W* = 120 shared
  EXPECT_DOUBLE_EQ(gains[1], params.alpha);
  EXPECT_DOUBLE_EQ(gains[2], params.beta);
}

TEST(PhaseAggregates, SumMaxAndArgmax) {
  const std::vector<double> gains = {1.0, -2.0, 5.0, 3.0};
  const std::vector<int> phase = {0, 2, 3};
  EXPECT_DOUBLE_EQ(phase_gain(phase, gains), 9.0);      // Eq. (10)
  EXPECT_DOUBLE_EQ(phase_gain_max(phase, gains), 5.0);  // Eq. (11)
  EXPECT_EQ(phase_argmax_link(phase, gains), 2);
}

TEST(PhaseAggregates, EmptyPhase) {
  const std::vector<double> gains = {1.0};
  const std::vector<int> empty;
  EXPECT_DOUBLE_EQ(phase_gain(empty, gains), 0.0);
  EXPECT_EQ(phase_gain_max(empty, gains), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(phase_argmax_link(empty, gains), -1);
}

TEST(PhaseAggregates, ArgmaxTiesResolveToFirst) {
  const std::vector<double> gains = {4.0, 4.0, 4.0};
  const std::vector<int> phase = {1, 0, 2};
  EXPECT_EQ(phase_argmax_link(phase, gains), 1);
}

class UtilGainSweep : public ::testing::TestWithParam<int> {};

TEST_P(UtilGainSweep, MonotoneInQueueLength) {
  // Property: with space downstream and a non-empty lane, the gain is
  // non-decreasing in the lane queue (identity pressure).
  GainParams params;
  const int down = GetParam();
  double prev = -std::numeric_limits<double>::infinity();
  for (int q = 1; q <= 120; ++q) {
    const LinkState l = make_link(q, down, down, 120);
    const double g = link_gain_util(l, 120.0, params);
    EXPECT_GE(g, prev);
    prev = g;
  }
}

INSTANTIATE_TEST_SUITE_P(DownstreamLevels, UtilGainSweep,
                         ::testing::Values(0, 1, 10, 60, 119));

}  // namespace
}  // namespace abp::core
