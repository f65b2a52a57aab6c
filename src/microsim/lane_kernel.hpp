// Vectorized Krauss lane kernel: the micro-sim sweep's per-lane update as
// multi-pass, branchless, auto-vectorizable array passes over the lane's SoA
// state (Lane::pos/speed), plus the scalar reference implementation the
// equality tests and the kernel microbench compare against.
//
// The synchronous Krauss (1998) update makes every per-vehicle computation
// within a lane depend only on *previous-step* leader kinematics, so the
// expensive per-vehicle work — the safe-speed radical and the dawdle draw —
// is element-wise over the lane once the gaps are materialized. The kernel
// exploits that in four passes:
//
//   1. lane_gaps         gap/leader-speed stencil from pos[i-1], pos[i]
//   2. lane_speeds       branchless safe-speed/min/max chain + dawdle; the
//                        data-dependent branches of next_speed() become
//                        element-wise selects, so gcc/clang vectorize the
//                        pass at -O3 (sqrt included; see -fno-math-errno in
//                        CMakeLists.txt)
//   3. lane_integrate    position integration + stop-line head clamp, and an
//                        OR-reduction flagging whether any follower violates
//                        the overlap guard
//   4. lane_clamp        the (rare) sequential overlap-guard fallback
//
// Every pass performs the same arithmetic in the same element order as the
// scalar loop it replaces, so results are bit-identical — pinned lane-level
// by tests/microsim_krauss_test.cpp and end-to-end by the golden determinism
// and thread-invariance suites. Dawdle draws come from StreamRng's bulk fill
// (counter-based, so a batch of n draws is indistinguishable from n scalar
// calls, including the final counter).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "src/microsim/krauss.hpp"
#include "src/util/rng.hpp"

namespace abp::microsim {

// Gap value that behaves as "no obstacle ahead".
inline constexpr double kFreeGap = 1e9;

// Reusable per-work-unit scratch for the kernel's materialized arrays. One
// instance per sweep work unit (not per lane): capacity grows to the widest
// lane the unit ever sees and is reused across lanes and ticks.
struct LaneKernelScratch {
  std::vector<double> gap;
  std::vector<double> lead_v;
  std::vector<double> draws;

  void ensure(std::size_t n) {
    if (gap.size() < n) {
      gap.resize(n);
      lead_v.resize(n);
      draws.resize(n);
    }
  }
};

// Pass 1 — gap/leader stencil, head-first order (slot 0 = lane head).
// gap[i] and lead_v[i] are follower i's view of its leader's previous-step
// kinematics; the head's obstacle (stop line or free run-out) is a
// caller-computed scalar since it is not a stencil of the arrays.
inline void lane_gaps(const double* __restrict pos, const double* __restrict speed,
                      std::size_t n, double head_gap, double vehicle_length,
                      double min_gap, double* __restrict gap, double* __restrict lead_v) {
  for (std::size_t i = 1; i < n; ++i) {
    gap[i] = pos[i - 1] - vehicle_length - pos[i] - min_gap;
    lead_v[i] = speed[i - 1];
  }
  gap[0] = head_gap;
  lead_v[0] = 0.0;
}

// Pass 2 — branchless synchronous Krauss speed update, in place. Element i
// performs exactly next_speed(speed[i], gap[i], lead_v[i], ...) of
// krauss.hpp, with its two data-dependent branches (gap <= 0, the max(0, ..)
// clips) rewritten as selects: identical arithmetic on identical operands in
// array order, so the result is bit-identical (the sqrt is computed
// unconditionally on max(0, radicand) — a vectorized sqrt lane costs what
// the scalar fast path saved, which is how next_speed_fast's sqrt-eliding
// branch generalizes to a per-element mask that never needs materializing).
// `draws` must hold vehicle-ordered dawdle draws (draws[i] belongs to slot i,
// filled tail-first via StreamRng::fill_u01_tailfirst); nullptr disables
// dawdling exactly like passing rand01 = 0 per element.
inline void lane_speeds(double* __restrict speed, const double* __restrict gap,
                        const double* __restrict lead_v, const double* __restrict draws,
                        std::size_t n, double speed_limit, const VehicleParams& p,
                        double dt) {
  const double a_dt = p.accel_mps2 * dt;
  const double bt = p.decel_mps2 * p.tau_s;
  const double bt2 = bt * bt;
  const double two_b = 2.0 * p.decel_mps2;
  const double dawdle_scale = p.sigma * p.accel_mps2 * dt;
  // The gap <= 0 select is written as a conditional overwrite rather than a
  // ternary: gcc 12's if-conversion turns this form into a blend but leaves
  // the equivalent ternary as control flow, which blocks vectorizing the
  // whole pass.
  if (draws != nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      const double cap = std::min(speed_limit, speed[i] + a_dt);
      const double g = gap[i];
      const double l = lead_v[i];
      const double radicand = bt2 + l * l + two_b * g;
      const double root = std::sqrt(std::max(0.0, radicand));
      double v_safe = std::max(0.0, -bt + root);
      if (g <= 0.0) v_safe = 0.0;
      const double v_des = std::min(cap, v_safe);
      speed[i] = std::max(0.0, v_des - dawdle_scale * draws[i]);
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const double cap = std::min(speed_limit, speed[i] + a_dt);
      const double g = gap[i];
      const double l = lead_v[i];
      const double radicand = bt2 + l * l + two_b * g;
      const double root = std::sqrt(std::max(0.0, radicand));
      double v_safe = std::max(0.0, -bt + root);
      if (g <= 0.0) v_safe = 0.0;
      // rand01 = 0 makes the dawdle term (+-)0.0; v_des is never -0.0 (both
      // min operands are max(0, ..) results or positive), so subtracting it
      // is the identity and the reference's max(0, v_des - 0.0) is v_des.
      speed[i] = std::max(0.0, std::min(cap, v_safe));
    }
  }
}

// Pass 3 — integrate positions in place from the already-updated speeds,
// clamp the head at the stop line (non-exit roads), and report whether any
// follower trips the overlap guard against its leader's *tentative* new
// position. A false of the report is exact: a follower can only need
// clamping against a *final* leader position if that leader itself moved
// under a clamp, which this pass already flagged. The head clamp is applied
// here (scalar, O(1)) rather than flagged because a red-light head hits it
// every tick while it creeps against the stop line — flagging it would send
// every queued lane down the sequential fallback.
[[nodiscard]] inline bool lane_integrate(double* __restrict pos,
                                         double* __restrict speed, std::size_t n,
                                         double dt, double vehicle_length, bool is_exit,
                                         double road_length) {
  for (std::size_t i = 0; i < n; ++i) pos[i] += speed[i] * dt;
  if (!is_exit && pos[0] > road_length - 0.2) {
    pos[0] = road_length - 0.2;  // hold at the stop line
    speed[0] = 0.0;
  }
  int clamp_needed = 0;
  for (std::size_t i = 1; i < n; ++i) {
    clamp_needed |= pos[i] > pos[i - 1] - vehicle_length - 0.1 ? 1 : 0;
  }
  return clamp_needed != 0;
}

// Pass 4 (rare) — the sequential overlap-guard fallback, run only when
// lane_integrate flagged a potential violation: the scalar reference's guard
// verbatim, clamping each follower against its leader's *final* position and
// speed so a clamp can cascade tail-ward exactly as in the reference.
inline void lane_clamp(double* pos, double* speed, std::size_t n, double vehicle_length) {
  for (std::size_t i = 1; i < n; ++i) {
    const double limit = pos[i - 1] - vehicle_length - 0.1;
    if (pos[i] > limit) {
      pos[i] = std::max(0.0, limit);
      speed[i] = std::min(speed[i], speed[i - 1]);
    }
  }
}

// The full kinematic lane update (speeds + positions; accounting stays with
// the caller): bulk dawdle fill, then passes 1-4. `rng` nullptr disables
// dawdling (and consumes no draws), matching the scalar reference.
inline void lane_update_vectorized(double* pos, double* speed, std::size_t n,
                                   double speed_limit, double road_length, bool is_exit,
                                   const VehicleParams& p, double dt, StreamRng* rng,
                                   LaneKernelScratch& scratch) {
  if (n == 0) [[unlikely]] return;  // no head to read; the reference is a no-op too
  scratch.ensure(n);
  const double* draws = nullptr;
  if (rng != nullptr) {
    rng->fill_u01_tailfirst(scratch.draws.data(), n);
    draws = scratch.draws.data();
  }
  const double head_gap = is_exit ? kFreeGap : road_length - pos[0];
  lane_gaps(pos, speed, n, head_gap, p.length_m, p.min_gap_m, scratch.gap.data(),
            scratch.lead_v.data());
  lane_speeds(speed, scratch.gap.data(), scratch.lead_v.data(), draws, n, speed_limit, p,
              dt);
  if (lane_integrate(pos, speed, n, dt, p.length_m, is_exit, road_length)) {
    lane_clamp(pos, speed, n, p.length_m);
  }
}

// Scalar reference: the pre-vectorization per-vehicle loop, kept as the
// semantic baseline, the target of the lane-level bit-equality pin, and one
// side of bench_krauss_kernel's comparison. The sweep never calls it. Consumes rng draws tail-first (slot n-1 first), exactly as the
// historical sweep did — fill_u01_tailfirst reproduces precisely this
// consumption order, which is why the two implementations share one stream
// position.
inline void lane_update_reference(double* pos, double* speed, std::size_t n,
                                  double speed_limit, double road_length, bool is_exit,
                                  const VehicleParams& p, double dt, StreamRng* rng) {
  // Pass 1 — synchronous Krauss speeds, tail-first so the new speed can
  // overwrite speed[i] in place after follower i+1 consumed the old value.
  for (std::size_t i = n; i-- > 0;) {
    const double position = pos[i];
    const double current = speed[i];
    double gap;
    double lead_v;
    if (i > 0) {
      gap = pos[i - 1] - p.length_m - position - p.min_gap_m;
      lead_v = speed[i - 1];
    } else if (is_exit) {
      gap = kFreeGap;  // drives off the far end
      lead_v = 0.0;
    } else {
      gap = road_length - position;
      lead_v = 0.0;
    }
    const double dawdle = rng != nullptr ? rng->uniform01() : 0.0;
    speed[i] = next_speed_fast(current, gap, lead_v, speed_limit, p, dt, dawdle);
  }
  // Pass 2 — positions and overlap guards, head-first against the leader's
  // *new* position.
  double leader_pos = 0.0;
  double leader_speed = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double v = speed[i];
    double position = pos[i] + v * dt;
    if (i > 0) {
      const double limit = leader_pos - p.length_m - 0.1;
      if (position > limit) {
        position = std::max(0.0, limit);
        v = std::min(v, leader_speed);
        speed[i] = v;
      }
    } else if (!is_exit && position > road_length - 0.2) {
      position = road_length - 0.2;  // hold at the stop line
      v = 0.0;
      speed[i] = v;
    }
    pos[i] = position;
    leader_pos = position;
    leader_speed = v;
  }
}

// Note on occupancy cutoffs: bench_krauss_kernel shows the scalar loop ahead
// of the kernel below ~8 vehicles *in isolation* — but that advantage is a
// microbench artifact (a single lane in steady state trains the branch
// predictor perfectly, hiding the scalar loop's data-dependent branches). In
// the real sweep, where lane states vary from tick to tick, dispatching
// lanes with n <= 2 to the scalar loop measured 13% slower on perfbench's
// metro_light (ns/veh-step median 192 -> 217, 6 alternating pairs) and 4%
// slower on paper_table3 (27.3 -> 28.3, 4 pairs), so the sweep always uses
// the kernel (see docs/PERFORMANCE.md "Vectorized lane kernel").

}  // namespace abp::microsim
