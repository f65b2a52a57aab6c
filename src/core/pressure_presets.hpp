// Preset pressure mappings b = f(q) for Eq. (4).
//
// The paper uses the identity (f(q) = q) but states the framework only needs
// a non-decreasing mapping. These presets make the generality concrete and
// are swept by the ablation benches:
//   Identity   — the paper's choice; pressure equals queue length.
//   Sqrt       — concave: long queues saturate, short queues dominate
//                decisions (fairness-leaning).
//   Quadratic  — convex: long queues dominate strongly (starvation-averse).
//   Normalized — q / W: pressure as occupancy fraction, the scaling CAP-BP
//                uses internally.
#pragma once

#include <algorithm>
#include <cmath>
#include <string>

namespace abp::core {

enum class PressureKind { Identity, Sqrt, Quadratic, Normalized };

[[nodiscard]] std::string pressure_kind_name(PressureKind kind);

// One preset mapping. `capacity` is the W that Normalized divides by (the
// factory passes the network's largest road capacity); the other presets
// ignore it.
struct Pressure {
  PressureKind kind = PressureKind::Identity;
  double capacity = 120.0;
};

// b = f(q) under the preset. Inline: it runs per link on every decision.
[[nodiscard]] inline double pressure(const Pressure& p, double queue) {
  switch (p.kind) {
    case PressureKind::Identity:
      return queue;
    case PressureKind::Sqrt:
      return std::sqrt(std::max(0.0, queue));
    case PressureKind::Quadratic:
      return queue * queue;
    case PressureKind::Normalized:
      return queue / p.capacity;
  }
  return queue;
}

}  // namespace abp::core
