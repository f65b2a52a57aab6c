// Link-gain metrics: the decision quantities of back-pressure signal control.
//
// Implements, in one place tested against the paper's equations:
//   Eq. (4)  b = f(q), the pressure mapping (pressure_presets.hpp),
//   Eq. (5)  the original link gain  g_o = max(0, (b_i - b_{i'}) mu),
//   Eq. (6)  the modified link gain  g = (b_i^{i'} - b_{i'} + W*) mu,
//   Eq. (7)  W* = max_{i' in N_O} W_{i'},
//   Eq. (8)  the utilization-aware gain with the sentinels beta (full
//            outgoing road) and alpha (empty incoming lane),
//   Eq. (10) phase gain g(c_j,k) = sum of constituent link gains,
//   Eq. (11) gmax(c_j,k) = max of constituent link gains.
#pragma once

#include <span>
#include <vector>

#include "src/core/observation.hpp"
#include "src/core/pressure_presets.hpp"

namespace abp::core {

// Parameters of the utilization-aware gain (Eq. 8/9).
struct GainParams {
  // Gain of a movement whose per-lane incoming queue is empty while the
  // outgoing road still has space: activating it serves only newly arriving
  // vehicles. Must be negative.
  double alpha = -1.0;
  // Gain of a movement whose outgoing road is full: activating it serves
  // nothing at all. The paper recommends beta < alpha < 0, but allows the
  // traffic authority to invert the order; we only require both negative.
  double beta = -2.0;
  // Pressure mapping b = f(q); identity (the paper's choice) by default.
  Pressure pressure;
};

// Eq. (7): the largest outgoing-road capacity observable at the junction.
[[nodiscard]] double wstar(const IntersectionObservation& obs);

// Eq. (5): original back-pressure gain; uses the *total* incoming queue.
[[nodiscard]] double link_gain_original(const LinkState& link, const Pressure& p = {});

// Eq. (6): modified gain; per-lane incoming queue, shifted by W* so that
// negative pressure differences still compete for service.
[[nodiscard]] double link_gain_modified(const LinkState& link, double wstar_value,
                                        const Pressure& p = {});

// Eq. (8): utilization-aware gain with the full/empty sentinels.
[[nodiscard]] double link_gain_util(const LinkState& link, double wstar_value,
                                    const GainParams& params);

// Gains of all links of an observation under Eq. (8), in link order, written
// into `gains` (resized to the link count; no allocation once it has held
// that many). `wstar_value` is wstar(obs), which callers often need too.
void all_link_gains_util(const IntersectionObservation& obs, double wstar_value,
                         const GainParams& params, std::vector<double>& gains);

// Eq. (10): total gain of a phase given per-link gains. Empty phase -> 0.
[[nodiscard]] double phase_gain(std::span<const int> phase_links,
                                std::span<const double> link_gains);

// Eq. (11): maximum link gain within a phase. Empty phase -> -infinity.
[[nodiscard]] double phase_gain_max(std::span<const int> phase_links,
                                    std::span<const double> link_gains);

// Index (into the observation) of the link attaining phase_gain_max;
// -1 for an empty phase. Ties resolve to the first link in phase order.
[[nodiscard]] int phase_argmax_link(std::span<const int> phase_links,
                                    std::span<const double> link_gains);

}  // namespace abp::core
