#include "src/core/gain.hpp"

#include <algorithm>
#include <limits>

namespace abp::core {

double wstar(const IntersectionObservation& obs) {
  double w = 0.0;
  for (const LinkState& l : obs.links) {
    w = std::max(w, static_cast<double>(l.downstream_capacity));
  }
  return w;
}

double link_gain_original(const LinkState& link, const Pressure& p) {
  const double diff = pressure(p, link.upstream_total) - pressure(p, link.downstream_queue);
  return std::max(0.0, diff * link.service_rate);
}

double link_gain_modified(const LinkState& link, double wstar_value, const Pressure& p) {
  const double diff = pressure(p, link.queue) - pressure(p, link.downstream_queue);
  return (diff + wstar_value) * link.service_rate;
}

double link_gain_util(const LinkState& link, double wstar_value, const GainParams& params) {
  if (link.downstream_total >= link.downstream_capacity) return params.beta;
  if (link.queue == 0) return params.alpha;
  return link_gain_modified(link, wstar_value, params.pressure);
}

void all_link_gains_util(const IntersectionObservation& obs, double wstar_value,
                         const GainParams& params, std::vector<double>& gains) {
  gains.resize(obs.links.size());
  for (std::size_t i = 0; i < gains.size(); ++i) {
    gains[i] = link_gain_util(obs.links[i], wstar_value, params);
  }
}

double phase_gain(std::span<const int> phase_links, std::span<const double> link_gains) {
  double total = 0.0;
  for (int idx : phase_links) {
    total += link_gains[static_cast<std::size_t>(idx)];
  }
  return total;
}

double phase_gain_max(std::span<const int> phase_links, std::span<const double> link_gains) {
  double best = -std::numeric_limits<double>::infinity();
  for (int idx : phase_links) {
    best = std::max(best, link_gains[static_cast<std::size_t>(idx)]);
  }
  return best;
}

int phase_argmax_link(std::span<const int> phase_links, std::span<const double> link_gains) {
  int best_index = -1;
  double best = -std::numeric_limits<double>::infinity();
  for (int idx : phase_links) {
    const double g = link_gains[static_cast<std::size_t>(idx)];
    if (g > best) {
      best = g;
      best_index = idx;
    }
  }
  return best_index;
}

}  // namespace abp::core
