// One persistent observation per junction, shared by both simulators.
//
// A control step asks every junction's controller for a decision, so the
// observation layer runs once per junction per mini-slot. Most of a
// LinkState never changes during a run: the capacities W_i, W_{i'} and the
// service rate mu are finalized-time network facts (observations report the
// design capacity even during an incident). The table writes those once, at
// construction, and keeps one flat 32-bit (link, from_road, to_road) row per
// movement so a control step can rewrite the four dynamic fields — queue,
// upstream_total, downstream_queue, downstream_total — from the backend's
// dense per-road and per-link arrays without touching net::Road or net::Link.
//
// Rows and observation links are both in each junction's canonical link
// order (net::Intersection::links, which IntersectionPlan shares), and
// refresh() visits them in that order, so a backend that draws sensor noise
// while filling keeps its historical junction-then-link draw sequence.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/observation.hpp"
#include "src/net/network.hpp"

namespace abp::core {

class ObservationTable {
 public:
  // Network indices of one movement, index-aligned with the junction's
  // observation links.
  struct Row {
    std::uint32_t link;
    std::uint32_t from_road;
    std::uint32_t to_road;
  };

  // `network` must be finalized; the table keeps no reference to it.
  explicit ObservationTable(const net::Network& network);

  // Stamps junction `node`'s observation with `time` and calls
  // fill(row, state) for each of its movements in link order; `fill` writes
  // the dynamic fields of `state`. Returns the refreshed observation, valid
  // until the next refresh of the same junction.
  template <typename Fill>
  const IntersectionObservation& refresh(std::size_t node, double time, Fill&& fill) {
    IntersectionObservation& obs = observations_[node];
    obs.time = time;
    const Row* row = rows_.data() + row_offsets_[node];
    for (LinkState& state : obs.links) fill(*row++, state);
    return obs;
  }

  // The junction's most recent observation (static fields only before its
  // first refresh).
  [[nodiscard]] const IntersectionObservation& observation(std::size_t node) const {
    return observations_[node];
  }

 private:
  std::vector<Row> rows_;
  // Junction n's rows start at rows_[row_offsets_[n]].
  std::vector<std::uint32_t> row_offsets_;
  std::vector<IntersectionObservation> observations_;
};

}  // namespace abp::core
