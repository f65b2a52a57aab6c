#include "src/core/observation_table.hpp"

#include <stdexcept>

namespace abp::core {

ObservationTable::ObservationTable(const net::Network& network) {
  if (!network.finalized()) throw std::invalid_argument("network must be finalized");
  const std::vector<net::Intersection>& nodes = network.intersections();
  row_offsets_.reserve(nodes.size());
  observations_.resize(nodes.size());
  std::size_t total = 0;
  for (const net::Intersection& node : nodes) total += node.links.size();
  rows_.reserve(total);
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    row_offsets_.push_back(static_cast<std::uint32_t>(rows_.size()));
    std::vector<LinkState>& links = observations_[n].links;
    links.reserve(nodes[n].links.size());
    for (LinkId lid : nodes[n].links) {
      const net::Link& link = network.link(lid);
      rows_.push_back({static_cast<std::uint32_t>(lid.index()),
                       static_cast<std::uint32_t>(link.from_road.index()),
                       static_cast<std::uint32_t>(link.to_road.index())});
      LinkState state;
      state.upstream_capacity = network.road(link.from_road).capacity;
      state.downstream_capacity = network.road(link.to_road).capacity;
      state.service_rate = link.service_rate;
      links.push_back(state);
    }
  }
}

}  // namespace abp::core
