#include "src/queuesim/queue_sim.hpp"

#include <algorithm>
#include <stdexcept>

namespace abp::queuesim {

QueueSim::QueueSim(const net::Network& network, QueueSimConfig config,
                   std::vector<core::ControllerPtr> controllers,
                   traffic::DemandGenerator& demand)
    : net_(network),
      config_(config),
      controllers_(std::move(controllers)),
      demand_(demand),
      obs_table_(network) {
  if (!net_.finalized()) throw std::invalid_argument("network must be finalized");
  if (config_.step_s <= 0.0) throw std::invalid_argument("step must be positive");
  if (config_.control_interval_s < config_.step_s) {
    throw std::invalid_argument("control interval must be >= step");
  }
  if (controllers_.size() != net_.intersections().size()) {
    throw std::invalid_argument("need exactly one controller per intersection");
  }
  roads_.resize(net_.roads().size());
  links_.resize(net_.links().size());
  displayed_.assign(net_.intersections().size(), net::kTransitionPhase);
  entry_buffer_.resize(net_.roads().size());
  road_queued_.assign(net_.roads().size(), 0);
  road_capacity_.reserve(net_.roads().size());
  for (const net::Road& road : net_.roads()) road_capacity_.push_back(road.capacity);
  result_.phase_traces.resize(net_.intersections().size());
}

void QueueSim::watch_road(RoadId road, std::string series_name) {
  watches_.push_back({road, result_.road_series.size()});
  result_.road_series.emplace_back(std::move(series_name));
}

int QueueSim::link_queue(LinkId link) const {
  return static_cast<int>(links_[link.index()].queue.size());
}

int QueueSim::road_occupancy(RoadId road) const { return roads_[road.index()].occupancy; }

net::PhaseIndex QueueSim::displayed_phase(IntersectionId node) const {
  return displayed_[node.index()];
}

int QueueSim::vehicles_in_network() const { return in_network_count_; }

int QueueSim::queued_on_road(RoadId road) const { return road_queued_[road.index()]; }

void QueueSim::set_road_capacity(RoadId road, int capacity) {
  road_capacity_[road.index()] = std::max(0, capacity);
}

double QueueSim::link_credit(LinkId link) const { return links_[link.index()].credit; }

const core::IntersectionObservation& QueueSim::observe(std::size_t node) {
  // Exit roads never hold queued vehicles (arrivals complete on the spot),
  // so their road_queued_ row reads 0 as a downstream queue.
  return obs_table_.refresh(node, now_, [this](const core::ObservationTable::Row& row,
                                               core::LinkState& state) {
    state.queue = static_cast<int>(links_[row.link].queue.size());
    state.upstream_total = road_queued_[row.from_road];
    state.downstream_queue = road_queued_[row.to_road];
    state.downstream_total = roads_[row.to_road].occupancy;
  });
}

void QueueSim::control_step() {
  const std::vector<net::Intersection>& nodes = net_.intersections();
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    const net::Intersection& node = nodes[n];
    const net::PhaseIndex phase = controllers_[n]->decide(observe(n));
    if (phase < 0 || phase >= static_cast<int>(node.phases.size())) {
      throw std::logic_error("controller returned an out-of-range phase");
    }
    if (phase != displayed_[n]) {
      // A phase change cuts service credit of links that lost green.
      for (LinkId lid : node.links) links_[lid.index()].credit = 0.0;
    }
    displayed_[n] = phase;
    result_.phase_traces[n].record(now_, phase);
  }
}

void QueueSim::route_vehicle_into_queue(VehicleId vid, RoadId road) {
  VehicleRecord& v = vehicles_[vid.index()];
  if (v.next_turn >= v.route.turns.size()) {
    throw std::logic_error("vehicle ran out of route turns on a non-exit road");
  }
  const net::Turn turn = v.route.turns[v.next_turn];
  const std::optional<LinkId> link = net_.find_link(road, turn);
  if (!link) throw std::logic_error("route commands a missing movement");
  links_[link->index()].queue.push_back(vid);
  road_queued_[road.index()] += 1;
}

void QueueSim::complete_vehicle(VehicleId vid) {
  VehicleRecord& v = vehicles_[vid.index()];
  v.in_network = false;
  in_network_count_ -= 1;
  result_.metrics.completed += 1;
  result_.metrics.queuing_time_s.add(v.queue_time);
  result_.metrics.travel_time_s.add(now_ - v.entry_time);
  free_slots_.push_back(vid.value());
}

VehicleId QueueSim::alloc_vehicle() {
  if (!free_slots_.empty()) {
    const VehicleId vid(free_slots_.back());
    free_slots_.pop_back();
    vehicles_[vid.index()] = VehicleRecord{};
    return vid;
  }
  vehicles_.emplace_back();
  return VehicleId(static_cast<VehicleId::value_type>(vehicles_.size() - 1));
}

void QueueSim::admit_spawns(double from, double to) {
  demand_.poll_into(from, to, spawn_buffer_);
  for (const traffic::SpawnRequest& req : spawn_buffer_) {
    const VehicleId vid = alloc_vehicle();
    VehicleRecord& rec = vehicles_[vid.index()];
    rec.route = req.route;
    rec.spawn_seq = result_.metrics.generated;
    rec.entry_time = req.time;
    result_.metrics.generated += 1;
    entry_buffer_[req.entry.index()].push_back(vid);
  }
  // Admit buffered vehicles while their entry road has space.
  for (RoadId entry : net_.entry_roads()) {
    auto& buffer = entry_buffer_[entry.index()];
    RoadState& road = roads_[entry.index()];
    const int capacity = road_capacity_[entry.index()];
    while (!buffer.empty() && road.occupancy < capacity) {
      const VehicleId vid = buffer.front();
      buffer.pop_front();
      VehicleRecord& v = vehicles_[vid.index()];
      v.in_network = true;
      in_network_count_ += 1;
      v.entry_time = now_;  // waiting outside the network is not queuing time
      road.occupancy += 1;
      road.transit.push_back({now_ + net_.road(entry).free_flow_time_s(), vid});
      result_.metrics.entered += 1;
    }
    if (!buffer.empty()) {
      result_.metrics.entry_blocked_time_s +=
          static_cast<double>(buffer.size()) * config_.step_s;
    }
  }
}

void QueueSim::serve_green_links() {
  for (const net::Intersection& node : net_.intersections()) {
    const net::PhaseIndex phase = displayed_[node.id.index()];
    if (phase == net::kTransitionPhase) continue;
    for (LinkId lid : node.phases[static_cast<std::size_t>(phase)].links) {
      const net::Link& link = net_.link(lid);
      LinkQueueState& lq = links_[lid.index()];
      RoadState& upstream = roads_[link.from_road.index()];
      RoadState& downstream = roads_[link.to_road.index()];
      const int downstream_cap = road_capacity_[link.to_road.index()];
      // Service credit replenishes at mu while green; the cap prevents
      // banking service across steps in which the queue was empty.
      const double rate_dt = link.service_rate * config_.step_s;
      lq.credit = std::min(lq.credit + rate_dt, std::max(1.0, rate_dt));
      // Nothing to serve: skip the free-flow division below.
      if (lq.credit < 1.0 || lq.queue.empty() || downstream.occupancy >= downstream_cap) {
        continue;
      }
      // Runs before now_ advances, so arrivals are stamped from the tick start.
      const double arrive = now_ + net_.road(link.to_road).free_flow_time_s();
      while (lq.credit >= 1.0 && !lq.queue.empty() && downstream.occupancy < downstream_cap) {
        lq.credit -= 1.0;
        road_queued_[link.from_road.index()] -= 1;
        upstream.occupancy -= 1;
        downstream.occupancy += 1;
        const VehicleId vid = lq.queue.front();
        lq.queue.pop_front();
        vehicles_[vid.index()].next_turn += 1;
        downstream.transit.push_back({arrive, vid});
      }
    }
  }
}

void QueueSim::drain_due_transits(const net::Road& road) {
  RoadState& state = roads_[road.id.index()];
  while (!state.transit.empty() && state.transit.front().arrive_time <= now_) {
    const VehicleId vid = state.transit.front().vehicle;
    state.transit.pop_front();
    if (road.is_exit()) {
      state.occupancy -= 1;
      complete_vehicle(vid);
    } else {
      route_vehicle_into_queue(vid, road.id);
    }
  }
}

void QueueSim::sample_watches() {
  for (const Watch& w : watches_) {
    result_.road_series[w.series_index].push(now_,
                                             static_cast<double>(queued_on_road(w.road)));
  }
  result_.in_network_series.push(now_, static_cast<double>(vehicles_in_network()));
}

void QueueSim::step() {
  if (now_ >= next_control_) {
    control_step();
    next_control_ += config_.control_interval_s;
  }
  if (now_ >= next_sample_) {
    sample_watches();
    next_sample_ += config_.sample_interval_s;
  }
  admit_spawns(now_, now_ + config_.step_s);
  serve_green_links();
  now_ += config_.step_s;
  // Road order visits the exit roads in exit_roads() order, which fixes the
  // floating-point metric accumulation order of the completions.
  for (const net::Road& road : net_.roads()) drain_due_transits(road);
  // Every queued vehicle's accumulator is touched exactly once per tick, so
  // one flat pass over the movement queues suffices; vehicles routed into a
  // queue above already count.
  for (const LinkQueueState& lq : links_) {
    for (VehicleId vid : lq.queue) {
      vehicles_[vid.index()].queue_time += config_.step_s;
    }
  }
}

stats::RunResult& QueueSim::run_until(double until_s) {
  if (finished_) throw std::logic_error("QueueSim::run_until after finish");
  while (now_ < until_s) step();
  return result_;
}

stats::RunResult QueueSim::finish(double duration_s) {
  run_until(duration_s);
  finished_ = true;
  // Close open records so heavy congestion is visible in the metric rather
  // than silently dropped. Closing happens in spawn order: slot recycling
  // permutes vehicle indices, and the metric SampleSets are floating-point
  // order-sensitive.
  std::vector<std::pair<std::uint64_t, VehicleId>> open;
  for (std::size_t i = 0; i < vehicles_.size(); ++i) {
    if (!vehicles_[i].in_network) continue;
    open.emplace_back(vehicles_[i].spawn_seq,
                      VehicleId(static_cast<VehicleId::value_type>(i)));
  }
  std::sort(open.begin(), open.end());
  for (const auto& [seq, vid] : open) {
    VehicleRecord& v = vehicles_[vid.index()];
    result_.metrics.in_network_at_end += 1;
    result_.metrics.queuing_time_s.add(v.queue_time);
    result_.metrics.travel_time_s.add(now_ - v.entry_time);
    v.in_network = false;
  }
  for (stats::PhaseTrace& trace : result_.phase_traces) trace.finish(now_);
  result_.duration_s = now_;
  return std::move(result_);
}

}  // namespace abp::queuesim
