#include "src/microsim/micro_sim.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

#include "src/microsim/krauss.hpp"
#include "src/microsim/lane_kernel.hpp"

namespace abp::microsim {

MicroSim::MicroSim(const net::Network& network, MicroSimConfig config,
                   std::vector<core::ControllerPtr> controllers,
                   traffic::DemandGenerator& demand, std::uint64_t seed)
    : net_(network),
      config_(config),
      controllers_(std::move(controllers)),
      demand_(demand),
      rng_(seed),
      seed_(seed),
      obs_table_(network) {
  if (!net_.finalized()) throw std::invalid_argument("network must be finalized");
  if (config_.dt_s <= 0.0) throw std::invalid_argument("dt must be positive");
  if (config_.control_interval_s < config_.dt_s) {
    throw std::invalid_argument("control interval must be >= dt");
  }
  if (config_.threads < 1) throw std::invalid_argument("threads must be >= 1");
  if (controllers_.size() != net_.intersections().size()) {
    throw std::invalid_argument("need exactly one controller per intersection");
  }
  pool_ = std::make_unique<ThreadPool>(config_.threads);
  build_runtime();
}

void MicroSim::build_runtime() {
  roads_.resize(net_.roads().size());
  links_.resize(net_.links().size());
  displayed_.assign(net_.intersections().size(), net::kTransitionPhase);
  result_.phase_traces.resize(net_.intersections().size());
  road_streams_.reserve(net_.roads().size());
  for (std::size_t r = 0; r < net_.roads().size(); ++r) {
    road_streams_.emplace_back(seed_, static_cast<std::uint64_t>(r));
  }
  road_capacity_.reserve(net_.roads().size());
  for (const net::Road& road : net_.roads()) road_capacity_.push_back(road.capacity);
  occupancy_.assign(net_.roads().size(), 0);
  const std::size_t road_words = (net_.roads().size() + 63) / 64;
  occupied_.assign(road_words, 0);
  memo_dirty_.assign(road_words, 0);

  for (const net::Road& road : net_.roads()) {
    RoadRt& rt = roads_[road.id.index()];
    if (road.is_exit()) {
      rt.lanes.push_back(Lane{});  // single unsignalled lane
      continue;
    }
    // The topology index guarantees turn order (Left, Straight, Right) —
    // exactly the dedicated-lane layout the paper assumes.
    const std::span<const LinkId> movements = net_.links_from(road.id);
    if (config_.dedicated_turn_lanes) {
      // One dedicated lane per feasible movement, ordered Left/Straight/Right.
      for (LinkId lid : movements) {
        LinkRt& lrt = links_[lid.index()];
        lrt.from_road = road.id;
        lrt.lane_index = static_cast<int>(rt.lanes.size());
        Lane lane;
        lane.link = lid;
        rt.lanes.push_back(std::move(lane));
      }
    } else {
      // One mixed lane shared by all movements: a vehicle's own route turn
      // selects its movement at the stop line (head-of-line blocking).
      rt.lanes.push_back(Lane{});
      for (LinkId lid : movements) {
        LinkRt& lrt = links_[lid.index()];
        lrt.from_road = road.id;
        lrt.lane_index = 0;
      }
    }
  }

  // Per-(intersection, phase) green-link index, CSR over one flat array:
  // phase_links_[phase_link_offsets_[slot] .. phase_link_offsets_[slot + 1])
  // with slot = phase_slot_base_[node] + displayed phase. Built once here —
  // phase composition is finalized-time topology — so the junction phase
  // reads the displayed phase's movements directly instead of a green set
  // rebuilt every control step. Order inside a slot is the phase's own link
  // order, so iterating nodes in index order reproduces the historical
  // (intersection, phase-link) grant order exactly.
  phase_slot_base_.clear();
  phase_slot_base_.reserve(net_.intersections().size());
  phase_link_offsets_.assign(1, 0);
  phase_links_.clear();
  for (const net::Intersection& node : net_.intersections()) {
    phase_slot_base_.push_back(static_cast<std::uint32_t>(phase_link_offsets_.size() - 1));
    for (const net::Phase& phase : node.phases) {
      for (LinkId lid : phase.links) phase_links_.push_back(lid);
      phase_link_offsets_.push_back(static_cast<std::uint32_t>(phase_links_.size()));
    }
  }

  road_queued_approach_.assign(net_.roads().size(), 0);
  road_queued_congestion_.assign(net_.roads().size(), 0);
  link_queued_approach_.assign(net_.links().size(), 0);
  sweep_scratch_.resize(static_cast<std::size_t>(config_.threads));
  std::size_t max_lanes = 1;
  for (const RoadRt& rt : roads_) max_lanes = std::max(max_lanes, rt.lanes.size());
  lane_blocked_.assign(max_lanes, 0);
}

void MicroSim::watch_road(RoadId road, std::string series_name) {
  watches_.push_back({road, result_.road_series.size()});
  result_.road_series.emplace_back(std::move(series_name));
}

int MicroSim::lane_count(LinkId link) const {
  const LinkRt& lrt = links_[link.index()];
  const Lane& lane =
      roads_[lrt.from_road.index()].lanes[static_cast<std::size_t>(lrt.lane_index)];
  if (lane.link) return static_cast<int>(lane.vehicles.size());
  // Mixed lane: count the vehicles whose route takes this movement.
  int count = 0;
  for (VehicleId vid : lane.vehicles) {
    if (veh_next_link_[vid.index()] == link) ++count;
  }
  return count;
}

int MicroSim::road_occupancy(RoadId road) const { return occupancy_[road.index()]; }

bool MicroSim::road_occupied(RoadId road) const { return bit_set(occupied_, road.index()); }

core::LinkState MicroSim::recount_link_state(LinkId link) const {
  const net::Link& l = net_.link(link);
  core::LinkState state;
  state.queue = link_queued_count(link, config_.approach_queue_threshold_mps);
  state.upstream_total = road_queued_count(l.from_road, config_.approach_queue_threshold_mps);
  state.upstream_capacity = net_.road(l.from_road).capacity;
  state.downstream_queue =
      road_queued_count(l.to_road, config_.congestion_queue_threshold_mps);
  // Occupancy: vehicles on the road's lanes plus boxed vehicles bound for it.
  state.downstream_total = road_vehicle_count(l.to_road);
  for (VehicleId vid : in_junction_) {
    if (veh_meta_[vid.index()].road == l.to_road) ++state.downstream_total;
  }
  state.downstream_capacity = net_.road(l.to_road).capacity;
  state.service_rate = l.service_rate;
  return state;
}

const core::IntersectionObservation& MicroSim::observation(IntersectionId node) const {
  return obs_table_.observation(node.index());
}

void MicroSim::add_occupant(std::size_t road) {
  if (occupancy_[road]++ == 0) occupied_[road / 64] |= bit_of(road);
}

void MicroSim::remove_occupant(std::size_t road) {
  if (--occupancy_[road] == 0) occupied_[road / 64] &= ~bit_of(road);
}

void MicroSim::set_road_capacity(RoadId road, int capacity) {
  road_capacity_[road.index()] = std::max(0, capacity);
}

int MicroSim::queued_on_road(RoadId road) const {
  int total = 0;
  for (LinkId link : net_.links_from(road)) total += lane_count(link);
  return total;
}

net::PhaseIndex MicroSim::displayed_phase(IntersectionId node) const {
  return displayed_[node.index()];
}

int MicroSim::vehicles_in_network() const { return in_network_count_; }

std::vector<double> MicroSim::lane_positions(LinkId link) const {
  const LinkRt& lrt = links_[link.index()];
  const Lane& lane =
      roads_[lrt.from_road.index()].lanes[static_cast<std::size_t>(lrt.lane_index)];
  std::vector<double> positions;
  positions.reserve(lane.pos.size());
  for (std::size_t i = 0; i < lane.pos.size(); ++i) positions.push_back(lane.pos[i]);
  return positions;
}

bool MicroSim::no_overlaps() const {
  for (const RoadRt& rt : roads_) {
    for (const Lane& lane : rt.lanes) {
      for (std::size_t i = 0; i + 1 < lane.pos.size(); ++i) {
        if (lane.pos[i + 1] > lane.pos[i] - config_.vehicle.length_m + 1e-6) return false;
      }
    }
  }
  return true;
}

int MicroSim::lane_index_for_turn(RoadId road, net::Turn turn) const {
  const RoadRt& rt = roads_[road.index()];
  if (!config_.dedicated_turn_lanes) return 0;  // single mixed lane
  for (std::size_t i = 0; i < rt.lanes.size(); ++i) {
    if (rt.lanes[i].link && net_.link(*rt.lanes[i].link).turn == turn) {
      return static_cast<int>(i);
    }
  }
  throw std::logic_error("no lane for requested turn on road " + net_.road(road).name);
}

std::optional<LinkId> MicroSim::movement_of(const VehMeta& m, RoadId road) const {
  if (m.next_turn >= m.route.turns.size()) return std::nullopt;
  return net_.find_link(road, m.route.turns[m.next_turn]);
}

int MicroSim::road_vehicle_count(RoadId road) const {
  int count = 0;
  for (const Lane& lane : roads_[road.index()].lanes) {
    count += static_cast<int>(lane.vehicles.size());
  }
  return count;
}

int MicroSim::lane_queued_count(const Lane& lane, double threshold_mps) const {
  int count = 0;
  for (std::size_t i = 0; i < lane.speed.size(); ++i) {
    if (lane.speed[i] < threshold_mps) ++count;
  }
  return count;
}

int MicroSim::link_queued_count(LinkId link, double threshold_mps) const {
  const LinkRt& lrt = links_[link.index()];
  const Lane& lane =
      roads_[lrt.from_road.index()].lanes[static_cast<std::size_t>(lrt.lane_index)];
  if (lane.link) return lane_queued_count(lane, threshold_mps);
  // Mixed lane: the movement's queue is the slow vehicles headed through it.
  int count = 0;
  for (std::size_t i = 0; i < lane.speed.size(); ++i) {
    if (lane.speed[i] < threshold_mps && veh_next_link_[lane.vehicles[i].index()] == link) {
      ++count;
    }
  }
  return count;
}

int MicroSim::road_queued_count(RoadId road, double threshold_mps) const {
  int count = 0;
  for (const Lane& lane : roads_[road.index()].lanes) {
    count += lane_queued_count(lane, threshold_mps);
  }
  return count;
}

bool MicroSim::entry_clear(const RoadRt& rt, int lane_index) const {
  const Lane& lane = rt.lanes[static_cast<std::size_t>(lane_index)];
  if (lane.vehicles.empty()) return true;
  const double rear_pos = lane.pos.back();
  // The new vehicle's front bumper enters at pos 0; the rear vehicle's back
  // bumper must leave room for it plus the standstill gap.
  return rear_pos - config_.vehicle.length_m >= config_.vehicle.min_gap_m + 0.5;
}

const core::IntersectionObservation& MicroSim::observe(std::size_t node) {
  // Queue readings pass through the detector model, in link order and
  // queue / upstream / downstream order within a link (the rng_ sequence);
  // occupancy is physical state, never perturbed. True counts come from the
  // control-step memo tables, not per-link scans.
  return obs_table_.refresh(node, now_, [this](const core::ObservationTable::Row& row,
                                               core::LinkState& state) {
    state.queue = core::measure_queue(link_queued_approach_[row.link], config_.sensor, rng_);
    state.upstream_total =
        core::measure_queue(road_queued_approach_[row.from_road], config_.sensor, rng_);
    state.downstream_queue =
        core::measure_queue(road_queued_congestion_[row.to_road], config_.sensor, rng_);
    state.downstream_total = occupancy_[row.to_road];
  });
}

void MicroSim::control_step() {
  const std::vector<net::Intersection>& nodes = net_.intersections();
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    const net::PhaseIndex phase = controllers_[n]->decide(observe(n));
    if (phase < 0 || phase >= static_cast<int>(nodes[n].phases.size())) {
      throw std::logic_error("controller returned an out-of-range phase");
    }
    displayed_[n] = phase;
    result_.phase_traces[n].record(now_, phase);
  }
}

VehicleId MicroSim::alloc_vehicle() {
  if (!free_slots_.empty()) {
    const VehicleId vid(free_slots_.back());
    free_slots_.pop_back();
    const std::size_t idx = vid.index();
    veh_meta_[idx] = VehMeta{};
    veh_waiting_[idx] = 0.0;
    veh_next_link_[idx] = LinkId{};
    return vid;
  }
  veh_meta_.emplace_back();
  veh_waiting_.push_back(0.0);
  veh_next_link_.emplace_back();
  return VehicleId(static_cast<VehicleId::value_type>(veh_meta_.size() - 1));
}

void MicroSim::admit_spawns() {
  demand_.poll_into(now_, now_ + config_.dt_s, spawn_buffer_);
  for (const traffic::SpawnRequest& req : spawn_buffer_) {
    const VehicleId vid = alloc_vehicle();
    VehMeta& m = veh_meta_[vid.index()];
    m.route = req.route;
    m.spawn_seq = result_.metrics.generated;
    m.loc = Loc::Outside;
    m.road = req.entry;
    result_.metrics.generated += 1;
    roads_[req.entry.index()].buffer.push_back(vid);
  }
  for (RoadId entry : net_.entry_roads()) {
    RoadRt& rt = roads_[entry.index()];
    const int capacity = road_capacity_[entry.index()];
    // Per-lane FIFO admission: dedicated turning lanes run the full road
    // length, so a vehicle waiting for a full lane does not physically block
    // vehicles headed for the other lanes. Order is preserved within each
    // lane; a lane that rejects its first candidate admits nobody this step.
    // The scratch is sized to the widest road of the network (build_runtime),
    // never to a fixed lane count.
    std::fill(lane_blocked_.begin(), lane_blocked_.begin() + rt.lanes.size(), 0);
    int& occupancy = occupancy_[entry.index()];
    for (auto it = rt.buffer.begin(); it != rt.buffer.end() && occupancy < capacity;) {
      const VehicleId vid = *it;
      VehMeta& m = veh_meta_[vid.index()];
      const int lane = lane_index_for_turn(entry, m.route.turns.front());
      if (lane_blocked_[static_cast<std::size_t>(lane)] || !entry_clear(rt, lane)) {
        lane_blocked_[static_cast<std::size_t>(lane)] = 1;
        ++it;
        continue;
      }
      it = rt.buffer.erase(it);
      add_occupant(entry.index());
      m.loc = Loc::Lane;
      m.lane = lane;
      m.entry_time = now_;
      if (const std::optional<LinkId> movement = movement_of(m, entry)) {
        veh_next_link_[vid.index()] = *movement;
      }
      in_network_count_ += 1;
      rt.lanes[static_cast<std::size_t>(lane)].push_vehicle(
          vid, 0.0, std::min(config_.insertion_speed_mps, net_.road(entry).speed_limit_mps),
          veh_waiting_[vid.index()]);
      result_.metrics.entered += 1;
      // The lane just received a vehicle at its entry point; nobody else fits
      // behind it this step.
      lane_blocked_[static_cast<std::size_t>(lane)] = 1;
    }
    result_.metrics.entry_blocked_time_s +=
        static_cast<double>(rt.buffer.size()) * config_.dt_s;
  }
}

void MicroSim::release_junction_vehicles() {
  // Order-preserving compaction: vehicles are released in box-entry (FIFO)
  // order, so when two boxed vehicles contend for the same target lane's
  // insertion gap, the earlier grant wins. The order is a pure function of
  // the grant sequence — reproducible per junction, independent of how
  // vehicles were removed in earlier ticks.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < in_junction_.size(); ++i) {
    const VehicleId vid = in_junction_[i];
    VehMeta& m = veh_meta_[vid.index()];
    RoadRt& target = roads_[m.road.index()];
    if (m.junction_exit <= now_ && entry_clear(target, m.lane)) {
      m.loc = Loc::Lane;
      target.lanes[static_cast<std::size_t>(m.lane)].push_vehicle(
          vid, 0.0, std::min(config_.insertion_speed_mps, net_.road(m.road).speed_limit_mps),
          veh_waiting_[vid.index()]);
    } else {
      in_junction_[kept++] = vid;
    }
  }
  in_junction_.resize(kept);
}

bool MicroSim::try_grant(VehicleId vid, LinkId link) {
  // Only ever called for links of the currently displayed phase (the green
  // set by construction), so no green check is needed — just the headway.
  LinkRt& lrt = links_[link.index()];
  if (now_ < lrt.next_grant) return false;
  VehMeta& m = veh_meta_[vid.index()];
  const net::Link& l = net_.link(link);
  const RoadId to_road = l.to_road;
  if (occupancy_[to_road.index()] >= road_capacity_[to_road.index()]) return false;
  const RoadRt& target = roads_[to_road.index()];

  int target_lane = 0;
  const std::size_t next = m.next_turn + 1;
  if (!net_.road(to_road).is_exit()) {
    if (next >= m.route.turns.size()) {
      throw std::logic_error("route exhausted before reaching an exit road");
    }
    target_lane = lane_index_for_turn(to_road, m.route.turns[next]);
  }
  if (!entry_clear(target, target_lane)) return false;

  // Grant: reserve downstream space, consume the service-rate headway, and
  // stage the vehicle's post-crossing location.
  const double physical_rate = config_.saturation_flow_vps > 0.0
                                   ? std::min(l.service_rate, config_.saturation_flow_vps)
                                   : l.service_rate;
  lrt.next_grant = now_ + 1.0 / physical_rate;
  add_occupant(to_road.index());
  m.road = to_road;
  m.lane = target_lane;
  m.next_turn = next;
  veh_next_link_[vid.index()] = LinkId{};
  if (!net_.road(to_road).is_exit()) {
    if (const std::optional<LinkId> movement = movement_of(m, to_road)) {
      veh_next_link_[vid.index()] = *movement;
    }
  }
  return true;
}

void MicroSim::service_junctions() {
  // A green movement serves the head vehicle at most once per 1/mu seconds,
  // provided it has reached the service zone at the stop line. Service moves
  // the vehicle into the junction box immediately; everything behind it keeps
  // following normally in the sweep. Only the currently green links are
  // visited — each node's displayed phase selects its slot of the precomputed
  // green-link index, so red movements are never scanned and control steps no
  // longer rebuild any green set. On a mixed lane the head vehicle's own route
  // decides the movement
  // — the grant happens on the link matching the head's resolved next_link,
  // and if that movement is red the whole lane waits behind it (head-of-line
  // blocking). Grants read and write state of the *downstream* road
  // (occupancy reservation, insertion-gap check), which another road's work
  // unit owns — that cross-road coupling is exactly why this phase runs
  // sequentially, before the parallel sweep.
  for (const net::Intersection& node : net_.intersections()) {
    const std::size_t ni = node.id.index();
    const std::uint32_t slot =
        phase_slot_base_[ni] + static_cast<std::uint32_t>(displayed_[ni]);
    const std::uint32_t slot_end = phase_link_offsets_[slot + 1];
    for (std::uint32_t k = phase_link_offsets_[slot]; k < slot_end; ++k) {
      const LinkId lid = phase_links_[k];
      const LinkRt& lrt = links_[lid.index()];
      // An empty road has an empty stop line: skip it before touching it.
      if (!bit_set(occupied_, lrt.from_road.index()) || now_ < lrt.next_grant) continue;
      RoadRt& rt = roads_[lrt.from_road.index()];
      Lane& lane = rt.lanes[static_cast<std::size_t>(lrt.lane_index)];
      if (lane.vehicles.empty()) continue;
      const VehicleId vid = lane.vehicles.front();
      // Mixed lane: this link only serves the head if it is the head's own
      // movement (dedicated lanes satisfy this by construction), and the stop
      // line serves at most one vehicle per tick even when several green links
      // share the lane.
      if (!lane.link &&
          (veh_next_link_[vid.index()] != lid || lane.serviced_at == now_)) {
        continue;
      }
      const net::Road& road = net_.road(lrt.from_road);
      if (lane.pos.front() < road.length_m - config_.service_zone_m) continue;
      if (!try_grant(vid, lid)) continue;
      lane.serviced_at = now_;
      veh_waiting_[vid.index()] = lane.waiting.front();
      VehMeta& m = veh_meta_[vid.index()];
      m.junction_exit = now_ + config_.junction_crossing_s;
      remove_occupant(lrt.from_road.index());
      lane.pop_head();
      m.loc = Loc::Junction;
      in_junction_.push_back(vid);
    }
  }
}

void MicroSim::sweep_lane(const net::Road& road, RoadRt& rt, Lane& lane, StreamRng& rng,
                          LaneKernelScratch& scratch) {
  const std::size_t n = lane.vehicles.size();
  if (n == 0) return;

  // Hot path. All state touched here is owned by this road's work unit: the
  // lane order, the lane-local kinematic arrays, the road's memo-table rows,
  // and the road's own dawdle stream — nothing shared, so the sweep
  // parallelizes without locks and the draw sequence is independent of the
  // thread schedule.
  const double dt = config_.dt_s;
  // Local copy of the car-following parameters: every store into the lane's
  // double arrays could alias a double field reached through a reference
  // (same TBAA class), which would force the compiler to reload them each
  // iteration; locals provably cannot alias and stay in registers.
  const VehicleParams vp = config_.vehicle;
  const double road_length = road.length_m;
  const bool is_exit = road.is_exit();
  double* pos = &lane.pos[0];
  double* speed = &lane.speed[0];

  // Kinematics: the vectorized kernel passes of lane_kernel.hpp — bulk
  // dawdle fill (one counter-stream batch, identical stream accounting to n
  // scalar draws), gap stencil, branchless synchronous-Krauss speed pass,
  // fused integrate + stop-line clamp, and the rare sequential overlap
  // fallback. Used at every occupancy: the branchless form also beats the
  // scalar loop on short lanes in the real sweep, where varied lane states
  // defeat the branch predictor (see lane_kernel.hpp on why the microbench
  // suggests otherwise). Bit-identical to the scalar reference by
  // construction (element-wise FP in array order is the same arithmetic in
  // the same order); tests/microsim_krauss_test.cpp pins it lane-for-lane.
  lane_update_vectorized(pos, speed, n, road.speed_limit_mps, road_length, is_exit, vp,
                         dt, vp.sigma > 0.0 ? &rng : nullptr, scratch);

  // Accounting tail — completion staging, waiting time, queued-count memos —
  // on the final speeds/positions. The integer memo counts commute, so
  // splitting them out of the kinematic loop cannot change them; waiting-time
  // accumulation stays element-wise (+= dt or += 0.0, and a waiting total is
  // never -0.0, so the no-op add is the bitwise identity).
  std::size_t begin = 0;
  if (is_exit && pos[0] >= road_length) {
    // Stage the completion: metric accumulation is floating-point
    // order-sensitive and mutates shared counters, so it runs sequentially
    // in apply_completions(), in exit-road order. Write the lane-carried
    // waiting time back now; the pop at the end of the sweep discards it.
    // A completed vehicle is gone by decision time and must not count in
    // the waiting/memo passes below. At most the head can cross per tick.
    rt.completed = lane.vehicles.front();
    veh_waiting_[rt.completed.index()] = lane.waiting[0];
    begin = 1;
  }
  double* waiting = &lane.waiting[0];
  const double waiting_threshold = config_.waiting_speed_threshold_mps;
  for (std::size_t i = begin; i < n; ++i) {
    // Waiting-time accumulation, folded into the lane update so the per-tick
    // cost is O(active vehicles), never O(vehicles ever spawned), and
    // contiguous: the scattered per-vehicle row is only touched when the
    // vehicle leaves the lane.
    waiting[i] += speed[i] < waiting_threshold ? dt : 0.0;
  }
  if (memo_pending_) {
    // Queued-count memo for next step's controller decisions.
    const double approach_threshold = config_.approach_queue_threshold_mps;
    const double congestion_threshold = config_.congestion_queue_threshold_mps;
    int approach = 0;
    int congestion = 0;
    for (std::size_t i = begin; i < n; ++i) {
      approach += speed[i] < approach_threshold ? 1 : 0;
      congestion += speed[i] < congestion_threshold ? 1 : 0;
    }
    const std::size_t road_index = road.id.index();
    road_queued_approach_[road_index] += approach;
    road_queued_congestion_[road_index] += congestion;
    if (lane.link) {
      // Dedicated lane: every queued vehicle belongs to the lane's movement.
      link_queued_approach_[lane.link->index()] += approach;
    } else {
      // Mixed (or exit) lane: gather each slow vehicle's own resolved
      // movement; invalid on exit roads, where no link row exists.
      for (std::size_t i = begin; i < n; ++i) {
        if (speed[i] < approach_threshold) {
          const LinkId movement = veh_next_link_[lane.vehicles[i].index()];
          if (movement.valid()) link_queued_approach_[movement.index()] += 1;
        }
      }
    }
  }
  if (begin == 1) {
    lane.pop_head();
  }
}

void MicroSim::sweep_roads() {
  // When the next step opens with a controller decision, the queued-count
  // memo tables are rebuilt during this sweep — the vehicles are already in
  // cache here, so observe() never needs a separate scan. The predicate is
  // bit-identical to next step's control check (same addition, same compare).
  memo_pending_ = now_ + config_.dt_s >= next_control_;
  if (memo_pending_ && memo_always_rebuild_) {
    // Reference path: global zero of every memo row before the rebuild. The
    // default path below instead zeroes rows per road, lazily — a row is
    // cleared only when its road is occupied this tick (about to be
    // re-accumulated) or still dirty from an earlier rebuild. Empty roads
    // whose rows are already clean — the common case on big grids — are
    // skipped entirely (the elision). The lazy zeroing after a global fill
    // re-zeroes zeros, so both paths land on identical tables; the unit test
    // pins that bit-for-bit.
    std::fill(road_queued_approach_.begin(), road_queued_approach_.end(), 0);
    std::fill(road_queued_congestion_.begin(), road_queued_congestion_.end(), 0);
    std::fill(link_queued_approach_.begin(), link_queued_approach_.end(), 0);
  }
  const std::vector<net::Road>& roads = net_.roads();
  // Work units are words of the occupied-road bitset; a road's bits, memo
  // rows and dirty bit are touched only by the unit owning its word (a
  // link's row belongs to its from_road), so the sweep stays race-free and
  // its results cannot depend on the partition. The chunk id keys the
  // per-work-unit kernel scratch: one per participant, never shared.
  pool_->parallel_for_indexed(
      occupied_.size(), [&](std::size_t begin, std::size_t end, std::size_t chunk) {
        LaneKernelScratch& scratch = sweep_scratch_[chunk];
        for (std::size_t w = begin; w < end; ++w) {
          const std::uint64_t occupied = occupied_[w];
          // Set bits in ascending road order. A rebuild re-zeroes the rows of
          // every occupied road (about to be re-accumulated) and of every
          // road still dirty from an earlier rebuild (drained since); empty
          // and clean roads are never visited.
          std::uint64_t visit = memo_pending_ ? occupied | memo_dirty_[w] : occupied;
          while (visit != 0) {
            const int b = std::countr_zero(visit);
            visit &= visit - 1;
            const std::size_t r = w * 64 + static_cast<std::size_t>(b);
            if (memo_pending_) zero_memo_rows(r);
            if ((occupied >> b & 1U) == 0) continue;
            RoadRt& rt = roads_[r];
            StreamRng& stream = road_streams_[r];
            for (Lane& lane : rt.lanes) {
              // Empty dedicated lanes are common (traffic concentrates on a
              // few movements); skip them before paying the call.
              if (!lane.vehicles.empty()) sweep_lane(roads[r], rt, lane, stream, scratch);
            }
          }
          if (memo_pending_) memo_dirty_[w] = occupied;
        }
      });
  apply_completions();
}

void MicroSim::zero_memo_rows(std::size_t road_index) {
  road_queued_approach_[road_index] = 0;
  road_queued_congestion_[road_index] = 0;
  for (LinkId lid : net_.links_from(net_.roads()[road_index].id)) {
    link_queued_approach_[lid.index()] = 0;
  }
}

void MicroSim::apply_completions() {
  for (RoadId exit : net_.exit_roads()) {
    RoadRt& rt = roads_[exit.index()];
    if (!rt.completed.valid()) continue;
    complete_vehicle(rt.completed);
    rt.completed = VehicleId{};
  }
}

void MicroSim::complete_vehicle(VehicleId vid) {
  VehMeta& m = veh_meta_[vid.index()];
  m.loc = Loc::Done;
  remove_occupant(m.road.index());
  in_network_count_ -= 1;
  result_.metrics.completed += 1;
  result_.metrics.queuing_time_s.add(veh_waiting_[vid.index()]);
  result_.metrics.travel_time_s.add(now_ - m.entry_time);
  // The slot becomes reusable next step; the sweep popped the id from its
  // lane before any new vehicle can claim it (admission runs pre-sweep).
  free_slots_.push_back(vid.value());
}

void MicroSim::sample_watches() {
  for (const Watch& w : watches_) {
    // Fig. 5 plots queue lengths, i.e. what the approach detectors report.
    result_.road_series[w.series_index].push(
        now_, static_cast<double>(
                  road_queued_count(w.road, config_.approach_queue_threshold_mps)));
  }
  result_.in_network_series.push(now_, static_cast<double>(vehicles_in_network()));
}

void MicroSim::step_begin() {
  if (now_ >= next_control_) {
    control_step();
    next_control_ += config_.control_interval_s;
  }
  if (now_ >= next_sample_) {
    sample_watches();
    next_sample_ += config_.sample_interval_s;
  }
  admit_spawns();
  release_junction_vehicles();
}

void MicroSim::step_service() { service_junctions(); }

void MicroSim::step_finish() {
  sweep_roads();
  now_ += config_.dt_s;
}

void MicroSim::step() {
  step_begin();
  step_service();
  step_finish();
}

stats::RunResult& MicroSim::run_until(double until_s) {
  if (finished_) throw std::logic_error("MicroSim::run_until after finish");
  while (now_ < until_s) step();
  return result_;
}

stats::RunResult MicroSim::finish(double duration_s) {
  run_until(duration_s);
  finished_ = true;
  // Flush the lane-carried waiting times of vehicles still on a lane back to
  // the per-vehicle array before closing their records.
  for (RoadRt& rt : roads_) {
    for (Lane& lane : rt.lanes) {
      for (std::size_t i = 0; i < lane.vehicles.size(); ++i) {
        veh_waiting_[lane.vehicles[i].index()] = lane.waiting[i];
      }
    }
  }
  // Close open records in spawn order: slot recycling permutes vehicle
  // indices, and the metric SampleSets are floating-point order-sensitive.
  std::vector<std::pair<std::uint64_t, VehicleId>> open;
  for (std::size_t i = 0; i < veh_meta_.size(); ++i) {
    const VehMeta& m = veh_meta_[i];
    if (m.loc != Loc::Lane && m.loc != Loc::Junction) continue;
    open.emplace_back(m.spawn_seq, VehicleId(static_cast<VehicleId::value_type>(i)));
  }
  std::sort(open.begin(), open.end());
  for (const auto& [seq, vid] : open) {
    VehMeta& m = veh_meta_[vid.index()];
    result_.metrics.in_network_at_end += 1;
    result_.metrics.queuing_time_s.add(veh_waiting_[vid.index()]);
    result_.metrics.travel_time_s.add(now_ - m.entry_time);
    m.loc = Loc::Done;
  }
  for (stats::PhaseTrace& trace : result_.phase_traces) trace.finish(now_);
  result_.duration_s = now_;
  return std::move(result_);
}

}  // namespace abp::microsim
