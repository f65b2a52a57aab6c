// Microscopic traffic simulator: the repository's SUMO substitute.
//
// Space-continuous, time-discrete simulation of individual vehicles:
//   * by default every non-exit road carries one *dedicated turning lane* per
//     feasible movement at its downstream junction (the paper's lane
//     assumption, which rules out head-of-line blocking); vehicles pick their
//     lane on entry from the next turn of their route and never change lanes.
//     MicroSimConfig::dedicated_turn_lanes = false switches to a single mixed
//     lane per road, where HOL blocking becomes possible (Section IV Q4);
//   * longitudinal dynamics follow the Krauss car-following model
//     (src/microsim/krauss.hpp) against the lane leader or the stop line;
//   * a green movement serves the head vehicle inside its stop-line service
//     zone at most at the saturation rate (one grant per 1/mu seconds by
//     default); a served vehicle traverses the junction box for a fixed
//     crossing time and is released onto the matching lane of the downstream
//     road, whose capacity W it reserves at grant time so the road can never
//     exceed W;
//   * the transition (amber) phase grants nothing; vehicles already in the
//     box finish crossing — precisely the role of the paper's c0;
//   * demand arrives via traffic::DemandGenerator; vehicles whose entry road
//     is full or whose entry point is blocked wait outside the network.
//
// Controllers are invoked every control interval (the paper's mini-slot) with
// the same observation structure the queueing simulator produces. Queue
// readings come from speed-threshold detectors (optionally degraded by
// MicroSimConfig::sensor); the capacity test of Eq. (8) uses physical
// occupancy. See DESIGN.md §5 for the sensing rationale.
//
// --- Tick architecture (see docs/PERFORMANCE.md) ---
// Each tick is split into a short sequential junction phase (control step,
// admission, junction-box releases, stop-line service grants — everything
// that touches cross-road state) and a data-parallel sweep phase: the Krauss
// update of every lane of every occupied road. A control step refreshes each
// junction's row of the shared core::ObservationTable from the dense memo and
// occupancy arrays (four fields per link; the static ones were written once)
// and asks its controller for a phase. The tick touches only occupied roads:
// a bitset with bit r set iff road r's occupancy is nonzero, updated on
// 0 <-> 1 transitions, drives the sweep, the lazy memo-row zeroing and the
// stop-line service, in ascending road order. The sweep is partitioned by
// bitset words across a fixed ThreadPool. During the sweep a road's work
// unit reads and writes only state owned by that road (its lanes, its
// vehicles' kinematic arrays, its memo-table rows) and draws dawdling noise
// from the road's own counter-based StreamRng, so fixed-seed results are
// bit-identical at every MicroSimConfig::threads value. Exit-road
// completions are staged per road during the sweep and applied sequentially
// afterwards in exit-road order, keeping the floating-point metric
// accumulation order thread-count independent.
//
// Vehicle state is stored SoA, split hot from cold. The kinematic state the
// sweep touches on every vehicle-step — position and speed — lives in per-lane
// parallel arrays kept in lockstep with the lane's vehicle-id queue, so the
// inner Krauss loop streams over contiguous doubles in follow order instead
// of gathering through vehicle ids (the AoS layout paid one-plus cache lines
// per vehicle-step for exactly this). Waiting time and the resolved next
// movement are global arrays indexed by VehicleId (touched only for slow or
// head vehicles), and the cold metadata (route, timestamps, junction
// bookkeeping) sits in a VehMeta array that only the junction phase reads.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/controller.hpp"
#include "src/core/observation_table.hpp"
#include "src/microsim/lane_kernel.hpp"
#include "src/microsim/params.hpp"
#include "src/net/network.hpp"
#include "src/stats/run_result.hpp"
#include "src/traffic/demand.hpp"
#include "src/util/rng.hpp"
#include "src/util/thread_pool.hpp"
#include "src/util/vec_queue.hpp"

namespace abp::microsim {

class MicroSim {
 public:
  // `network` and `demand` must outlive the simulator; `controllers` holds
  // one controller per intersection, indexed by IntersectionId::index().
  MicroSim(const net::Network& network, MicroSimConfig config,
           std::vector<core::ControllerPtr> controllers, traffic::DemandGenerator& demand,
           std::uint64_t seed);

  // Registers a queue-length watch: samples the number of vehicles on the
  // incoming road `road` (all dedicated lanes, the paper's q_i).
  void watch_road(RoadId road, std::string series_name);

  // Advances the simulation to `until_s`; may be called repeatedly.
  stats::RunResult& run_until(double until_s);

  // Runs to `duration_s`, closes per-vehicle records, returns the result.
  stats::RunResult finish(double duration_s);

  [[nodiscard]] double now() const noexcept { return now_; }

  // Capacity-override hook for incident injection (sim adapter): caps the
  // number of vehicles *admitted* onto the road from now on. Vehicles already
  // on the road drain normally; occupancy above the new value just blocks
  // admission until it has drained, so occupancy never exceeds the design W.
  // Observations keep reporting the design capacity — controllers know the
  // road geometry, not the incident. Called only between ticks, from the
  // sequential phase.
  void set_road_capacity(RoadId road, int capacity);
  [[nodiscard]] int road_capacity(RoadId road) const {
    return road_capacity_[road.index()];
  }

  // --- Introspection hooks used by tests ---
  // Vehicles on the dedicated lane feeding `link`.
  [[nodiscard]] int lane_count(LinkId link) const;
  // Vehicles on the road (all lanes) plus inbound junction reservations.
  [[nodiscard]] int road_occupancy(RoadId road) const;
  // The road's bit in the occupied-road set the tick visits; must equal
  // road_occupancy(road) > 0 between ticks.
  [[nodiscard]] bool road_occupied(RoadId road) const;
  // The junction's observation as of its latest control step.
  [[nodiscard]] const core::IntersectionObservation& observation(IntersectionId node) const;
  // Brute-force recount of the live state behind one movement's
  // observation, from lane scans and the junction box instead of the memo
  // tables and occupancy counters. Equals the observation's LinkState
  // (perfect sensor) between the tick before a control step and that step.
  [[nodiscard]] core::LinkState recount_link_state(LinkId link) const;
  // Stop-line queue total of a road: lane_count over all its movements (the
  // microscopic q_i of Eq. 1; same contract as QueueSim::queued_on_road).
  [[nodiscard]] int queued_on_road(RoadId road) const;
  [[nodiscard]] net::PhaseIndex displayed_phase(IntersectionId node) const;
  [[nodiscard]] int vehicles_in_network() const;
  // Positions (road-start-relative) of vehicles on a lane, head first.
  [[nodiscard]] std::vector<double> lane_positions(LinkId link) const;
  // True when no two vehicles on any lane overlap (collision check).
  [[nodiscard]] bool no_overlaps() const;

  // Phase split of one tick: begin = control/sample/admission/box releases,
  // service = stop-line grants, finish = lane sweep + completions + time
  // advance. step() is exactly begin; service; finish.
  void step_begin();
  void step_service();
  void step_finish();

  // Reference knob: zero every memo-table row globally before each rebuild
  // instead of the default per-road lazy zeroing. Both paths are pinned
  // bit-identical by tests/memo_elision_test.cpp; this exists for that pin
  // and for bisecting.
  void set_memo_always_rebuild(bool on) { memo_always_rebuild_ = on; }

 private:
  enum class Loc { Outside, Lane, Junction, Done };

  // Cold per-vehicle metadata. The hot kinematic state (position, speed,
  // in-lane waiting time) lives in the per-lane SoA queues (Lane::pos/speed/
  // waiting); the per-vehicle veh_waiting_ / veh_next_link_ arrays (indexed
  // by VehicleId::index()) hold the carried waiting total and the resolved
  // next movement.
  struct VehMeta {
    traffic::Route route;
    // Global spawn ordinal. Slot recycling permutes vehicle indices, so
    // order-sensitive end-of-run bookkeeping sorts by this instead.
    std::uint64_t spawn_seq = 0;
    std::size_t next_turn = 0;
    Loc loc = Loc::Outside;
    RoadId road;      // current road (Loc::Lane) or target road (Loc::Junction)
    int lane = 0;     // lane index on `road`
    double junction_exit = 0.0;  // time the junction box releases the vehicle
    double entry_time = 0.0;
  };

  struct Lane {
    // Movement this lane feeds; empty for the single lane of an exit road.
    std::optional<LinkId> link;
    // SoA lane state, index-aligned and ordered head (largest pos) first:
    // vehicles[i] / pos[i] / speed[i] / waiting[i] describe the same vehicle.
    // All four queues see the identical push/pop sequence, and VecQueue's
    // layout is a pure function of that sequence, so the alignment holds by
    // construction (mutate only through push_vehicle/pop_head). Keeping the
    // kinematics in the lane makes the sweep's hot loop a contiguous
    // streaming pass. `waiting` is the vehicle's accumulated waiting time
    // carried into the lane on push and written back to the global
    // veh_waiting_ array on pop — a scattered access once per road traversal
    // instead of once per queued vehicle-step.
    VecQueue<VehicleId> vehicles;
    VecQueue<double> pos;
    VecQueue<double> speed;
    VecQueue<double> waiting;
    // Tick timestamp of the last service grant from this lane. A stop line
    // is one physical server: on a mixed lane several green links share the
    // lane, and without this stamp a second link could serve the new head in
    // the same tick, doubling the lane's discharge rate.
    double serviced_at = -1.0;

    void push_vehicle(VehicleId vid, double p, double s, double w) {
      vehicles.push_back(vid);
      pos.push_back(p);
      speed.push_back(s);
      waiting.push_back(w);
    }
    void pop_head() {
      vehicles.pop_front();
      pos.pop_front();
      speed.pop_front();
      waiting.pop_front();
    }
  };

  struct RoadRt {
    std::vector<Lane> lanes;
    // Exit-road completion staged by this tick's parallel sweep; applied (and
    // cleared) sequentially by apply_completions(). At most one per tick:
    // exit roads have a single lane and only its head can cross the far end.
    VehicleId completed;
    // Spawns waiting outside the network for space, FIFO.
    std::deque<VehicleId> buffer;
  };

  struct LinkRt {
    RoadId from_road;
    int lane_index = 0;
    // Earliest time the next service grant may be issued (rate mu).
    double next_grant = 0.0;
  };

  struct Watch {
    RoadId road;
    std::size_t series_index;
  };

  void build_runtime();
  void step();
  void control_step();
  // Allocates a vehicle slot, reusing a completed vehicle's slot when one is
  // free so storage stays O(peak active + waiting), not O(history).
  [[nodiscard]] VehicleId alloc_vehicle();
  void admit_spawns();
  void release_junction_vehicles();
  // Sequential junction phase: stop-line service for the head vehicle of
  // every green lane. Grants mutate cross-road state (downstream occupancy,
  // the junction box), so this runs single-threaded before the sweep.
  void service_junctions();
  // Data-parallel phase: Krauss update of every lane of every occupied road,
  // partitioned by words of the occupied-road bitset.
  void sweep_roads();
  // One lane's update: the vectorized kernel passes of lane_kernel.hpp over
  // the lane's SoA arrays, then the (branchy, per-vehicle) accounting tail —
  // completion staging, waiting-time accumulation, queued-count memos.
  void sweep_lane(const net::Road& road, RoadRt& rt, Lane& lane, StreamRng& rng,
                  LaneKernelScratch& scratch);
  // Applies the completions staged by sweep_roads(), in exit-road order.
  void apply_completions();
  // Zeroes one road's memo rows (road counters + its movements' link rows).
  void zero_memo_rows(std::size_t road_index);
  // Grants a crossing to `vid` (head of a green lane) if rate, capacity and
  // downstream insertion allow; returns true when granted.
  bool try_grant(VehicleId vid, LinkId link);
  void complete_vehicle(VehicleId vid);
  void sample_watches();
  // Refreshes junction `node`'s row of the observation table and returns it.
  [[nodiscard]] const core::IntersectionObservation& observe(std::size_t node);
  // Occupancy +1 / -1 on a road, keeping occupied_ in step on 0 <-> 1.
  void add_occupant(std::size_t road);
  void remove_occupant(std::size_t road);
  static constexpr std::uint64_t bit_of(std::size_t i) { return std::uint64_t{1} << (i % 64); }
  static bool bit_set(const std::vector<std::uint64_t>& bits, std::size_t i) {
    return (bits[i / 64] & bit_of(i)) != 0;
  }
  [[nodiscard]] int lane_index_for_turn(RoadId road, net::Turn turn) const;
  [[nodiscard]] int road_vehicle_count(RoadId road) const;
  // Queue-length detector: vehicles on the lane moving slower than the given
  // speed threshold.
  [[nodiscard]] int lane_queued_count(const Lane& lane, double threshold_mps) const;
  // Queue detector for one movement: on a dedicated lane, its lane's slow
  // vehicles; on a mixed lane, the slow vehicles routed through the movement.
  [[nodiscard]] int link_queued_count(LinkId link, double threshold_mps) const;
  // Sum of lane_queued_count over all lanes of the road (q_i of Eq. 1).
  [[nodiscard]] int road_queued_count(RoadId road, double threshold_mps) const;
  // The movement the vehicle will take at the end of `road`, if feasible.
  [[nodiscard]] std::optional<LinkId> movement_of(const VehMeta& m, RoadId road) const;
  // True when a vehicle can be released at the start of the lane.
  [[nodiscard]] bool entry_clear(const RoadRt& rt, int lane_index) const;

  const net::Network& net_;
  MicroSimConfig config_;
  std::vector<core::ControllerPtr> controllers_;
  traffic::DemandGenerator& demand_;
  // Sequential-phase stream: sensor noise on controller observations. The
  // sweep's dawdling draws come from road_streams_ instead, so the two never
  // contend and thread count cannot shift either stream.
  Rng rng_;
  std::uint64_t seed_ = 0;
  // One counter-based dawdling stream per road (stream id = road index).
  std::vector<StreamRng> road_streams_;
  // Effective admission capacity per road: the design W from the network,
  // overridden by set_road_capacity() during incidents. Admission and grant
  // checks read this; observations read the design capacity from net_.
  std::vector<int> road_capacity_;
  // Sweep-phase worker pool, sized config_.threads (inline when 1).
  std::unique_ptr<ThreadPool> pool_;
  // One lane-kernel scratch per sweep work unit (= pool participant): the
  // kernel's materialized gap/leader/draw arrays, reused across lanes and
  // ticks. Indexed by chunk id, so no two threads ever share one.
  std::vector<LaneKernelScratch> sweep_scratch_;

  double now_ = 0.0;
  double next_control_ = 0.0;
  double next_sample_ = 0.0;

  // --- Vehicle storage (SoA; position/speed live in the lanes) ---
  std::vector<VehMeta> veh_meta_;
  std::vector<double> veh_waiting_;
  // Resolved movement the vehicle takes at the end of its current road;
  // invalid on exit roads or when the route commands a missing movement.
  // Kept in sync with (road, next_turn) so mixed-lane queue counting never
  // re-resolves the movement per query.
  std::vector<LinkId> veh_next_link_;
  // Slots of completed vehicles available for reuse.
  std::vector<VehicleId::value_type> free_slots_;
  // Vehicles with Loc::Lane or Loc::Junction, maintained incrementally.
  int in_network_count_ = 0;

  std::vector<RoadRt> roads_;
  // Per road: vehicles on its lanes plus junction-box reservations headed
  // there (dense, for admission, grants and observations) ...
  std::vector<int> occupancy_;
  // ... and the same as a bitset, bit r set iff occupancy_[r] > 0. The sweep
  // and the memo zeroing visit only set bits, the stop-line service skips
  // green links whose road bit is clear.
  std::vector<std::uint64_t> occupied_;
  std::vector<LinkRt> links_;
  // Precomputed green-link index (CSR): for intersection n displaying phase
  // p, the movements with right-of-way are
  //   phase_links_[phase_link_offsets_[s] .. phase_link_offsets_[s + 1])
  // with s = phase_slot_base_[n] + p. Built once in build_runtime() from the
  // finalized phase plans; the transition phase's slot is empty, so the
  // junction phase needs no special case and control_step() maintains no
  // green set at all.
  std::vector<LinkId> phase_links_;
  std::vector<std::uint32_t> phase_link_offsets_;
  std::vector<std::uint32_t> phase_slot_base_;
  std::vector<net::PhaseIndex> displayed_;
  // Vehicles currently inside a junction box, unordered.
  std::vector<VehicleId> in_junction_;
  // Control-step memo tables: queued counts per road (both detector
  // thresholds) and per link (approach threshold). Rebuilt during the lane
  // sweep of the tick preceding each control step (memo_pending_), where the
  // vehicles are already in cache, so observe() is pure table reads. Each
  // row is written only by the work unit of the road that owns it (a link's
  // row belongs to its from_road), so the parallel sweep stays race-free.
  std::vector<int> road_queued_approach_;
  std::vector<int> road_queued_congestion_;
  std::vector<int> link_queued_approach_;
  // Per-road memo dirty bits, laid out like occupied_: set when a rebuild
  // wrote nonzero-capable rows for an occupied road, cleared once an empty
  // road's rows are re-zeroed. Lets the rebuild skip empty-and-clean roads
  // instead of re-zeroing every row globally (see sweep_roads); the sweep's
  // work unit owns whole words, so it writes them without atomics.
  std::vector<std::uint64_t> memo_dirty_;
  bool memo_pending_ = false;
  bool memo_always_rebuild_ = false;
  // Per-entry-road admission scratch, sized to the widest road once.
  std::vector<char> lane_blocked_;
  // Reused per-tick spawn buffer filled by DemandGenerator::poll_into.
  std::vector<traffic::SpawnRequest> spawn_buffer_;
  // Per-junction controller inputs; observe() rewrites only the dynamic
  // fields.
  core::ObservationTable obs_table_;

  std::vector<Watch> watches_;
  stats::RunResult result_;
  bool finished_ = false;
};

}  // namespace abp::microsim
