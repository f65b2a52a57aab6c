// Active-set pins for the micro sim's tick.
//
// The tick visits only occupied roads: the lane sweep, the lazy memo zeroing
// and the stop-line service all walk a bitset of roads with nonzero
// occupancy, updated on 0 <-> 1 transitions in admission, grants, service
// and completions. A missed transition would silently freeze a road (never
// swept again) or leave stale memo rows behind, so these tests check the
// bitset against the occupancy counters after every tick. They also check,
// at every control step, that each junction's observation-table row equals
// a brute-force recount of the live state (lane scans and the junction box,
// not the memo tables or counters the table is filled from).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/microsim/micro_sim.hpp"
#include "src/scenario/scenario.hpp"
#include "src/sim/run_setup.hpp"
#include "tests/result_compare.hpp"

namespace abp {
namespace {

scenario::ScenarioConfig active_set_config(traffic::PatternKind pattern, std::uint64_t seed) {
  scenario::ScenarioConfig cfg =
      scenario::paper_scenario(pattern, core::ControllerType::UtilBp);
  // 6x6 has 168 roads: three bitset words, so threads 2 and 8 really split
  // the sweep.
  cfg.grid.rows = 6;
  cfg.grid.cols = 6;
  cfg.seed = seed;
  cfg.simulator = scenario::SimulatorKind::Micro;
  cfg.duration_s = 400.0;
  return cfg;
}

void expect_link_state_eq(const core::LinkState& got, const core::LinkState& want,
                          LinkId link, double time) {
  EXPECT_EQ(got.queue, want.queue) << "link " << link.index() << " t=" << time;
  EXPECT_EQ(got.upstream_total, want.upstream_total) << "link " << link.index() << " t=" << time;
  EXPECT_EQ(got.upstream_capacity, want.upstream_capacity) << "link " << link.index();
  EXPECT_EQ(got.downstream_queue, want.downstream_queue)
      << "link " << link.index() << " t=" << time;
  EXPECT_EQ(got.downstream_total, want.downstream_total)
      << "link " << link.index() << " t=" << time;
  EXPECT_EQ(got.downstream_capacity, want.downstream_capacity) << "link " << link.index();
  EXPECT_EQ(got.service_rate, want.service_rate) << "link " << link.index();
}

// A capacity incident driven through MicroSim::set_road_capacity: from
// `start_s` to `end_s` the listed roads admit nobody, then recover.
struct CapacityCut {
  std::vector<RoadId> roads;
  double start_s = 0.0;
  double end_s = 0.0;
};

// Runs `cfg` tick by tick, checking the occupied-road set after every tick
// and the observation table at every control step; stores the run's result
// in `result`.
void run_checked(const scenario::ScenarioConfig& cfg, stats::RunResult& result,
                 const CapacityCut* cut = nullptr) {
  const net::Network network = sim::build_validated(sim::effective_grid(cfg));
  traffic::DemandGenerator demand(network, cfg.demand, cfg.seed);
  microsim::MicroSim sim = sim::construct_backend<microsim::MicroSim>(
      cfg, network, demand, sim::make_run_controllers(cfg, network, nullptr));

  std::vector<core::LinkState> recount(network.links().size());
  std::size_t control_checks = 0;
  std::size_t drained_roads = 0;
  std::vector<char> was_occupied(network.roads().size(), 0);
  while (sim.now() < cfg.duration_s) {
    const double t = sim.now();
    if (cut != nullptr && (t == cut->start_s || t == cut->end_s)) {
      for (RoadId road : cut->roads) {
        sim.set_road_capacity(road, t == cut->start_s ? 0 : network.road(road).capacity);
      }
    }
    // The live state a control step at t observes: nothing moves between the
    // end of the previous tick and the control step that opens this one.
    for (const net::Link& link : network.links()) {
      recount[link.id.index()] = sim.recount_link_state(link.id);
    }
    sim.step_begin();
    sim.step_service();
    sim.step_finish();

    for (const net::Road& road : network.roads()) {
      const bool occupied = sim.road_occupancy(road.id) > 0;
      ASSERT_EQ(sim.road_occupied(road.id), occupied)
          << "road " << road.name << " occupancy " << sim.road_occupancy(road.id)
          << " t=" << sim.now();
      if (was_occupied[road.id.index()] && !occupied) ++drained_roads;
      was_occupied[road.id.index()] = occupied ? 1 : 0;
    }
    for (const net::Intersection& node : network.intersections()) {
      const core::IntersectionObservation& obs = sim.observation(node.id);
      if (obs.time != t) continue;  // no control step this tick
      ++control_checks;
      ASSERT_EQ(obs.links.size(), node.links.size());
      for (std::size_t i = 0; i < node.links.size(); ++i) {
        expect_link_state_eq(obs.links[i], recount[node.links[i].index()], node.links[i], t);
      }
    }
  }
  // Non-vacuous: control steps were checked and roads drained to empty and
  // refilled, so both bit transitions were exercised.
  EXPECT_GT(control_checks, network.intersections().size() * 100);
  EXPECT_GT(drained_roads, 100u);
  result = sim.finish(cfg.duration_s);
}

TEST(ActiveSet, DedicatedLanesAtThreads128) {
  scenario::ScenarioConfig cfg = active_set_config(traffic::PatternKind::II, 21);
  stats::RunResult serial;
  run_checked(cfg, serial);
  for (int threads : {2, 8}) {
    cfg.micro.threads = threads;
    stats::RunResult threaded;
    run_checked(cfg, threaded);
    testing::expect_results_identical(serial, threaded);
  }
}

TEST(ActiveSet, MixedLanes) {
  scenario::ScenarioConfig cfg = active_set_config(traffic::PatternKind::III, 22);
  cfg.micro.dedicated_turn_lanes = false;
  stats::RunResult result;
  run_checked(cfg, result);
}

TEST(ActiveSet, CapacityFault) {
  const scenario::ScenarioConfig cfg = active_set_config(traffic::PatternKind::III, 23);
  const net::Network network = sim::build_validated(sim::effective_grid(cfg));
  // Two entry roads and two interior roads; the interior ones block grants
  // into a road that keeps draining, the entry ones block admission.
  CapacityCut cut;
  cut.roads = {network.entry_roads()[0], network.entry_roads()[5]};
  for (const net::Road& road : network.roads()) {
    if (cut.roads.size() == 4) break;
    if (road.id.index() % 7 == 3 && !road.is_entry() && !road.is_exit()) {
      cut.roads.push_back(road.id);
    }
  }
  ASSERT_EQ(cut.roads.size(), 4u);
  cut.start_s = 60.0;
  cut.end_s = 200.0;
  stats::RunResult result;
  run_checked(cfg, result, &cut);
}

}  // namespace
}  // namespace abp
