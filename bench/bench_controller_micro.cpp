// A3: microbenchmarks for the controller decision path (google-benchmark).
//
// The paper's Section I claims back-pressure control has "low computational
// complexity" suitable for decentralized roadside deployment. This bench
// measures one decide() call on a Fig.-1 junction for every policy, plus the
// gain-computation kernel, so the claim is backed by numbers in
// bench_output.txt.
#include <benchmark/benchmark.h>

#include "src/core/factory.hpp"
#include "src/net/grid.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace abp;

core::IntersectionObservation random_observation(Rng& rng, double time) {
  core::IntersectionObservation obs;
  obs.time = time;
  for (int i = 0; i < 12; ++i) {
    core::LinkState l;
    l.queue = static_cast<int>(rng.uniform_int(0, 40));
    l.upstream_total = l.queue + static_cast<int>(rng.uniform_int(0, 40));
    l.upstream_capacity = 120;
    l.downstream_queue = static_cast<int>(rng.uniform_int(0, 40));
    l.downstream_total = l.downstream_queue + static_cast<int>(rng.uniform_int(0, 60));
    l.downstream_capacity = 120;
    l.service_rate = 1.0;
    obs.links.push_back(l);
  }
  return obs;
}

core::IntersectionPlan fig1_plan() {
  const net::Network net = net::build_grid({.rows = 1, .cols = 1});
  return core::make_plan(net, net.intersections().front());
}

void BM_GainComputation(benchmark::State& state) {
  Rng rng(1);
  const core::IntersectionObservation obs = random_observation(rng, 0.0);
  core::GainParams params;
  std::vector<double> gains;
  for (auto _ : state) {
    core::all_link_gains_util(obs, core::wstar(obs), params, gains);
    benchmark::DoNotOptimize(gains.data());
  }
}
BENCHMARK(BM_GainComputation);

template <core::ControllerType Type>
void BM_ControllerDecide(benchmark::State& state) {
  core::ControllerSpec spec;
  spec.type = Type;
  core::ControllerPtr controller = core::make_controller(spec, fig1_plan());
  Rng rng(7);
  double time = 0.0;
  for (auto _ : state) {
    time += 1.0;
    benchmark::DoNotOptimize(controller->decide(random_observation(rng, time)));
  }
}
BENCHMARK(BM_ControllerDecide<core::ControllerType::UtilBp>)->Name("BM_Decide_UTIL_BP");
BENCHMARK(BM_ControllerDecide<core::ControllerType::CapBp>)->Name("BM_Decide_CAP_BP");
BENCHMARK(BM_ControllerDecide<core::ControllerType::OriginalBp>)->Name("BM_Decide_ORIG_BP");
BENCHMARK(BM_ControllerDecide<core::ControllerType::FixedTime>)->Name("BM_Decide_FIXED_TIME");

void BM_ObservationScaling(benchmark::State& state) {
  // Decision cost vs junction size: links per junction on the x-axis.
  const int links = static_cast<int>(state.range(0));
  core::IntersectionPlan plan;
  plan.num_links = links;
  plan.phases.push_back({});
  for (int i = 0; i < links; i += 3) {
    std::vector<int> phase;
    for (int j = i; j < std::min(i + 3, links); ++j) phase.push_back(j);
    plan.phases.push_back(std::move(phase));
  }
  core::UtilBpConfig cfg;
  core::UtilBpController controller(std::move(plan), cfg);
  Rng rng(13);
  core::IntersectionObservation obs;
  obs.links.resize(static_cast<std::size_t>(links));
  for (auto& l : obs.links) {
    l.queue = static_cast<int>(rng.uniform_int(0, 40));
    l.upstream_total = l.queue;
    l.upstream_capacity = 120;
    l.downstream_queue = static_cast<int>(rng.uniform_int(0, 40));
    l.downstream_total = l.downstream_queue;
    l.downstream_capacity = 120;
    l.service_rate = 1.0;
  }
  double time = 0.0;
  for (auto _ : state) {
    time += 1.0;
    obs.time = time;
    benchmark::DoNotOptimize(controller.decide(obs));
  }
  state.SetComplexityN(links);
}
BENCHMARK(BM_ObservationScaling)->RangeMultiplier(2)->Range(3, 96)->Complexity();

void BM_FullControlStep3x3(benchmark::State& state) {
  // One network-wide control sweep: 9 junctions x decide() with fresh
  // observations — what a roadside cycle costs per mini-slot.
  const net::Network net = net::build_grid(net::GridConfig{});
  core::ControllerSpec spec;
  spec.type = core::ControllerType::UtilBp;
  auto controllers = core::make_controllers(spec, net);
  Rng rng(17);
  double time = 0.0;
  for (auto _ : state) {
    time += 1.0;
    for (auto& controller : controllers) {
      benchmark::DoNotOptimize(controller->decide(random_observation(rng, time)));
    }
  }
}
BENCHMARK(BM_FullControlStep3x3);

}  // namespace

BENCHMARK_MAIN();
