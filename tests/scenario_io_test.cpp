// Scenario loader/dumper contract tests (src/scenario/scenario_io.hpp):
// the exact path-addressed error grammar, and the round-trip guarantees
// load(dump(c)) == c and dump(load(dump(c))) == dump(c) byte-for-byte —
// including the hostile corners (64-bit seeds above 2^53, infinite fault
// windows, every enum, per-junction controller overrides) — and the retired
// keys that still load but are never dumped.
#include "src/scenario/scenario_io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "src/scenario/scenario.hpp"
#include "src/sim/simulator.hpp"
#include "src/util/json.hpp"
#include "tests/result_compare.hpp"

namespace abp::scenario {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Asserts that loading `text` throws ScenarioIoError with exactly this
// what() — the docs quote these messages, so their wording is API.
void ExpectLoadError(const std::string& text, const std::string& expected_what) {
  try {
    (void)load_scenario(text);
    FAIL() << "expected ScenarioIoError: " << expected_what;
  } catch (const ScenarioIoError& e) {
    EXPECT_EQ(std::string(e.what()), expected_what);
  }
}

TEST(ScenarioIoTest, EmptyObjectNeedsVersion) {
  ExpectLoadError("{}", "version: required field is missing");
}

TEST(ScenarioIoTest, UnsupportedVersionIsRejected) {
  ExpectLoadError(
      R"({"version": 5})",
      "version: unsupported schema version 5 (this build reads versions 1 through 4)");
  ExpectLoadError(
      R"({"version": 0})",
      "version: unsupported schema version 0 (this build reads versions 1 through 4)");
}

TEST(ScenarioIoTest, OlderSchemaVersionsStillLoad) {
  // Version 1 predates the detector (v2), shard (v3, since retired) and
  // surrogate (v4) sections; a v1 document loads with all of them at their
  // disabled defaults and re-dumps at the current version.
  const ScenarioConfig cfg = load_scenario(R"({"version": 1})");
  EXPECT_FALSE(cfg.detector.enabled);
  EXPECT_FALSE(cfg.surrogate.enabled);
  EXPECT_EQ(cfg.surrogate.service_scale, 1.0);
  EXPECT_NE(dump_scenario(cfg).find("\"version\": 4"), std::string::npos);
}

TEST(ScenarioIoTest, MinimalScenarioLoadsDefaults) {
  const ScenarioConfig cfg = load_scenario(R"({"version": 1})");
  const ScenarioConfig defaults;
  EXPECT_EQ(cfg.grid.rows, defaults.grid.rows);
  EXPECT_EQ(cfg.duration_s, defaults.duration_s);
  EXPECT_EQ(cfg.seed, defaults.seed);
  EXPECT_EQ(cfg.simulator, defaults.simulator);
  EXPECT_TRUE(cfg.faults.empty());
  EXPECT_FALSE(cfg.guard.enabled);
}

TEST(ScenarioIoTest, MalformedJsonReportsLineAndColumn) {
  try {
    (void)load_scenario("{\n  \"version\": 1,\n}");
    FAIL() << "expected json::ParseError";
  } catch (const json::ParseError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
  // Nesting past json::kMaxNestingDepth is a parse error at the first
  // container too deep, not unbounded recursion. The document is otherwise
  // well formed, so only the depth limit can reject it.
  const std::string prefix = R"({"version": 1, "name": )";
  const std::string deep = prefix + std::string(100, '[') + std::string(100, ']') + "}";
  try {
    (void)load_scenario(deep);
    FAIL() << "expected json::ParseError";
  } catch (const json::ParseError& e) {
    EXPECT_EQ(e.line(), 1);
    // The top-level object is level 1, so the 64th '[' opens level 65.
    EXPECT_EQ(e.column(), static_cast<int>(prefix.size()) + json::kMaxNestingDepth);
    EXPECT_NE(std::string(e.what()).find("nesting deeper than 64"), std::string::npos);
  }
}

TEST(ScenarioIoTest, UnknownKeysAreRejectedWithFullPath) {
  ExpectLoadError(R"({"version": 1, "micro": {"sensor": {"quantisation": 4}}})",
                  "micro.sensor.quantisation: unknown key");
  ExpectLoadError(R"({"version": 1, "grdi": {}})", "grdi: unknown key");
}

TEST(ScenarioIoTest, WrongTypesNameBothSides) {
  ExpectLoadError(R"({"version": 1, "duration_s": "long"})",
                  "duration_s: expected a number, got a string");
  ExpectLoadError(R"({"version": 1, "grid": []})",
                  "grid: expected an object, got an array");
  ExpectLoadError(R"({"version": 1, "watches": {}})",
                  "watches: expected an array, got an object");
  ExpectLoadError(R"({"version": 1, "micro": {"dedicated_turn_lanes": 1}})",
                  "micro.dedicated_turn_lanes: expected a boolean, got a number");
}

TEST(ScenarioIoTest, RangeChecksCarryThePath) {
  ExpectLoadError(R"({"version": 1, "grid": {"rows": 0}})", "grid.rows: must be >= 1");
  ExpectLoadError(R"({"version": 1, "duration_s": 0})", "duration_s: must be > 0");
  ExpectLoadError(R"({"version": 1, "seed": -1})", "seed: must be a non-negative integer");
  ExpectLoadError(R"({"version": 1, "seed": 1.5})", "seed: must be a non-negative integer");
  ExpectLoadError(
      R"({"version": 1, "micro": {"sensor": {"detection_probability": 1.5}}})",
      "micro.sensor.detection_probability: must be in [0, 1]");
  ExpectLoadError(R"({"version": 1, "micro": {"threads": 0}})",
                  "micro.threads: must be in [1, 256]");
  ExpectLoadError(R"({"version": 1, "micro": {"dt_s": 2.0, "control_interval_s": 1.0}})",
                  "micro.control_interval_s: must be >= dt_s");
  ExpectLoadError(
      R"({"version": 1, "controller": {"fixed_slot": {"period_s": 8, "amber_duration_s": 8}}})",
      "controller.fixed_slot.amber_duration_s: must be in [0, period_s)");
  ExpectLoadError(R"({"version": 1, "controller": {"util": {"alpha": 0}}})",
                  "controller.util.alpha: must be < 0");
}

TEST(ScenarioIoTest, SegmentErrorsAreIndexed) {
  ExpectLoadError(R"({"version": 1, "demand": {"segments": [
        {"duration_s": 600, "pattern": "I"},
        {"duration_s": 600, "pattern": "II"},
        {"duration_s": 600, "interarrival_scale": 0}
      ]}})",
                  "demand.segments[2].interarrival_scale: must be > 0");
}

TEST(ScenarioIoTest, EnumErrorsListTheTokens) {
  ExpectLoadError(R"({"version": 1, "controller": {"type": "nope"}})",
                  "controller.type: expected one of \"util\", \"cap\", \"orig\", \"fixed\"");
  ExpectLoadError(R"({"version": 1, "simulator": "meso"})",
                  "simulator: expected one of \"micro\", \"queue\"");
  ExpectLoadError(R"({"version": 1, "guard": {"policy": "panic"}})",
                  "guard.policy: expected one of \"throw\", \"record\", \"abort\"");
}

TEST(ScenarioIoTest, FaultWindowErrorsAreIndexed) {
  ExpectLoadError(R"({"version": 1, "faults": {"sensors": [
        {"node": {"row": 0, "col": 0}, "start_s": 0, "end_s": 100},
        {"node": {"row": 0, "col": 1}, "start_s": 50, "end_s": 50}
      ]}})",
                  "faults.sensors[1].end_s: must exceed start_s");
  ExpectLoadError(
      R"({"version": 1, "faults": {"capacity": [
        {"road": {"row": 0, "col": 0, "side": "north"}, "start_s": 0, "end_s": "forever", "capacity_factor": 0.5}
      ]}})",
      "faults.capacity[0].end_s: expected a number or \"inf\"");
  ExpectLoadError(
      R"({"version": 1, "faults": {"capacity": [
        {"road": {"row": 0, "col": 0, "side": "north"}, "start_s": 0, "end_s": 100, "capacity_factor": 1.5}
      ]}})",
      "faults.capacity[0].capacity_factor: must be in [0, 1]");
}

TEST(ScenarioIoTest, OverlappingSensorWindowsAtOneJunctionAreRejected) {
  ExpectLoadError(R"({"version": 1, "faults": {"sensors": [
        {"node": {"row": 0, "col": 0}, "start_s": 0, "end_s": 100},
        {"node": {"row": 0, "col": 0}, "start_s": 50, "end_s": 150}
      ]}})",
                  "faults.sensors[1]: overlaps faults.sensors[0] at junction (0, 0)");
  // Same windows at different junctions are fine.
  EXPECT_NO_THROW((void)load_scenario(R"({"version": 1, "faults": {"sensors": [
        {"node": {"row": 0, "col": 0}, "start_s": 0, "end_s": 100},
        {"node": {"row": 0, "col": 1}, "start_s": 50, "end_s": 150}
      ]}})"));
}

TEST(ScenarioIoTest, DuplicateControllerOverridesAreRejected) {
  ExpectLoadError(R"({"version": 1, "controller_overrides": [
        {"node": {"row": 0, "col": 1}},
        {"node": {"row": 0, "col": 1}}
      ]})",
                  "controller_overrides[1]: duplicate override for junction (0, 1)");
}

TEST(ScenarioIoTest, OverridesInheritTheRunWideSpec) {
  const ScenarioConfig cfg = load_scenario(R"({"version": 1,
    "controller": {"type": "fixed", "fixed_time": {"green_duration_s": 26, "amber_duration_s": 4}},
    "controller_overrides": [
      {"node": {"row": 0, "col": 1}, "controller": {"fixed_time": {"offset_s": 44}}}
    ]})");
  ASSERT_EQ(cfg.controller_overrides.size(), 1u);
  const core::ControllerSpec& o = cfg.controller_overrides[0].spec;
  // Only offset_s was written; green/amber come from the run-wide spec.
  EXPECT_EQ(o.fixed_time.green_duration_s, 26.0);
  EXPECT_EQ(o.fixed_time.amber_duration_s, 4.0);
  EXPECT_EQ(o.fixed_time.offset_s, 44.0);
}

TEST(ScenarioIoTest, ErrorExposesThePath) {
  try {
    (void)load_scenario(R"({"version": 1, "grid": {"rows": 0}})");
    FAIL();
  } catch (const ScenarioIoError& e) {
    EXPECT_EQ(e.path(), "grid.rows");
  }
}

TEST(ScenarioIoTest, MissingFileThrows) {
  EXPECT_THROW((void)load_scenario_file("/nonexistent/scenario.json"),
               std::runtime_error);
}

// Builds a config exercising every serializable field with awkward values.
ScenarioConfig FullConfig() {
  ScenarioConfig cfg;
  cfg.name = "full";
  cfg.description = "every field, hostile values";
  cfg.simulator = SimulatorKind::Queue;
  cfg.duration_s = 1234.5678901234567;
  cfg.seed = (1ull << 63) + 1;  // not representable as a double
  cfg.grid.rows = 2;
  cfg.grid.cols = 4;
  cfg.grid.speed_limit_mps = 13.9;
  cfg.demand.pattern = traffic::PatternKind::Mixed;
  cfg.demand.interarrival_scale = 0.75;
  cfg.demand.schedule = traffic::DemandSchedule(
      {{600.0, traffic::PatternKind::I, 0.5}, {300.0, traffic::PatternKind::IV, 2.0}});
  cfg.controller.type = core::ControllerType::CapBp;
  cfg.controller.util.pressure_kind = core::PressureKind::Sqrt;
  cfg.controller.fixed_slot.pressure_kind = core::PressureKind::Normalized;
  cfg.controller.fixed_slot.work_conserving = false;
  cfg.controller.fixed_time.offset_s = 44.0;
  ControllerOverride o;
  o.node = {1, 3};
  o.spec = cfg.controller;
  o.spec.type = core::ControllerType::FixedTime;
  cfg.controller_overrides.push_back(o);
  cfg.micro.threads = 2;
  cfg.micro.sensor.detection_probability = 0.9;
  cfg.micro.vehicle.sigma = 0.25;
  cfg.watches.push_back({0, 3, net::Side::West, "exit"});
  cfg.faults.capacity.push_back({{0, 1, net::Side::North}, 100.0, kInf, 0.0});
  cfg.faults.sensors.push_back(
      {{1, 2}, 50.0, 250.0, core::SensorFaultKind::Noise, -2, 3});
  cfg.faults.controllers.push_back({{0, 0}, 300.0, kInf});
  cfg.guard.enabled = true;
  cfg.guard.policy = GuardPolicy::Record;
  cfg.guard.interval_s = 2.5;
  return cfg;
}

TEST(ScenarioIoTest, RoundTripPreservesEveryField) {
  const ScenarioConfig cfg = FullConfig();
  const ScenarioConfig back = load_scenario(dump_scenario(cfg));
  EXPECT_EQ(back.name, cfg.name);
  EXPECT_EQ(back.description, cfg.description);
  EXPECT_EQ(back.simulator, cfg.simulator);
  EXPECT_EQ(back.duration_s, cfg.duration_s);
  EXPECT_EQ(back.seed, cfg.seed);  // exact above 2^53
  EXPECT_EQ(back.grid.rows, cfg.grid.rows);
  EXPECT_EQ(back.grid.cols, cfg.grid.cols);
  EXPECT_EQ(back.grid.speed_limit_mps, cfg.grid.speed_limit_mps);
  EXPECT_EQ(back.demand.pattern, cfg.demand.pattern);
  ASSERT_EQ(back.demand.schedule.segments().size(), 2u);
  EXPECT_EQ(back.demand.schedule.segments()[1].interarrival_scale, 2.0);
  EXPECT_EQ(back.controller.type, cfg.controller.type);
  EXPECT_EQ(back.controller.util.pressure_kind, cfg.controller.util.pressure_kind);
  EXPECT_EQ(back.controller.fixed_slot.pressure_kind,
            cfg.controller.fixed_slot.pressure_kind);
  EXPECT_EQ(back.controller.fixed_slot.work_conserving,
            cfg.controller.fixed_slot.work_conserving);
  EXPECT_EQ(back.controller.fixed_time.offset_s, cfg.controller.fixed_time.offset_s);
  ASSERT_EQ(back.controller_overrides.size(), 1u);
  EXPECT_EQ(back.controller_overrides[0].node.row, 1);
  EXPECT_EQ(back.controller_overrides[0].node.col, 3);
  EXPECT_EQ(back.controller_overrides[0].spec.type, core::ControllerType::FixedTime);
  EXPECT_EQ(back.micro.threads, cfg.micro.threads);
  EXPECT_EQ(back.micro.vehicle.sigma, cfg.micro.vehicle.sigma);
  ASSERT_EQ(back.watches.size(), 1u);
  EXPECT_EQ(back.watches[0].side, net::Side::West);
  EXPECT_EQ(back.watches[0].name, "exit");
  ASSERT_EQ(back.faults.capacity.size(), 1u);
  EXPECT_EQ(back.faults.capacity[0].end_s, kInf);
  EXPECT_EQ(back.faults.capacity[0].capacity_factor, 0.0);
  ASSERT_EQ(back.faults.sensors.size(), 1u);
  EXPECT_EQ(back.faults.sensors[0].kind, core::SensorFaultKind::Noise);
  EXPECT_EQ(back.faults.sensors[0].bias, -2);
  ASSERT_EQ(back.faults.controllers.size(), 1u);
  EXPECT_EQ(back.faults.controllers[0].recover_s, kInf);
  EXPECT_TRUE(back.guard.enabled);
  EXPECT_EQ(back.guard.policy, GuardPolicy::Record);
  EXPECT_EQ(back.guard.interval_s, cfg.guard.interval_s);
}

TEST(ScenarioIoTest, RetiredShardAndQueueThreadsKeysLoadAndAreIgnored) {
  // Sharding and the threaded queue tick are gone. Their schema keys keep
  // loading (range-checked with the original messages), never re-dump, and
  // cannot change a run: both were pinned bit-identical to the plain run.
  for (const char* simulator : {"micro", "queue"}) {
    SCOPED_TRACE(simulator);
    const std::string head = std::string(R"({"version": 3, "simulator": ")") + simulator +
                             R"(", "duration_s": 300, "grid": {"rows": 2, "cols": 2})";
    const ScenarioConfig plain = load_scenario(head + "}");
    const ScenarioConfig retired =
        load_scenario(head + R"(, "queue": {"threads": 8},)" +
                      R"( "shard": {"count": 4, "allow_oversubscribe": true}})");
    const json::Value dumped = json::parse(dump_scenario(retired));
    EXPECT_EQ(dumped.find("shard"), nullptr);
    ASSERT_NE(dumped.find("queue"), nullptr);
    EXPECT_EQ(dumped.find("queue")->find("threads"), nullptr);
    EXPECT_EQ(dump_scenario(retired), dump_scenario(plain));
    abp::testing::expect_results_identical(run_scenario(plain), run_scenario(retired));
  }
  ExpectLoadError(R"({"version": 3, "shard": {"count": 0}})", "shard.count: must be >= 1");
  ExpectLoadError(R"({"version": 3, "shard": {"count": 257}})",
                  "shard.count: must be <= 256");
  ExpectLoadError(R"({"version": 3, "queue": {"threads": 0}})",
                  "queue.threads: must be in [1, 256]");
}

// The canonical dump is a file format: pin it byte-for-byte, so a change to
// member order, number form or enum spelling shows up as a diff of
// tests/data/full_config_dump.json rather than only as a round-trip change.
TEST(ScenarioIoTest, FullConfigDumpMatchesTheGoldenFile) {
  std::ifstream in(std::string(ABP_TEST_DATA_DIR) + "/full_config_dump.json",
                   std::ios::binary);
  ASSERT_TRUE(in) << "missing tests/data/full_config_dump.json";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(dump_scenario(FullConfig()), golden.str());
}

TEST(ScenarioIoTest, DumpIsByteStableUnderReload) {
  const std::string once = dump_scenario(FullConfig());
  EXPECT_EQ(dump_scenario(load_scenario(once)), once);
  const std::string defaults = dump_scenario(ScenarioConfig{});
  EXPECT_EQ(dump_scenario(load_scenario(defaults)), defaults);
}

TEST(ScenarioIoTest, EveryPressurePresetDumps) {
  for (const Token<core::PressureKind>& t : kPressureTokens) {
    ScenarioConfig cfg;
    cfg.controller.util.pressure_kind = t.value;
    cfg.controller.fixed_slot.pressure_kind = t.value;
    EXPECT_NO_THROW((void)dump_scenario(cfg)) << t.token;
  }
}

// A config built in code gets the loader's checks from make_simulator():
// one out-of-range value per checked schema object (a demand segment is
// checked by DemandSchedule's constructor before it can reach a config),
// plus the cross-element rules. Each must fail exactly as the config's own
// scenario file does, before any run starts — interarrival_scale = 0 used
// to make the run spin forever.
TEST(ScenarioIoTest, MakeSimulatorRejectsWhatTheLoaderRejects) {
  struct Case {
    const char* what;
    void (*mutate)(ScenarioConfig&);
  };
  const Case cases[] = {
      {"duration_s: must be > 0", [](ScenarioConfig& c) { c.duration_s = -5.0; }},
      {"grid.rows: must be >= 1", [](ScenarioConfig& c) { c.grid.rows = 0; }},
      {"demand.interarrival_scale: must be > 0",
       [](ScenarioConfig& c) { c.demand.interarrival_scale = 0.0; }},
      {"demand.turning.north.right: must be in [0, 1]",
       [](ScenarioConfig& c) { c.demand.turning.by_side[0].right = 2.0; }},
      {"demand.turning.east: right + left must not exceed 1",
       [](ScenarioConfig& c) { c.demand.turning.by_side[1] = {0.6, 0.6}; }},
      {"controller.util.alpha: must be < 0",
       [](ScenarioConfig& c) { c.controller.util.alpha = 0.5; }},
      {"controller.fixed_slot.amber_duration_s: must be in [0, period_s)",
       [](ScenarioConfig& c) { c.controller.fixed_slot.period_s = 3.0; }},
      {"controller.fixed_time.green_duration_s: must be > 0",
       [](ScenarioConfig& c) { c.controller.fixed_time.green_duration_s = 0.0; }},
      {"controller_overrides[0].node.row: must be >= 0",
       [](ScenarioConfig& c) { c.controller_overrides.push_back({{-1, 0}, c.controller}); }},
      {"controller_overrides[0].controller.fixed_slot.period_s: must be > 0",
       [](ScenarioConfig& c) {
         c.controller_overrides.push_back({{0, 0}, c.controller});
         c.controller_overrides[0].spec.fixed_slot.period_s = 0.0;
       }},
      {"controller_overrides[1]: duplicate override for junction (0, 0)",
       [](ScenarioConfig& c) {
         c.controller_overrides.push_back({{0, 0}, c.controller});
         c.controller_overrides.push_back({{0, 0}, c.controller});
       }},
      {"micro.sample_interval_s: must be > 0",
       [](ScenarioConfig& c) { c.micro.sample_interval_s = 0.0; }},
      {"micro.sensor.quantization: must be >= 1",
       [](ScenarioConfig& c) { c.micro.sensor.quantization = 0; }},
      {"micro.vehicle.sigma: must be in [0, 1]",
       [](ScenarioConfig& c) { c.micro.vehicle.sigma = 5.0; }},
      {"queue.control_interval_s: must be >= step_s",
       [](ScenarioConfig& c) { c.queue.control_interval_s = 0.5; }},
      {"watches[0].row: must be >= 0",
       [](ScenarioConfig& c) { c.watches.push_back({-1, 0, net::Side::East, "w"}); }},
      {"faults.capacity[0].road.col: must be >= 0",
       [](ScenarioConfig& c) {
         c.faults.capacity.push_back({{0, -1, net::Side::North}, 0.0, 10.0, 0.5});
       }},
      {"faults.capacity[0].end_s: must exceed start_s",
       [](ScenarioConfig& c) {
         c.faults.capacity.push_back({{0, 0, net::Side::North}, 20.0, 10.0, 0.5});
       }},
      {"faults.sensors[0].noise_magnitude: must be >= 0",
       [](ScenarioConfig& c) {
         c.faults.sensors.push_back(
             {{0, 0}, 0.0, 10.0, core::SensorFaultKind::Noise, 0, -1});
       }},
      {"faults.sensors[1]: overlaps faults.sensors[0] at junction (0, 0)",
       [](ScenarioConfig& c) {
         c.faults.sensors.push_back({{0, 0}, 0.0, 10.0, core::SensorFaultKind::Dropout, 0, 0});
         c.faults.sensors.push_back({{0, 0}, 5.0, 20.0, core::SensorFaultKind::Dropout, 0, 0});
       }},
      {"faults.controllers[0].recover_s: must exceed fail_s",
       [](ScenarioConfig& c) { c.faults.controllers.push_back({{0, 0}, 10.0, 10.0}); }},
      {"guard.interval_s: must be > 0", [](ScenarioConfig& c) { c.guard.interval_s = 0.0; }},
      {"detector.threshold: must be > 0",
       [](ScenarioConfig& c) { c.detector.threshold = 0.0; }},
      {"surrogate.service_scale: must be > 0",
       [](ScenarioConfig& c) { c.surrogate.service_scale = 0.0; }},
  };
  const auto error_of = [](auto&& f) -> std::string {
    try {
      f();
    } catch (const ScenarioIoError& e) {
      return e.what();
    }
    return "no ScenarioIoError";
  };
  for (const Case& c : cases) {
    ScenarioConfig cfg =
        paper_scenario(traffic::PatternKind::II, core::ControllerType::UtilBp);
    c.mutate(cfg);
    EXPECT_EQ(error_of([&] { (void)load_scenario(dump_scenario(cfg)); }), c.what);
    EXPECT_EQ(error_of([&] { (void)sim::make_simulator(cfg); }), c.what);
  }
  EXPECT_NO_THROW(validate(FullConfig()));
}

TEST(ScenarioIoTest, SchemaFieldPathsCoverTheKeyTables) {
  const std::vector<std::string> paths = schema_field_paths();
  const auto has = [&paths](const char* p) {
    for (const std::string& s : paths) {
      if (s == p) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("version"));
  EXPECT_TRUE(has("grid.rows"));
  EXPECT_TRUE(has("demand.segments[].pattern"));
  EXPECT_TRUE(has("demand.turning.north.right"));
  EXPECT_TRUE(has("controller.util.pressure"));
  EXPECT_TRUE(has("controller_overrides[].node.row"));
  EXPECT_TRUE(has("micro.vehicle.sigma"));
  EXPECT_TRUE(has("faults.capacity[].road.side"));
  EXPECT_TRUE(has("guard.interval_s"));
}

// Every schema path is read with its type: a wrong-typed value at any path
// (in a document that sets nothing else) fails with that path's "expected
// ..." error. `true` is the wrong type for every non-boolean field; a field
// that accepts it must be a boolean, and rejects a string as one. set_field
// on a path outside array elements fails with the same error.
TEST(ScenarioIoTest, EveryFieldPathRejectsAWrongType) {
  const std::vector<std::string> paths = schema_field_paths();
  ASSERT_EQ(paths.size(), 136u);
  for (const std::string& path : paths) {
    SCOPED_TRACE(path);
    // "a[].b.c" -> {"a": [{"b": {"c": VALUE}}]} and the indexed path a[0].b.c.
    std::string open, close, indexed;
    std::size_t start = 0;
    for (;;) {
      const std::size_t dot = path.find('.', start);
      std::string seg = path.substr(start, dot == std::string::npos ? dot : dot - start);
      const bool array = seg.size() > 2 && seg.compare(seg.size() - 2, 2, "[]") == 0;
      if (array) seg.resize(seg.size() - 2);
      indexed += (indexed.empty() ? "" : ".") + seg + (array ? "[0]" : "");
      open += "\"" + seg + "\": ";
      if (dot == std::string::npos) break;
      open += array ? "[{" : "{";
      close = (array ? "}]" : "}") + close;
      start = dot + 1;
    }
    const std::string head = path == "version" ? "{" : R"({"version": 1, )";
    const auto attempt = [&](const std::string& value, const std::string& expected) {
      try {
        (void)load_scenario(head + open + value + close + "}");
        return false;
      } catch (const ScenarioIoError& e) {
        EXPECT_EQ(std::string(e.what()).rfind(indexed + ": " + expected, 0), 0u)
            << e.what();
        if (path.find("[]") == std::string::npos) {
          ScenarioConfig cfg;
          try {
            set_field(cfg, path, value);
            ADD_FAILURE() << "set_field accepted " << value;
          } catch (const ScenarioIoError& s) {
            EXPECT_EQ(std::string(s.what()), std::string(e.what()));
          }
        }
        return true;
      }
    };
    if (!attempt("true", "expected ")) {
      EXPECT_TRUE(attempt(R"("x")", "expected a boolean")) << "no wrong type rejected";
    }
  }
}

// The dump's lines that differ between two configs.
std::vector<std::string> ChangedLines(const ScenarioConfig& a, const ScenarioConfig& b) {
  std::istringstream x(dump_scenario(a)), y(dump_scenario(b));
  std::vector<std::string> changed;
  for (std::string lx, ly; std::getline(x, lx) && std::getline(y, ly);) {
    if (lx != ly) changed.push_back(ly);
  }
  return changed;
}

// The error set_field throws, or "" when it succeeds.
std::string SetFieldError(ScenarioConfig cfg, const std::string& path,
                          const std::string& value) {
  try {
    set_field(cfg, path, value);
    return "";
  } catch (const ScenarioIoError& e) {
    return e.what();
  }
}

TEST(ScenarioIoTest, SetFieldOverlaysOntoABase) {
  const ScenarioConfig base = paper_scenario(traffic::PatternKind::II,
                                             core::ControllerType::UtilBp);

  // A scalar changes its own line of the dump and nothing else.
  ScenarioConfig cfg = base;
  set_field(cfg, "grid.rows", "5");
  EXPECT_EQ(ChangedLines(base, cfg), std::vector<std::string>{"    \"rows\": 5,"});

  // A bare string is a string; so is quoted JSON.
  set_field(cfg, "demand.pattern", "III");
  EXPECT_EQ(cfg.demand.pattern, traffic::PatternKind::III);
  set_field(cfg, "name", "\"run 7\"");
  EXPECT_EQ(cfg.name, "run 7");

  // An object merges its keys; the members it leaves out keep their values.
  cfg = base;
  set_field(cfg, "micro", R"({"dt_s": 2, "control_interval_s": 4})");
  EXPECT_EQ(cfg.micro.dt_s, 2.0);
  EXPECT_EQ(cfg.micro.control_interval_s, 4.0);
  EXPECT_EQ(ChangedLines(base, cfg).size(), 2u);

  // An array replaces the whole array: its elements start from defaults.
  cfg = FullConfig();
  ASSERT_EQ(cfg.demand.schedule.segments().size(), 2u);
  set_field(cfg, "demand.segments", R"([{"duration_s": 60, "pattern": "III"}])");
  ASSERT_EQ(cfg.demand.schedule.segments().size(), 1u);
  EXPECT_EQ(cfg.demand.schedule.segments()[0].pattern, traffic::PatternKind::III);
  EXPECT_EQ(cfg.demand.schedule.segments()[0].interarrival_scale, 1.0);
  EXPECT_EQ(cfg.demand.interarrival_scale, 0.75);

  // Errors are the loader's, and leave the config as it was.
  EXPECT_EQ(SetFieldError(base, "grid.rowz", "3"), "grid.rowz: unknown key");
  EXPECT_EQ(SetFieldError(base, "grid.rows", "0"), "grid.rows: must be >= 1");
  EXPECT_EQ(SetFieldError(base, "micro.dt_s", "5"),
            "micro.control_interval_s: must be >= dt_s");
  EXPECT_EQ(SetFieldError(base, "seed", "-1"), "seed: must be a non-negative integer");
  cfg = base;
  EXPECT_THROW(set_field(cfg, "micro.dt_s", "5"), ScenarioIoError);
  EXPECT_EQ(dump_scenario(cfg), dump_scenario(base));
}

// Overlaying an empty segment list clears the base's schedule, as a file
// that never declared one would load.
TEST(ScenarioIoTest, SetFieldEmptySegmentsClearTheSchedule) {
  ScenarioConfig cfg =
      load_scenario_file(std::string(ABP_SCENARIO_DIR) + "/rush_hour_ramp.json");
  ASSERT_FALSE(cfg.demand.schedule.empty());
  set_field(cfg, "demand.segments", "[]");
  EXPECT_TRUE(cfg.demand.schedule.empty());
  EXPECT_EQ(dump_scenario(load_scenario(dump_scenario(cfg))), dump_scenario(cfg));
}

}  // namespace
}  // namespace abp::scenario
