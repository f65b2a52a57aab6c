#include "src/scenario/scenario_io.hpp"

#include <fstream>
#include <sstream>
#include <utility>

#include "src/scenario/schema.hpp"

// One describe() per schema object, in document order (see schema.hpp). Each
// names every key of its object once and then lists the object's checks in
// the order they run. They live in the visitors' namespace, where
// argument-dependent lookup finds them for the library's own types.
namespace abp::scenario::schema {

template <class V>
void describe(V& v, net::GridConfig& g) {
  v.field("rows", g.rows);
  v.field("cols", g.cols);
  v.field("road_length_m", g.road_length_m);
  v.field("boundary_length_m", g.boundary_length_m);
  v.field("speed_limit_mps", g.speed_limit_mps);
  v.field("capacity", g.capacity);
  v.field("service_rate", g.service_rate);
  v.field("handedness", g.handedness, kHandednessTokens);
  v.check(g.rows >= 1, g.rows, "must be >= 1");
  v.check(g.cols >= 1, g.cols, "must be >= 1");
  v.check(g.road_length_m > 0.0, g.road_length_m, "must be > 0");
  v.check(g.boundary_length_m > 0.0, g.boundary_length_m, "must be > 0");
  v.check(g.speed_limit_mps > 0.0, g.speed_limit_mps, "must be > 0");
  v.check(g.capacity >= 1, g.capacity, "must be >= 1");
  v.check(g.service_rate > 0.0, g.service_rate, "must be > 0");
}

template <class V>
void describe(V& v, traffic::TurningTable::Probabilities& p) {
  v.field("right", p.right);
  v.field("left", p.left);
  v.check(p.right >= 0.0 && p.right <= 1.0, p.right, "must be in [0, 1]");
  v.check(p.left >= 0.0 && p.left <= 1.0, p.left, "must be in [0, 1]");
  v.check(!(p.right + p.left > 1.0), "right + left must not exceed 1");
}

// Keyed by side token; the paths list each side's members, not the sides.
template <class V>
void describe(V& v, traffic::TurningTable& t) {
  for (const Token<net::Side>& side : kSideTokens) {
    v.object(side.token, t.by_side[static_cast<std::size_t>(side.value)],
             List::MembersOnly);
  }
}

template <class V>
void describe(V& v, traffic::ScheduleSegment& s) {
  v.field("duration_s", s.duration_s);
  v.field("pattern", s.pattern, kPatternTokens);
  v.field("interarrival_scale", s.interarrival_scale);
  v.check(s.duration_s > 0.0, s.duration_s, "must be > 0");
  v.check(s.interarrival_scale > 0.0, s.interarrival_scale, "must be > 0");
}

template <class V>
void describe(V& v, traffic::DemandConfig& d) {
  v.field("pattern", d.pattern, kPatternTokens);
  v.field("interarrival_scale", d.interarrival_scale);
  v.check(d.interarrival_scale > 0.0, d.interarrival_scale, "must be > 0");
  v.object("turning", d.turning);
  std::vector<traffic::ScheduleSegment> segments = d.schedule.segments();
  v.array("segments", segments);
  // An empty array means "no schedule" — identical to the field being
  // absent, so dumps of schedule-free configs round-trip.
  if constexpr (V::kLoads) {
    if (!segments.empty()) d.schedule = traffic::DemandSchedule(std::move(segments));
  }
}

// Field format of a controller's pressure preset. A custom PressureFn
// (programmatic API only) overrides the preset and has no file form.
struct Pressure {
  const core::PressureFn& custom;
};

void read_value(const json::Value& v, const Path& p, core::PressureKind& x, Pressure) {
  read_value(v, p, x, kPressureTokens);
}

json::Value write_value(const Path& p, core::PressureKind x, Pressure format) {
  if (format.custom) {
    fail(p, "a custom pressure function cannot be serialized; use the pressure preset");
  }
  return write_value(p, x, kPressureTokens);
}

template <class V>
void describe(V& v, core::UtilBpConfig& u) {
  v.field("alpha", u.alpha);
  v.field("beta", u.beta);
  v.field("amber_duration_s", u.amber_duration_s);
  v.field("gstar_policy", u.gstar_policy, kGStarTokens);
  v.field("gstar_constant", u.gstar_constant);
  v.field("pressure", u.pressure_kind, Pressure{u.pressure});
  v.check(u.alpha < 0.0, u.alpha, "must be < 0");
  v.check(u.beta < 0.0, u.beta, "must be < 0");
  v.check(u.amber_duration_s >= 0.0, u.amber_duration_s, "must be >= 0");
}

template <class V>
void describe(V& v, core::FixedSlotBpConfig& s) {
  v.field("period_s", s.period_s);
  v.field("amber_duration_s", s.amber_duration_s);
  v.field("work_conserving", s.work_conserving);
  v.field("pressure", s.pressure_kind, Pressure{s.pressure});
  v.check(s.period_s > 0.0, s.period_s, "must be > 0");
  v.check(s.amber_duration_s >= 0.0 && s.amber_duration_s < s.period_s,
          s.amber_duration_s, "must be in [0, period_s)");
}

template <class V>
void describe(V& v, core::FixedTimeConfig& f) {
  v.field("green_duration_s", f.green_duration_s);
  v.field("amber_duration_s", f.amber_duration_s);
  v.field("offset_s", f.offset_s);
  v.check(f.green_duration_s > 0.0, f.green_duration_s, "must be > 0");
  v.check(f.amber_duration_s >= 0.0, f.amber_duration_s, "must be >= 0");
  v.check(f.offset_s >= 0.0, f.offset_s, "must be >= 0");
}

template <class V>
void describe(V& v, core::ControllerSpec& c) {
  v.field("type", c.type, kControllerTypeTokens);
  v.object("util", c.util);
  v.object("fixed_slot", c.fixed_slot);
  v.object("fixed_time", c.fixed_time);
}

template <class V>
void describe(V& v, GridNodeRef& n) {
  v.field("row", n.row);
  v.field("col", n.col);
  v.check(n.row >= 0, n.row, "must be >= 0");
  v.check(n.col >= 0, n.col, "must be >= 0");
}

template <class V>
void describe(V& v, ControllerOverride& o) {
  v.object("node", o.node);
  v.object("controller", o.spec, List::KeyOnly);
}

template <class V>
void describe(V& v, core::SensorModel& s) {
  v.field("detection_probability", s.detection_probability);
  v.field("quantization", s.quantization);
  v.field("dropout_probability", s.dropout_probability);
  v.check(s.detection_probability >= 0.0 && s.detection_probability <= 1.0,
          s.detection_probability, "must be in [0, 1]");
  v.check(s.quantization >= 1, s.quantization, "must be >= 1");
  v.check(s.dropout_probability >= 0.0 && s.dropout_probability <= 1.0,
          s.dropout_probability, "must be in [0, 1]");
}

template <class V>
void describe(V& v, microsim::VehicleParams& p) {
  v.field("length_m", p.length_m);
  v.field("min_gap_m", p.min_gap_m);
  v.field("accel_mps2", p.accel_mps2);
  v.field("decel_mps2", p.decel_mps2);
  v.field("tau_s", p.tau_s);
  v.field("sigma", p.sigma);
  v.check(p.length_m > 0.0, p.length_m, "must be > 0");
  v.check(p.min_gap_m >= 0.0, p.min_gap_m, "must be >= 0");
  v.check(p.accel_mps2 > 0.0, p.accel_mps2, "must be > 0");
  v.check(p.decel_mps2 > 0.0, p.decel_mps2, "must be > 0");
  v.check(p.tau_s > 0.0, p.tau_s, "must be > 0");
  v.check(p.sigma >= 0.0 && p.sigma <= 1.0, p.sigma, "must be in [0, 1]");
}

template <class V>
void describe(V& v, microsim::MicroSimConfig& m) {
  v.field("dt_s", m.dt_s);
  v.field("dedicated_turn_lanes", m.dedicated_turn_lanes);
  v.field("control_interval_s", m.control_interval_s);
  v.field("sample_interval_s", m.sample_interval_s);
  v.field("junction_crossing_s", m.junction_crossing_s);
  v.field("service_zone_m", m.service_zone_m);
  v.field("saturation_flow_vps", m.saturation_flow_vps);
  v.field("insertion_speed_mps", m.insertion_speed_mps);
  v.field("waiting_speed_threshold_mps", m.waiting_speed_threshold_mps);
  v.field("approach_queue_threshold_mps", m.approach_queue_threshold_mps);
  v.field("congestion_queue_threshold_mps", m.congestion_queue_threshold_mps);
  v.field("threads", m.threads);
  v.object("sensor", m.sensor);
  v.object("vehicle", m.vehicle);
  v.check(m.dt_s > 0.0, m.dt_s, "must be > 0");
  v.check(m.control_interval_s >= m.dt_s, m.control_interval_s, "must be >= dt_s");
  v.check(m.sample_interval_s > 0.0, m.sample_interval_s, "must be > 0");
  v.check(m.junction_crossing_s >= 0.0, m.junction_crossing_s, "must be >= 0");
  v.check(m.service_zone_m >= 0.0, m.service_zone_m, "must be >= 0");
  v.check(m.saturation_flow_vps >= 0.0, m.saturation_flow_vps, "must be >= 0");
  v.check(m.insertion_speed_mps > 0.0, m.insertion_speed_mps, "must be > 0");
  v.check(m.waiting_speed_threshold_mps >= 0.0, m.waiting_speed_threshold_mps,
          "must be >= 0");
  v.check(m.approach_queue_threshold_mps >= 0.0, m.approach_queue_threshold_mps,
          "must be >= 0");
  v.check(m.congestion_queue_threshold_mps >= 0.0, m.congestion_queue_threshold_mps,
          "must be >= 0");
  v.check(m.threads >= 1 && m.threads <= 256, m.threads, "must be in [1, 256]");
}

template <class V>
void describe(V& v, queuesim::QueueSimConfig& q) {
  v.field("step_s", q.step_s);
  v.field("control_interval_s", q.control_interval_s);
  v.field("sample_interval_s", q.sample_interval_s);
  // Retired: the queue tick is serial. Loaded and checked as before, never
  // dumped, then ignored.
  int threads = 1;
  if constexpr (!V::kDumps) v.field("threads", threads);
  v.check(q.step_s > 0.0, q.step_s, "must be > 0");
  v.check(q.control_interval_s >= q.step_s, q.control_interval_s, "must be >= step_s");
  v.check(q.sample_interval_s > 0.0, q.sample_interval_s, "must be > 0");
  v.check(threads >= 1 && threads <= 256, threads, "must be in [1, 256]");
}

template <class V>
void describe(V& v, WatchSpec& w) {
  v.field("row", w.row);
  v.field("col", w.col);
  v.field("side", w.side, kSideTokens);
  v.field("name", w.name);
  v.check(w.row >= 0, w.row, "must be >= 0");
  v.check(w.col >= 0, w.col, "must be >= 0");
}

template <class V>
void describe(V& v, GridRoadRef& r) {
  v.field("row", r.row);
  v.field("col", r.col);
  v.field("side", r.side, kSideTokens);
  v.check(r.row >= 0, r.row, "must be >= 0");
  v.check(r.col >= 0, r.col, "must be >= 0");
}

template <class V>
void describe(V& v, CapacityFault& f) {
  v.object("road", f.road);
  v.field("start_s", f.start_s);
  v.field("end_s", f.end_s, kInfTime);
  v.field("capacity_factor", f.capacity_factor);
  v.check(f.start_s >= 0.0, f.start_s, "must be >= 0");
  v.check(f.end_s > f.start_s, f.end_s, "must exceed start_s");
  v.check(f.capacity_factor >= 0.0 && f.capacity_factor <= 1.0, f.capacity_factor,
          "must be in [0, 1]");
}

template <class V>
void describe(V& v, SensorFault& f) {
  v.object("node", f.node);
  v.field("start_s", f.start_s);
  v.field("end_s", f.end_s, kInfTime);
  v.field("kind", f.kind, kSensorFaultTokens);
  v.field("bias", f.bias);
  v.field("noise_magnitude", f.noise_magnitude);
  v.check(f.start_s >= 0.0, f.start_s, "must be >= 0");
  v.check(f.end_s > f.start_s, f.end_s, "must exceed start_s");
  v.check(f.noise_magnitude >= 0, f.noise_magnitude, "must be >= 0");
}

template <class V>
void describe(V& v, ControllerFault& f) {
  v.object("node", f.node);
  v.field("fail_s", f.fail_s);
  v.field("recover_s", f.recover_s, kInfTime);
  v.check(f.fail_s >= 0.0, f.fail_s, "must be >= 0");
  v.check(f.recover_s > f.fail_s, f.recover_s, "must exceed fail_s");
}

template <class V>
void describe(V& v, FaultSchedule& f) {
  v.array("capacity", f.capacity);
  v.array("sensors", f.sensors);
  // Same rule fault_schedule.cpp enforces, with the file's field paths.
  if constexpr (V::kLoads) {
    for (std::size_t j = 0; j < f.sensors.size(); ++j) {
      for (std::size_t i = 0; i < j; ++i) {
        const SensorFault& a = f.sensors[i];
        const SensorFault& b = f.sensors[j];
        if (a.node.row != b.node.row || a.node.col != b.node.col) continue;
        if (a.start_s < b.end_s && b.start_s < a.end_s) {
          throw ScenarioIoError(v.element_path(f.sensors, j),
                                "overlaps " + v.element_path(f.sensors, i) +
                                    " at junction (" + std::to_string(a.node.row) + ", " +
                                    std::to_string(a.node.col) + ")");
        }
      }
    }
  }
  v.array("controllers", f.controllers);
}

template <class V>
void describe(V& v, GuardConfig& g) {
  v.field("enabled", g.enabled);
  v.field("policy", g.policy, kGuardPolicyTokens);
  v.field("interval_s", g.interval_s);
  v.check(g.interval_s > 0.0, g.interval_s, "must be > 0");
}

template <class V>
void describe(V& v, detect::DetectorConfig& d) {
  v.field("enabled", d.enabled);
  v.field("window_samples", d.window_samples);
  v.field("warmup_samples", d.warmup_samples);
  v.field("drift", d.drift);
  v.field("threshold", d.threshold);
  v.field("min_sigma", d.min_sigma);
  v.field("min_links", d.min_links);
  v.field("fuse_window_s", d.fuse_window_s);
  v.field("cooldown_s", d.cooldown_s);
  v.field("adapt", d.adapt);
  v.check(d.window_samples >= 1, d.window_samples, "must be >= 1");
  v.check(d.warmup_samples >= 1, d.warmup_samples, "must be >= 1");
  v.check(d.drift >= 0.0, d.drift, "must be >= 0");
  v.check(d.threshold > 0.0, d.threshold, "must be > 0");
  v.check(d.min_sigma > 0.0, d.min_sigma, "must be > 0");
  v.check(d.min_links >= 1, d.min_links, "must be >= 1");
  v.check(d.fuse_window_s > 0.0, d.fuse_window_s, "must be > 0");
  v.check(d.cooldown_s >= 0.0, d.cooldown_s, "must be >= 0");
}

// Retired "shard" section (schema versions 3-4, multi-process sharding).
// Sharded runs were bit-identical to monolithic ones, so the section is
// range-checked with its original messages, then ignored.
struct RetiredShard {
  int count = 1;
  bool allow_oversubscribe = false;
};

template <class V>
void describe(V& v, RetiredShard& s) {
  v.field("count", s.count);
  v.field("allow_oversubscribe", s.allow_oversubscribe);
  v.check(s.count >= 1, s.count, "must be >= 1");
  v.check(s.count <= 256, s.count, "must be <= 256");
}

template <class V>
void describe(V& v, SurrogateConfig& s) {
  v.field("enabled", s.enabled);
  v.field("service_scale", s.service_scale);
  v.field("transit_scale", s.transit_scale);
  v.field("capacity_scale", s.capacity_scale);
  v.field("profile", s.profile);
  v.check(s.service_scale > 0.0, s.service_scale, "must be > 0");
  v.check(s.transit_scale > 0.0, s.transit_scale, "must be > 0");
  v.check(s.capacity_scale > 0.0, s.capacity_scale, "must be > 0");
}

template <class V>
void describe(V& v, ScenarioConfig& c) {
  int version = kScenarioSchemaVersion;
  v.field("version", version);
  v.require(version);
  v.check(version >= kScenarioSchemaVersionMin && version <= kScenarioSchemaVersion,
          version,
          "unsupported schema version " + std::to_string(version) +
              " (this build reads versions " + std::to_string(kScenarioSchemaVersionMin) +
              " through " + std::to_string(kScenarioSchemaVersion) + ")");
  v.field("name", c.name);
  v.field("description", c.description);
  v.field("simulator", c.simulator, kSimulatorTokens);
  v.field("duration_s", c.duration_s);
  v.check(c.duration_s > 0.0, c.duration_s, "must be > 0");
  v.field("seed", c.seed);
  v.object("grid", c.grid);
  v.object("demand", c.demand);
  v.object("controller", c.controller);
  // Overrides start from the run-wide spec, not from factory defaults: a
  // corridor override that only sets fixed_time.offset_s keeps the
  // scenario's amber/green timings.
  v.array("controller_overrides", c.controller_overrides,
          ControllerOverride{.node = {}, .spec = c.controller});
  if constexpr (V::kLoads) {
    const std::vector<ControllerOverride>& o = c.controller_overrides;
    for (std::size_t j = 0; j < o.size(); ++j) {
      for (std::size_t i = 0; i < j; ++i) {
        if (o[i].node.row == o[j].node.row && o[i].node.col == o[j].node.col) {
          throw ScenarioIoError(v.element_path(o, j),
                                "duplicate override for junction (" +
                                    std::to_string(o[j].node.row) + ", " +
                                    std::to_string(o[j].node.col) + ")");
        }
      }
    }
  }
  v.object("micro", c.micro);
  v.object("queue", c.queue);
  v.array("watches", c.watches);
  v.object("faults", c.faults);
  v.object("guard", c.guard);
  v.object("detector", c.detector);
  RetiredShard shard;
  if constexpr (!V::kDumps) v.object("shard", shard);
  v.object("surrogate", c.surrogate);
}

}  // namespace abp::scenario::schema

namespace abp::scenario {

ScenarioConfig load_scenario(std::string_view json_text) {
  ScenarioConfig cfg;
  schema::load_document(json::parse(json_text), cfg);
  return cfg;
}

ScenarioConfig load_scenario_file(const std::string& file_path) {
  std::ifstream in(file_path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open scenario file: " + file_path);
  std::ostringstream text;
  text << in.rdbuf();
  return load_scenario(text.str());
}

std::string dump_scenario(const ScenarioConfig& config) {
  return schema::dump_document(config);
}

std::vector<std::string> schema_field_paths() {
  ScenarioConfig cfg;
  std::vector<std::string> out;
  schema::list_paths(cfg, "", out);
  return out;
}

}  // namespace abp::scenario
