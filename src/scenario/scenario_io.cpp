#include "src/scenario/scenario_io.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>
#include <utility>

#include "src/util/json.hpp"

namespace abp::scenario {
namespace {

[[noreturn]] void fail(const std::string& path, const std::string& problem) {
  throw ScenarioIoError(path, problem);
}

// --- Key tables -------------------------------------------------------------
// One table per schema object, in document order. These drive three things
// that must never drift apart: the parser's unknown-key rejection, the
// dumper's member order, and schema_field_paths() (the docs lint). Retired
// keys (the "shard" section, queue.threads) stay in the tables so older
// documents keep loading; the dumper skips them.

constexpr const char* kTopKeys[] = {
    "version", "name",  "description", "simulator",  "duration_s",
    "seed",    "grid",  "demand",      "controller", "controller_overrides",
    "micro",   "queue", "watches",     "faults",     "guard",
    "detector", "shard", "surrogate"};
constexpr const char* kGridKeys[] = {
    "rows",           "cols",     "road_length_m", "boundary_length_m",
    "speed_limit_mps", "capacity", "service_rate",  "handedness"};
constexpr const char* kDemandKeys[] = {"pattern", "interarrival_scale", "turning",
                                       "segments"};
constexpr const char* kTurningKeys[] = {"north", "east", "south", "west"};
constexpr const char* kTurnProbKeys[] = {"right", "left"};
constexpr const char* kSegmentKeys[] = {"duration_s", "pattern", "interarrival_scale"};
constexpr const char* kControllerKeys[] = {"type", "util", "fixed_slot", "fixed_time"};
constexpr const char* kUtilKeys[] = {"alpha",        "beta",           "amber_duration_s",
                                     "gstar_policy", "gstar_constant", "pressure"};
constexpr const char* kFixedSlotKeys[] = {"period_s", "amber_duration_s",
                                          "work_conserving", "pressure"};
constexpr const char* kFixedTimeKeys[] = {"green_duration_s", "amber_duration_s",
                                          "offset_s"};
constexpr const char* kOverrideKeys[] = {"node", "controller"};
constexpr const char* kNodeKeys[] = {"row", "col"};
constexpr const char* kMicroKeys[] = {"dt_s",
                                      "dedicated_turn_lanes",
                                      "control_interval_s",
                                      "sample_interval_s",
                                      "junction_crossing_s",
                                      "service_zone_m",
                                      "saturation_flow_vps",
                                      "insertion_speed_mps",
                                      "waiting_speed_threshold_mps",
                                      "approach_queue_threshold_mps",
                                      "congestion_queue_threshold_mps",
                                      "threads",
                                      "sensor",
                                      "vehicle"};
constexpr const char* kSensorModelKeys[] = {"detection_probability", "quantization",
                                            "dropout_probability"};
constexpr const char* kVehicleKeys[] = {"length_m", "min_gap_m", "accel_mps2",
                                        "decel_mps2", "tau_s",   "sigma"};
constexpr const char* kQueueKeys[] = {"step_s", "control_interval_s",
                                      "sample_interval_s", "threads"};
constexpr const char* kWatchKeys[] = {"row", "col", "side", "name"};
constexpr const char* kFaultsKeys[] = {"capacity", "sensors", "controllers"};
constexpr const char* kRoadRefKeys[] = {"row", "col", "side"};
constexpr const char* kCapacityFaultKeys[] = {"road", "start_s", "end_s",
                                              "capacity_factor"};
constexpr const char* kSensorFaultKeys[] = {"node", "start_s",  "end_s",
                                            "kind", "bias",     "noise_magnitude"};
constexpr const char* kControllerFaultKeys[] = {"node", "fail_s", "recover_s"};
constexpr const char* kGuardKeys[] = {"enabled", "policy", "interval_s"};
constexpr const char* kDetectorKeys[] = {
    "enabled",   "window_samples", "warmup_samples", "drift",      "threshold",
    "min_sigma", "min_links",      "fuse_window_s",  "cooldown_s", "adapt"};
constexpr const char* kShardKeys[] = {"count", "allow_oversubscribe"};
constexpr const char* kSurrogateKeys[] = {"enabled", "service_scale", "transit_scale",
                                          "capacity_scale", "profile"};

void check_keys(const json::Value& obj, std::span<const char* const> allowed,
                const std::string& path) {
  for (const json::Member& m : obj.members()) {
    bool known = false;
    for (const char* k : allowed) {
      if (m.first == k) {
        known = true;
        break;
      }
    }
    if (!known) fail(path.empty() ? m.first : path + "." + m.first, "unknown key");
  }
}

// --- Typed readers ----------------------------------------------------------

const json::Value& expect_object(const json::Value& v, const std::string& path) {
  if (!v.is_object()) {
    fail(path, std::string("expected an object, got ") + v.type_name());
  }
  return v;
}

const json::Value& expect_array(const json::Value& v, const std::string& path) {
  if (!v.is_array()) {
    fail(path, std::string("expected an array, got ") + v.type_name());
  }
  return v;
}

double read_double(const json::Value& v, const std::string& path) {
  if (!v.is_number()) {
    fail(path, std::string("expected a number, got ") + v.type_name());
  }
  try {
    return v.as_double();
  } catch (const std::out_of_range&) {
    fail(path, "number out of double range");
  }
}

int read_int(const json::Value& v, const std::string& path) {
  if (!v.is_number()) {
    fail(path, std::string("expected a number, got ") + v.type_name());
  }
  if (!v.is_integer_token()) fail(path, "must be an integer");
  try {
    const std::int64_t n = v.as_int64();
    if (n < std::numeric_limits<int>::min() || n > std::numeric_limits<int>::max()) {
      fail(path, "integer out of range");
    }
    return static_cast<int>(n);
  } catch (const std::out_of_range&) {
    fail(path, "integer out of range");
  }
}

std::uint64_t read_u64(const json::Value& v, const std::string& path) {
  if (!v.is_number()) {
    fail(path, std::string("expected a number, got ") + v.type_name());
  }
  if (!v.is_integer_token() || v.number_token()[0] == '-') {
    fail(path, "must be a non-negative integer");
  }
  try {
    return v.as_uint64();
  } catch (const std::out_of_range&) {
    fail(path, "must fit in 64 bits");
  }
}

bool read_bool(const json::Value& v, const std::string& path) {
  if (!v.is_bool()) {
    fail(path, std::string("expected a boolean, got ") + v.type_name());
  }
  return v.as_bool();
}

std::string read_string(const json::Value& v, const std::string& path) {
  if (!v.is_string()) {
    fail(path, std::string("expected a string, got ") + v.type_name());
  }
  return v.as_string();
}

// A time that may be infinite: a number, or the string "inf".
double read_time_or_inf(const json::Value& v, const std::string& path) {
  if (v.is_string()) {
    if (v.as_string() == "inf") return std::numeric_limits<double>::infinity();
    fail(path, "expected a number or \"inf\"");
  }
  return read_double(v, path);
}

// --- Enum tokens ------------------------------------------------------------

template <typename E>
struct EnumEntry {
  const char* token;
  E value;
};

template <typename E, std::size_t N>
E parse_enum(const json::Value& v, const EnumEntry<E> (&table)[N],
             const std::string& path) {
  const std::string s = read_string(v, path);
  for (const EnumEntry<E>& e : table) {
    if (s == e.token) return e.value;
  }
  std::string expected = "expected one of ";
  for (std::size_t i = 0; i < N; ++i) {
    expected += std::string("\"") + table[i].token + "\"";
    if (i + 1 < N) expected += ", ";
  }
  fail(path, expected);
}

template <typename E, std::size_t N>
const char* enum_token(E value, const EnumEntry<E> (&table)[N]) {
  for (const EnumEntry<E>& e : table) {
    if (e.value == value) return e.token;
  }
  return table[0].token;
}

constexpr EnumEntry<SimulatorKind> kSimulatorTokens[] = {
    {"micro", SimulatorKind::Micro}, {"queue", SimulatorKind::Queue}};
constexpr EnumEntry<net::Handedness> kHandednessTokens[] = {
    {"left", net::Handedness::LeftHand}, {"right", net::Handedness::RightHand}};
constexpr EnumEntry<traffic::PatternKind> kPatternTokens[] = {
    {"I", traffic::PatternKind::I},
    {"II", traffic::PatternKind::II},
    {"III", traffic::PatternKind::III},
    {"IV", traffic::PatternKind::IV},
    {"mixed", traffic::PatternKind::Mixed}};
constexpr EnumEntry<net::Side> kSideTokens[] = {{"north", net::Side::North},
                                                {"east", net::Side::East},
                                                {"south", net::Side::South},
                                                {"west", net::Side::West}};
constexpr EnumEntry<core::ControllerType> kControllerTypeTokens[] = {
    {"util", core::ControllerType::UtilBp},
    {"cap", core::ControllerType::CapBp},
    {"orig", core::ControllerType::OriginalBp},
    {"fixed", core::ControllerType::FixedTime}};
constexpr EnumEntry<core::GStarPolicy> kGStarTokens[] = {
    {"wstar_mu", core::GStarPolicy::WStarMu},
    {"zero", core::GStarPolicy::Zero},
    {"constant", core::GStarPolicy::Constant}};
constexpr EnumEntry<core::PressureKind> kPressureTokens[] = {
    {"identity", core::PressureKind::Identity},
    {"sqrt", core::PressureKind::Sqrt},
    {"quadratic", core::PressureKind::Quadratic},
    {"normalized", core::PressureKind::Normalized}};
constexpr EnumEntry<core::SensorFaultKind> kSensorFaultTokens[] = {
    {"dropout", core::SensorFaultKind::Dropout},
    {"stuck_at", core::SensorFaultKind::StuckAt},
    {"noise", core::SensorFaultKind::Noise}};
constexpr EnumEntry<GuardPolicy> kGuardPolicyTokens[] = {{"throw", GuardPolicy::Throw},
                                                         {"record", GuardPolicy::Record},
                                                         {"abort", GuardPolicy::Abort}};

// --- Section loaders --------------------------------------------------------
// Each loader starts from the field's default value, overlays present keys,
// then validates the *final* value — so defaults and explicit values pass
// through identical checks, and every message carries the field's full path.

void load_grid(const json::Value& v, net::GridConfig& grid, const std::string& path) {
  expect_object(v, path);
  check_keys(v, kGridKeys, path);
  if (const auto* f = v.find("rows")) grid.rows = read_int(*f, path + ".rows");
  if (const auto* f = v.find("cols")) grid.cols = read_int(*f, path + ".cols");
  if (const auto* f = v.find("road_length_m")) {
    grid.road_length_m = read_double(*f, path + ".road_length_m");
  }
  if (const auto* f = v.find("boundary_length_m")) {
    grid.boundary_length_m = read_double(*f, path + ".boundary_length_m");
  }
  if (const auto* f = v.find("speed_limit_mps")) {
    grid.speed_limit_mps = read_double(*f, path + ".speed_limit_mps");
  }
  if (const auto* f = v.find("capacity")) grid.capacity = read_int(*f, path + ".capacity");
  if (const auto* f = v.find("service_rate")) {
    grid.service_rate = read_double(*f, path + ".service_rate");
  }
  if (const auto* f = v.find("handedness")) {
    grid.handedness = parse_enum(*f, kHandednessTokens, path + ".handedness");
  }
  if (grid.rows < 1) fail(path + ".rows", "must be >= 1");
  if (grid.cols < 1) fail(path + ".cols", "must be >= 1");
  if (!(grid.road_length_m > 0.0)) fail(path + ".road_length_m", "must be > 0");
  if (!(grid.boundary_length_m > 0.0)) fail(path + ".boundary_length_m", "must be > 0");
  if (!(grid.speed_limit_mps > 0.0)) fail(path + ".speed_limit_mps", "must be > 0");
  if (grid.capacity < 1) fail(path + ".capacity", "must be >= 1");
  if (!(grid.service_rate > 0.0)) fail(path + ".service_rate", "must be > 0");
}

void load_turn_probs(const json::Value& v, traffic::TurningTable::Probabilities& probs,
                     const std::string& path) {
  expect_object(v, path);
  check_keys(v, kTurnProbKeys, path);
  if (const auto* f = v.find("right")) probs.right = read_double(*f, path + ".right");
  if (const auto* f = v.find("left")) probs.left = read_double(*f, path + ".left");
  if (!(probs.right >= 0.0 && probs.right <= 1.0)) {
    fail(path + ".right", "must be in [0, 1]");
  }
  if (!(probs.left >= 0.0 && probs.left <= 1.0)) fail(path + ".left", "must be in [0, 1]");
  if (probs.right + probs.left > 1.0) fail(path, "right + left must not exceed 1");
}

void load_demand(const json::Value& v, traffic::DemandConfig& demand,
                 const std::string& path) {
  expect_object(v, path);
  check_keys(v, kDemandKeys, path);
  if (const auto* f = v.find("pattern")) {
    demand.pattern = parse_enum(*f, kPatternTokens, path + ".pattern");
  }
  if (const auto* f = v.find("interarrival_scale")) {
    demand.interarrival_scale = read_double(*f, path + ".interarrival_scale");
  }
  if (!(demand.interarrival_scale > 0.0)) {
    fail(path + ".interarrival_scale", "must be > 0");
  }
  if (const auto* f = v.find("turning")) {
    const std::string tpath = path + ".turning";
    expect_object(*f, tpath);
    check_keys(*f, kTurningKeys, tpath);
    for (const EnumEntry<net::Side>& side : kSideTokens) {
      if (const auto* s = f->find(side.token)) {
        load_turn_probs(
            *s, demand.turning.by_side[static_cast<std::size_t>(side.value)],
            tpath + "." + side.token);
      }
    }
  }
  if (const auto* f = v.find("segments")) {
    const std::string spath = path + ".segments";
    expect_array(*f, spath);
    std::vector<traffic::ScheduleSegment> segments;
    for (std::size_t i = 0; i < f->items().size(); ++i) {
      const std::string epath = spath + "[" + std::to_string(i) + "]";
      const json::Value& e = f->items()[i];
      expect_object(e, epath);
      check_keys(e, kSegmentKeys, epath);
      traffic::ScheduleSegment seg;
      if (const auto* s = e.find("duration_s")) {
        seg.duration_s = read_double(*s, epath + ".duration_s");
      }
      if (const auto* s = e.find("pattern")) {
        seg.pattern = parse_enum(*s, kPatternTokens, epath + ".pattern");
      }
      if (const auto* s = e.find("interarrival_scale")) {
        seg.interarrival_scale = read_double(*s, epath + ".interarrival_scale");
      }
      if (!(seg.duration_s > 0.0)) fail(epath + ".duration_s", "must be > 0");
      if (!(seg.interarrival_scale > 0.0)) {
        fail(epath + ".interarrival_scale", "must be > 0");
      }
      segments.push_back(seg);
    }
    // An empty array means "no schedule" — identical to the field being
    // absent, so dumps of schedule-free configs round-trip.
    if (!segments.empty()) demand.schedule = traffic::DemandSchedule(std::move(segments));
  }
}

void load_controller_spec(const json::Value& v, core::ControllerSpec& spec,
                          const std::string& path) {
  expect_object(v, path);
  check_keys(v, kControllerKeys, path);
  if (const auto* f = v.find("type")) {
    spec.type = parse_enum(*f, kControllerTypeTokens, path + ".type");
  }
  if (const auto* f = v.find("util")) {
    const std::string upath = path + ".util";
    expect_object(*f, upath);
    check_keys(*f, kUtilKeys, upath);
    core::UtilBpConfig& util = spec.util;
    if (const auto* s = f->find("alpha")) util.alpha = read_double(*s, upath + ".alpha");
    if (const auto* s = f->find("beta")) util.beta = read_double(*s, upath + ".beta");
    if (const auto* s = f->find("amber_duration_s")) {
      util.amber_duration_s = read_double(*s, upath + ".amber_duration_s");
    }
    if (const auto* s = f->find("gstar_policy")) {
      util.gstar_policy = parse_enum(*s, kGStarTokens, upath + ".gstar_policy");
    }
    if (const auto* s = f->find("gstar_constant")) {
      util.gstar_constant = read_double(*s, upath + ".gstar_constant");
    }
    if (const auto* s = f->find("pressure")) {
      util.pressure_kind = parse_enum(*s, kPressureTokens, upath + ".pressure");
    }
    if (!(util.alpha < 0.0)) fail(upath + ".alpha", "must be < 0");
    if (!(util.beta < 0.0)) fail(upath + ".beta", "must be < 0");
    if (!(util.amber_duration_s >= 0.0)) fail(upath + ".amber_duration_s", "must be >= 0");
  }
  if (const auto* f = v.find("fixed_slot")) {
    const std::string spath = path + ".fixed_slot";
    expect_object(*f, spath);
    check_keys(*f, kFixedSlotKeys, spath);
    core::FixedSlotBpConfig& slot = spec.fixed_slot;
    if (const auto* s = f->find("period_s")) {
      slot.period_s = read_double(*s, spath + ".period_s");
    }
    if (const auto* s = f->find("amber_duration_s")) {
      slot.amber_duration_s = read_double(*s, spath + ".amber_duration_s");
    }
    if (const auto* s = f->find("work_conserving")) {
      slot.work_conserving = read_bool(*s, spath + ".work_conserving");
    }
    if (const auto* s = f->find("pressure")) {
      slot.pressure_kind = parse_enum(*s, kPressureTokens, spath + ".pressure");
    }
    if (!(slot.period_s > 0.0)) fail(spath + ".period_s", "must be > 0");
    if (!(slot.amber_duration_s >= 0.0 && slot.amber_duration_s < slot.period_s)) {
      fail(spath + ".amber_duration_s", "must be in [0, period_s)");
    }
  }
  if (const auto* f = v.find("fixed_time")) {
    const std::string tpath = path + ".fixed_time";
    expect_object(*f, tpath);
    check_keys(*f, kFixedTimeKeys, tpath);
    core::FixedTimeConfig& fixed = spec.fixed_time;
    if (const auto* s = f->find("green_duration_s")) {
      fixed.green_duration_s = read_double(*s, tpath + ".green_duration_s");
    }
    if (const auto* s = f->find("amber_duration_s")) {
      fixed.amber_duration_s = read_double(*s, tpath + ".amber_duration_s");
    }
    if (const auto* s = f->find("offset_s")) {
      fixed.offset_s = read_double(*s, tpath + ".offset_s");
    }
    if (!(fixed.green_duration_s > 0.0)) fail(tpath + ".green_duration_s", "must be > 0");
    if (!(fixed.amber_duration_s >= 0.0)) fail(tpath + ".amber_duration_s", "must be >= 0");
    if (!(fixed.offset_s >= 0.0)) fail(tpath + ".offset_s", "must be >= 0");
  }
}

GridNodeRef load_node(const json::Value& v, const std::string& path) {
  expect_object(v, path);
  check_keys(v, kNodeKeys, path);
  GridNodeRef node;
  if (const auto* f = v.find("row")) node.row = read_int(*f, path + ".row");
  if (const auto* f = v.find("col")) node.col = read_int(*f, path + ".col");
  if (node.row < 0) fail(path + ".row", "must be >= 0");
  if (node.col < 0) fail(path + ".col", "must be >= 0");
  return node;
}

void load_micro(const json::Value& v, microsim::MicroSimConfig& micro,
                const std::string& path) {
  expect_object(v, path);
  check_keys(v, kMicroKeys, path);
  if (const auto* f = v.find("dt_s")) micro.dt_s = read_double(*f, path + ".dt_s");
  if (const auto* f = v.find("dedicated_turn_lanes")) {
    micro.dedicated_turn_lanes = read_bool(*f, path + ".dedicated_turn_lanes");
  }
  if (const auto* f = v.find("control_interval_s")) {
    micro.control_interval_s = read_double(*f, path + ".control_interval_s");
  }
  if (const auto* f = v.find("sample_interval_s")) {
    micro.sample_interval_s = read_double(*f, path + ".sample_interval_s");
  }
  if (const auto* f = v.find("junction_crossing_s")) {
    micro.junction_crossing_s = read_double(*f, path + ".junction_crossing_s");
  }
  if (const auto* f = v.find("service_zone_m")) {
    micro.service_zone_m = read_double(*f, path + ".service_zone_m");
  }
  if (const auto* f = v.find("saturation_flow_vps")) {
    micro.saturation_flow_vps = read_double(*f, path + ".saturation_flow_vps");
  }
  if (const auto* f = v.find("insertion_speed_mps")) {
    micro.insertion_speed_mps = read_double(*f, path + ".insertion_speed_mps");
  }
  if (const auto* f = v.find("waiting_speed_threshold_mps")) {
    micro.waiting_speed_threshold_mps =
        read_double(*f, path + ".waiting_speed_threshold_mps");
  }
  if (const auto* f = v.find("approach_queue_threshold_mps")) {
    micro.approach_queue_threshold_mps =
        read_double(*f, path + ".approach_queue_threshold_mps");
  }
  if (const auto* f = v.find("congestion_queue_threshold_mps")) {
    micro.congestion_queue_threshold_mps =
        read_double(*f, path + ".congestion_queue_threshold_mps");
  }
  if (const auto* f = v.find("threads")) micro.threads = read_int(*f, path + ".threads");
  if (const auto* f = v.find("sensor")) {
    const std::string spath = path + ".sensor";
    expect_object(*f, spath);
    check_keys(*f, kSensorModelKeys, spath);
    core::SensorModel& sensor = micro.sensor;
    if (const auto* s = f->find("detection_probability")) {
      sensor.detection_probability = read_double(*s, spath + ".detection_probability");
    }
    if (const auto* s = f->find("quantization")) {
      sensor.quantization = read_int(*s, spath + ".quantization");
    }
    if (const auto* s = f->find("dropout_probability")) {
      sensor.dropout_probability = read_double(*s, spath + ".dropout_probability");
    }
    if (!(sensor.detection_probability >= 0.0 && sensor.detection_probability <= 1.0)) {
      fail(spath + ".detection_probability", "must be in [0, 1]");
    }
    if (sensor.quantization < 1) fail(spath + ".quantization", "must be >= 1");
    if (!(sensor.dropout_probability >= 0.0 && sensor.dropout_probability <= 1.0)) {
      fail(spath + ".dropout_probability", "must be in [0, 1]");
    }
  }
  if (const auto* f = v.find("vehicle")) {
    const std::string vpath = path + ".vehicle";
    expect_object(*f, vpath);
    check_keys(*f, kVehicleKeys, vpath);
    microsim::VehicleParams& veh = micro.vehicle;
    if (const auto* s = f->find("length_m")) {
      veh.length_m = read_double(*s, vpath + ".length_m");
    }
    if (const auto* s = f->find("min_gap_m")) {
      veh.min_gap_m = read_double(*s, vpath + ".min_gap_m");
    }
    if (const auto* s = f->find("accel_mps2")) {
      veh.accel_mps2 = read_double(*s, vpath + ".accel_mps2");
    }
    if (const auto* s = f->find("decel_mps2")) {
      veh.decel_mps2 = read_double(*s, vpath + ".decel_mps2");
    }
    if (const auto* s = f->find("tau_s")) veh.tau_s = read_double(*s, vpath + ".tau_s");
    if (const auto* s = f->find("sigma")) veh.sigma = read_double(*s, vpath + ".sigma");
    if (!(veh.length_m > 0.0)) fail(vpath + ".length_m", "must be > 0");
    if (!(veh.min_gap_m >= 0.0)) fail(vpath + ".min_gap_m", "must be >= 0");
    if (!(veh.accel_mps2 > 0.0)) fail(vpath + ".accel_mps2", "must be > 0");
    if (!(veh.decel_mps2 > 0.0)) fail(vpath + ".decel_mps2", "must be > 0");
    if (!(veh.tau_s > 0.0)) fail(vpath + ".tau_s", "must be > 0");
    if (!(veh.sigma >= 0.0 && veh.sigma <= 1.0)) fail(vpath + ".sigma", "must be in [0, 1]");
  }
  if (!(micro.dt_s > 0.0)) fail(path + ".dt_s", "must be > 0");
  if (!(micro.control_interval_s >= micro.dt_s)) {
    fail(path + ".control_interval_s", "must be >= dt_s");
  }
  if (!(micro.sample_interval_s > 0.0)) fail(path + ".sample_interval_s", "must be > 0");
  if (!(micro.junction_crossing_s >= 0.0)) {
    fail(path + ".junction_crossing_s", "must be >= 0");
  }
  if (!(micro.service_zone_m >= 0.0)) fail(path + ".service_zone_m", "must be >= 0");
  if (!(micro.saturation_flow_vps >= 0.0)) {
    fail(path + ".saturation_flow_vps", "must be >= 0");
  }
  if (!(micro.insertion_speed_mps > 0.0)) {
    fail(path + ".insertion_speed_mps", "must be > 0");
  }
  if (!(micro.waiting_speed_threshold_mps >= 0.0)) {
    fail(path + ".waiting_speed_threshold_mps", "must be >= 0");
  }
  if (!(micro.approach_queue_threshold_mps >= 0.0)) {
    fail(path + ".approach_queue_threshold_mps", "must be >= 0");
  }
  if (!(micro.congestion_queue_threshold_mps >= 0.0)) {
    fail(path + ".congestion_queue_threshold_mps", "must be >= 0");
  }
  if (micro.threads < 1 || micro.threads > 256) {
    fail(path + ".threads", "must be in [1, 256]");
  }
}

void load_queue(const json::Value& v, queuesim::QueueSimConfig& queue,
                const std::string& path) {
  expect_object(v, path);
  check_keys(v, kQueueKeys, path);
  if (const auto* f = v.find("step_s")) queue.step_s = read_double(*f, path + ".step_s");
  if (const auto* f = v.find("control_interval_s")) {
    queue.control_interval_s = read_double(*f, path + ".control_interval_s");
  }
  if (const auto* f = v.find("sample_interval_s")) {
    queue.sample_interval_s = read_double(*f, path + ".sample_interval_s");
  }
  // Retired: the queue tick is serial. Checked as before, then ignored.
  int threads = 1;
  if (const auto* f = v.find("threads")) threads = read_int(*f, path + ".threads");
  if (!(queue.step_s > 0.0)) fail(path + ".step_s", "must be > 0");
  if (!(queue.control_interval_s >= queue.step_s)) {
    fail(path + ".control_interval_s", "must be >= step_s");
  }
  if (!(queue.sample_interval_s > 0.0)) fail(path + ".sample_interval_s", "must be > 0");
  if (threads < 1 || threads > 256) fail(path + ".threads", "must be in [1, 256]");
}

void load_watches(const json::Value& v, std::vector<WatchSpec>& watches,
                  const std::string& path) {
  expect_array(v, path);
  for (std::size_t i = 0; i < v.items().size(); ++i) {
    const std::string epath = path + "[" + std::to_string(i) + "]";
    const json::Value& e = v.items()[i];
    expect_object(e, epath);
    check_keys(e, kWatchKeys, epath);
    WatchSpec w;
    if (const auto* f = e.find("row")) w.row = read_int(*f, epath + ".row");
    if (const auto* f = e.find("col")) w.col = read_int(*f, epath + ".col");
    if (const auto* f = e.find("side")) {
      w.side = parse_enum(*f, kSideTokens, epath + ".side");
    }
    if (const auto* f = e.find("name")) w.name = read_string(*f, epath + ".name");
    if (w.row < 0) fail(epath + ".row", "must be >= 0");
    if (w.col < 0) fail(epath + ".col", "must be >= 0");
    watches.push_back(std::move(w));
  }
}

void load_faults(const json::Value& v, FaultSchedule& faults, const std::string& path) {
  expect_object(v, path);
  check_keys(v, kFaultsKeys, path);
  if (const auto* f = v.find("capacity")) {
    const std::string cpath = path + ".capacity";
    expect_array(*f, cpath);
    for (std::size_t i = 0; i < f->items().size(); ++i) {
      const std::string epath = cpath + "[" + std::to_string(i) + "]";
      const json::Value& e = f->items()[i];
      expect_object(e, epath);
      check_keys(e, kCapacityFaultKeys, epath);
      CapacityFault fault;
      if (const auto* s = e.find("road")) {
        const std::string rpath = epath + ".road";
        expect_object(*s, rpath);
        check_keys(*s, kRoadRefKeys, rpath);
        if (const auto* r = s->find("row")) fault.road.row = read_int(*r, rpath + ".row");
        if (const auto* r = s->find("col")) fault.road.col = read_int(*r, rpath + ".col");
        if (const auto* r = s->find("side")) {
          fault.road.side = parse_enum(*r, kSideTokens, rpath + ".side");
        }
        if (fault.road.row < 0) fail(rpath + ".row", "must be >= 0");
        if (fault.road.col < 0) fail(rpath + ".col", "must be >= 0");
      }
      if (const auto* s = e.find("start_s")) {
        fault.start_s = read_double(*s, epath + ".start_s");
      }
      if (const auto* s = e.find("end_s")) {
        fault.end_s = read_time_or_inf(*s, epath + ".end_s");
      }
      if (const auto* s = e.find("capacity_factor")) {
        fault.capacity_factor = read_double(*s, epath + ".capacity_factor");
      }
      if (!(fault.start_s >= 0.0)) fail(epath + ".start_s", "must be >= 0");
      if (!(fault.end_s > fault.start_s)) fail(epath + ".end_s", "must exceed start_s");
      if (!(fault.capacity_factor >= 0.0 && fault.capacity_factor <= 1.0)) {
        fail(epath + ".capacity_factor", "must be in [0, 1]");
      }
      faults.capacity.push_back(fault);
    }
  }
  if (const auto* f = v.find("sensors")) {
    const std::string spath = path + ".sensors";
    expect_array(*f, spath);
    for (std::size_t i = 0; i < f->items().size(); ++i) {
      const std::string epath = spath + "[" + std::to_string(i) + "]";
      const json::Value& e = f->items()[i];
      expect_object(e, epath);
      check_keys(e, kSensorFaultKeys, epath);
      SensorFault fault;
      if (const auto* s = e.find("node")) fault.node = load_node(*s, epath + ".node");
      if (const auto* s = e.find("start_s")) {
        fault.start_s = read_double(*s, epath + ".start_s");
      }
      if (const auto* s = e.find("end_s")) {
        fault.end_s = read_time_or_inf(*s, epath + ".end_s");
      }
      if (const auto* s = e.find("kind")) {
        fault.kind = parse_enum(*s, kSensorFaultTokens, epath + ".kind");
      }
      if (const auto* s = e.find("bias")) fault.bias = read_int(*s, epath + ".bias");
      if (const auto* s = e.find("noise_magnitude")) {
        fault.noise_magnitude = read_int(*s, epath + ".noise_magnitude");
      }
      if (!(fault.start_s >= 0.0)) fail(epath + ".start_s", "must be >= 0");
      if (!(fault.end_s > fault.start_s)) fail(epath + ".end_s", "must exceed start_s");
      if (fault.noise_magnitude < 0) fail(epath + ".noise_magnitude", "must be >= 0");
      faults.sensors.push_back(fault);
    }
    // Same rule fault_schedule.cpp enforces, with the file's field paths.
    for (std::size_t i = 0; i < faults.sensors.size(); ++i) {
      for (std::size_t j = i + 1; j < faults.sensors.size(); ++j) {
        const SensorFault& a = faults.sensors[i];
        const SensorFault& b = faults.sensors[j];
        if (a.node.row != b.node.row || a.node.col != b.node.col) continue;
        if (a.start_s < b.end_s && b.start_s < a.end_s) {
          fail(spath + "[" + std::to_string(j) + "]",
               "overlaps " + spath + "[" + std::to_string(i) + "] at junction (" +
                   std::to_string(a.node.row) + ", " + std::to_string(a.node.col) + ")");
        }
      }
    }
  }
  if (const auto* f = v.find("controllers")) {
    const std::string cpath = path + ".controllers";
    expect_array(*f, cpath);
    for (std::size_t i = 0; i < f->items().size(); ++i) {
      const std::string epath = cpath + "[" + std::to_string(i) + "]";
      const json::Value& e = f->items()[i];
      expect_object(e, epath);
      check_keys(e, kControllerFaultKeys, epath);
      ControllerFault fault;
      if (const auto* s = e.find("node")) fault.node = load_node(*s, epath + ".node");
      if (const auto* s = e.find("fail_s")) {
        fault.fail_s = read_double(*s, epath + ".fail_s");
      }
      if (const auto* s = e.find("recover_s")) {
        fault.recover_s = read_time_or_inf(*s, epath + ".recover_s");
      }
      if (!(fault.fail_s >= 0.0)) fail(epath + ".fail_s", "must be >= 0");
      if (!(fault.recover_s > fault.fail_s)) {
        fail(epath + ".recover_s", "must exceed fail_s");
      }
      faults.controllers.push_back(fault);
    }
  }
}

void load_guard(const json::Value& v, GuardConfig& guard, const std::string& path) {
  expect_object(v, path);
  check_keys(v, kGuardKeys, path);
  if (const auto* f = v.find("enabled")) guard.enabled = read_bool(*f, path + ".enabled");
  if (const auto* f = v.find("policy")) {
    guard.policy = parse_enum(*f, kGuardPolicyTokens, path + ".policy");
  }
  if (const auto* f = v.find("interval_s")) {
    guard.interval_s = read_double(*f, path + ".interval_s");
  }
  if (!(guard.interval_s > 0.0)) fail(path + ".interval_s", "must be > 0");
}

void load_detector(const json::Value& v, detect::DetectorConfig& det,
                   const std::string& path) {
  expect_object(v, path);
  check_keys(v, kDetectorKeys, path);
  if (const auto* f = v.find("enabled")) det.enabled = read_bool(*f, path + ".enabled");
  if (const auto* f = v.find("window_samples")) {
    det.window_samples = read_int(*f, path + ".window_samples");
  }
  if (const auto* f = v.find("warmup_samples")) {
    det.warmup_samples = read_int(*f, path + ".warmup_samples");
  }
  if (const auto* f = v.find("drift")) det.drift = read_double(*f, path + ".drift");
  if (const auto* f = v.find("threshold")) {
    det.threshold = read_double(*f, path + ".threshold");
  }
  if (const auto* f = v.find("min_sigma")) {
    det.min_sigma = read_double(*f, path + ".min_sigma");
  }
  if (const auto* f = v.find("min_links")) {
    det.min_links = read_int(*f, path + ".min_links");
  }
  if (const auto* f = v.find("fuse_window_s")) {
    det.fuse_window_s = read_double(*f, path + ".fuse_window_s");
  }
  if (const auto* f = v.find("cooldown_s")) {
    det.cooldown_s = read_double(*f, path + ".cooldown_s");
  }
  if (const auto* f = v.find("adapt")) det.adapt = read_bool(*f, path + ".adapt");
  if (det.window_samples < 1) fail(path + ".window_samples", "must be >= 1");
  if (det.warmup_samples < 1) fail(path + ".warmup_samples", "must be >= 1");
  if (!(det.drift >= 0.0)) fail(path + ".drift", "must be >= 0");
  if (!(det.threshold > 0.0)) fail(path + ".threshold", "must be > 0");
  if (!(det.min_sigma > 0.0)) fail(path + ".min_sigma", "must be > 0");
  if (det.min_links < 1) fail(path + ".min_links", "must be >= 1");
  if (!(det.fuse_window_s > 0.0)) fail(path + ".fuse_window_s", "must be > 0");
  if (!(det.cooldown_s >= 0.0)) fail(path + ".cooldown_s", "must be >= 0");
}

// Retired "shard" section (schema versions 3-4, multi-process sharding).
// Sharded runs were bit-identical to monolithic ones, so the section is
// range-checked with its original messages, then ignored.
void check_retired_shard(const json::Value& v, const std::string& path) {
  expect_object(v, path);
  check_keys(v, kShardKeys, path);
  int count = 1;
  if (const auto* f = v.find("count")) count = read_int(*f, path + ".count");
  if (const auto* f = v.find("allow_oversubscribe")) {
    (void)read_bool(*f, path + ".allow_oversubscribe");
  }
  if (count < 1) fail(path + ".count", "must be >= 1");
  if (count > 256) fail(path + ".count", "must be <= 256");
}

void load_surrogate(const json::Value& v, SurrogateConfig& surrogate,
                    const std::string& path) {
  expect_object(v, path);
  check_keys(v, kSurrogateKeys, path);
  if (const auto* f = v.find("enabled")) {
    surrogate.enabled = read_bool(*f, path + ".enabled");
  }
  if (const auto* f = v.find("service_scale")) {
    surrogate.service_scale = read_double(*f, path + ".service_scale");
  }
  if (const auto* f = v.find("transit_scale")) {
    surrogate.transit_scale = read_double(*f, path + ".transit_scale");
  }
  if (const auto* f = v.find("capacity_scale")) {
    surrogate.capacity_scale = read_double(*f, path + ".capacity_scale");
  }
  if (const auto* f = v.find("profile")) {
    surrogate.profile = read_string(*f, path + ".profile");
  }
  if (!(surrogate.service_scale > 0.0)) fail(path + ".service_scale", "must be > 0");
  if (!(surrogate.transit_scale > 0.0)) fail(path + ".transit_scale", "must be > 0");
  if (!(surrogate.capacity_scale > 0.0)) fail(path + ".capacity_scale", "must be > 0");
}

// --- Section dumpers --------------------------------------------------------

json::Value dump_node(const GridNodeRef& node) {
  json::Value v = json::Value::object();
  v.set("row", json::Value::number(node.row));
  v.set("col", json::Value::number(node.col));
  return v;
}

json::Value dump_time_or_inf(double t) {
  if (std::isinf(t)) return json::Value::string("inf");
  return json::Value::number(t);
}

json::Value dump_controller_spec(const core::ControllerSpec& spec,
                                 const std::string& path) {
  if (spec.util.pressure) {
    fail(path + ".util.pressure",
         "a custom pressure function cannot be serialized; use the pressure preset");
  }
  if (spec.fixed_slot.pressure) {
    fail(path + ".fixed_slot.pressure",
         "a custom pressure function cannot be serialized; use the pressure preset");
  }
  json::Value v = json::Value::object();
  v.set("type", json::Value::string(enum_token(spec.type, kControllerTypeTokens)));
  json::Value util = json::Value::object();
  util.set("alpha", json::Value::number(spec.util.alpha));
  util.set("beta", json::Value::number(spec.util.beta));
  util.set("amber_duration_s", json::Value::number(spec.util.amber_duration_s));
  util.set("gstar_policy",
           json::Value::string(enum_token(spec.util.gstar_policy, kGStarTokens)));
  util.set("gstar_constant", json::Value::number(spec.util.gstar_constant));
  util.set("pressure",
           json::Value::string(enum_token(spec.util.pressure_kind, kPressureTokens)));
  v.set("util", std::move(util));
  json::Value slot = json::Value::object();
  slot.set("period_s", json::Value::number(spec.fixed_slot.period_s));
  slot.set("amber_duration_s", json::Value::number(spec.fixed_slot.amber_duration_s));
  slot.set("work_conserving", json::Value::boolean(spec.fixed_slot.work_conserving));
  slot.set("pressure", json::Value::string(
                           enum_token(spec.fixed_slot.pressure_kind, kPressureTokens)));
  v.set("fixed_slot", std::move(slot));
  json::Value fixed = json::Value::object();
  fixed.set("green_duration_s", json::Value::number(spec.fixed_time.green_duration_s));
  fixed.set("amber_duration_s", json::Value::number(spec.fixed_time.amber_duration_s));
  fixed.set("offset_s", json::Value::number(spec.fixed_time.offset_s));
  v.set("fixed_time", std::move(fixed));
  return v;
}

}  // namespace

ScenarioConfig load_scenario(std::string_view json_text) {
  const json::Value doc = json::parse(json_text);
  if (!doc.is_object()) {
    fail("$", std::string("expected an object, got ") + doc.type_name());
  }
  check_keys(doc, kTopKeys, "");

  const json::Value* version = doc.find("version");
  if (version == nullptr) fail("version", "required field is missing");
  const int v = read_int(*version, "version");
  if (v < kScenarioSchemaVersionMin || v > kScenarioSchemaVersion) {
    fail("version", "unsupported schema version " + std::to_string(v) +
                        " (this build reads versions " +
                        std::to_string(kScenarioSchemaVersionMin) + " through " +
                        std::to_string(kScenarioSchemaVersion) + ")");
  }

  ScenarioConfig cfg;
  if (const auto* f = doc.find("name")) cfg.name = read_string(*f, "name");
  if (const auto* f = doc.find("description")) {
    cfg.description = read_string(*f, "description");
  }
  if (const auto* f = doc.find("simulator")) {
    cfg.simulator = parse_enum(*f, kSimulatorTokens, "simulator");
  }
  if (const auto* f = doc.find("duration_s")) {
    cfg.duration_s = read_double(*f, "duration_s");
  }
  if (!(cfg.duration_s > 0.0)) fail("duration_s", "must be > 0");
  if (const auto* f = doc.find("seed")) cfg.seed = read_u64(*f, "seed");
  if (const auto* f = doc.find("grid")) load_grid(*f, cfg.grid, "grid");
  if (const auto* f = doc.find("demand")) load_demand(*f, cfg.demand, "demand");
  if (const auto* f = doc.find("controller")) {
    load_controller_spec(*f, cfg.controller, "controller");
  }
  if (const auto* f = doc.find("controller_overrides")) {
    expect_array(*f, "controller_overrides");
    for (std::size_t i = 0; i < f->items().size(); ++i) {
      const std::string epath = "controller_overrides[" + std::to_string(i) + "]";
      const json::Value& e = f->items()[i];
      expect_object(e, epath);
      check_keys(e, kOverrideKeys, epath);
      ControllerOverride o;
      if (const auto* s = e.find("node")) o.node = load_node(*s, epath + ".node");
      // Overrides start from the run-wide spec, not from factory defaults:
      // a corridor override that only sets fixed_time.offset_s keeps the
      // scenario's amber/green timings.
      o.spec = cfg.controller;
      if (const auto* s = e.find("controller")) {
        load_controller_spec(*s, o.spec, epath + ".controller");
      }
      for (const ControllerOverride& prev : cfg.controller_overrides) {
        if (prev.node.row == o.node.row && prev.node.col == o.node.col) {
          fail(epath, "duplicate override for junction (" + std::to_string(o.node.row) +
                          ", " + std::to_string(o.node.col) + ")");
        }
      }
      cfg.controller_overrides.push_back(std::move(o));
    }
  }
  if (const auto* f = doc.find("micro")) load_micro(*f, cfg.micro, "micro");
  if (const auto* f = doc.find("queue")) load_queue(*f, cfg.queue, "queue");
  if (const auto* f = doc.find("watches")) load_watches(*f, cfg.watches, "watches");
  if (const auto* f = doc.find("faults")) load_faults(*f, cfg.faults, "faults");
  if (const auto* f = doc.find("guard")) load_guard(*f, cfg.guard, "guard");
  if (const auto* f = doc.find("detector")) load_detector(*f, cfg.detector, "detector");
  if (const auto* f = doc.find("shard")) check_retired_shard(*f, "shard");
  if (const auto* f = doc.find("surrogate")) {
    load_surrogate(*f, cfg.surrogate, "surrogate");
  }
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
  json::Value doc = json::Value::object();
  doc.set("version", json::Value::number(kScenarioSchemaVersion));
  doc.set("name", json::Value::string(config.name));
  doc.set("description", json::Value::string(config.description));
  doc.set("simulator",
          json::Value::string(enum_token(config.simulator, kSimulatorTokens)));
  doc.set("duration_s", json::Value::number(config.duration_s));
  doc.set("seed", json::Value::number(config.seed));

  json::Value grid = json::Value::object();
  grid.set("rows", json::Value::number(config.grid.rows));
  grid.set("cols", json::Value::number(config.grid.cols));
  grid.set("road_length_m", json::Value::number(config.grid.road_length_m));
  grid.set("boundary_length_m", json::Value::number(config.grid.boundary_length_m));
  grid.set("speed_limit_mps", json::Value::number(config.grid.speed_limit_mps));
  grid.set("capacity", json::Value::number(config.grid.capacity));
  grid.set("service_rate", json::Value::number(config.grid.service_rate));
  grid.set("handedness",
           json::Value::string(enum_token(config.grid.handedness, kHandednessTokens)));
  doc.set("grid", std::move(grid));

  json::Value demand = json::Value::object();
  demand.set("pattern",
             json::Value::string(enum_token(config.demand.pattern, kPatternTokens)));
  demand.set("interarrival_scale",
             json::Value::number(config.demand.interarrival_scale));
  json::Value turning = json::Value::object();
  for (const EnumEntry<net::Side>& side : kSideTokens) {
    const traffic::TurningTable::Probabilities& probs =
        config.demand.turning.by_side[static_cast<std::size_t>(side.value)];
    json::Value p = json::Value::object();
    p.set("right", json::Value::number(probs.right));
    p.set("left", json::Value::number(probs.left));
    turning.set(side.token, std::move(p));
  }
  demand.set("turning", std::move(turning));
  json::Value segments = json::Value::array();
  for (const traffic::ScheduleSegment& seg : config.demand.schedule.segments()) {
    json::Value s = json::Value::object();
    s.set("duration_s", json::Value::number(seg.duration_s));
    s.set("pattern", json::Value::string(enum_token(seg.pattern, kPatternTokens)));
    s.set("interarrival_scale", json::Value::number(seg.interarrival_scale));
    segments.push_back(std::move(s));
  }
  demand.set("segments", std::move(segments));
  doc.set("demand", std::move(demand));

  doc.set("controller", dump_controller_spec(config.controller, "controller"));

  json::Value overrides = json::Value::array();
  for (std::size_t i = 0; i < config.controller_overrides.size(); ++i) {
    const ControllerOverride& o = config.controller_overrides[i];
    json::Value e = json::Value::object();
    e.set("node", dump_node(o.node));
    e.set("controller",
          dump_controller_spec(
              o.spec, "controller_overrides[" + std::to_string(i) + "].controller"));
    overrides.push_back(std::move(e));
  }
  doc.set("controller_overrides", std::move(overrides));

  json::Value micro = json::Value::object();
  micro.set("dt_s", json::Value::number(config.micro.dt_s));
  micro.set("dedicated_turn_lanes",
            json::Value::boolean(config.micro.dedicated_turn_lanes));
  micro.set("control_interval_s", json::Value::number(config.micro.control_interval_s));
  micro.set("sample_interval_s", json::Value::number(config.micro.sample_interval_s));
  micro.set("junction_crossing_s",
            json::Value::number(config.micro.junction_crossing_s));
  micro.set("service_zone_m", json::Value::number(config.micro.service_zone_m));
  micro.set("saturation_flow_vps",
            json::Value::number(config.micro.saturation_flow_vps));
  micro.set("insertion_speed_mps",
            json::Value::number(config.micro.insertion_speed_mps));
  micro.set("waiting_speed_threshold_mps",
            json::Value::number(config.micro.waiting_speed_threshold_mps));
  micro.set("approach_queue_threshold_mps",
            json::Value::number(config.micro.approach_queue_threshold_mps));
  micro.set("congestion_queue_threshold_mps",
            json::Value::number(config.micro.congestion_queue_threshold_mps));
  micro.set("threads", json::Value::number(config.micro.threads));
  json::Value sensor = json::Value::object();
  sensor.set("detection_probability",
             json::Value::number(config.micro.sensor.detection_probability));
  sensor.set("quantization", json::Value::number(config.micro.sensor.quantization));
  sensor.set("dropout_probability",
             json::Value::number(config.micro.sensor.dropout_probability));
  micro.set("sensor", std::move(sensor));
  json::Value vehicle = json::Value::object();
  vehicle.set("length_m", json::Value::number(config.micro.vehicle.length_m));
  vehicle.set("min_gap_m", json::Value::number(config.micro.vehicle.min_gap_m));
  vehicle.set("accel_mps2", json::Value::number(config.micro.vehicle.accel_mps2));
  vehicle.set("decel_mps2", json::Value::number(config.micro.vehicle.decel_mps2));
  vehicle.set("tau_s", json::Value::number(config.micro.vehicle.tau_s));
  vehicle.set("sigma", json::Value::number(config.micro.vehicle.sigma));
  micro.set("vehicle", std::move(vehicle));
  doc.set("micro", std::move(micro));

  json::Value queue = json::Value::object();
  queue.set("step_s", json::Value::number(config.queue.step_s));
  queue.set("control_interval_s", json::Value::number(config.queue.control_interval_s));
  queue.set("sample_interval_s", json::Value::number(config.queue.sample_interval_s));
  doc.set("queue", std::move(queue));

  json::Value watches = json::Value::array();
  for (const WatchSpec& w : config.watches) {
    json::Value e = json::Value::object();
    e.set("row", json::Value::number(w.row));
    e.set("col", json::Value::number(w.col));
    e.set("side", json::Value::string(enum_token(w.side, kSideTokens)));
    e.set("name", json::Value::string(w.name));
    watches.push_back(std::move(e));
  }
  doc.set("watches", std::move(watches));

  json::Value faults = json::Value::object();
  json::Value capacity = json::Value::array();
  for (const CapacityFault& f : config.faults.capacity) {
    json::Value e = json::Value::object();
    json::Value road = json::Value::object();
    road.set("row", json::Value::number(f.road.row));
    road.set("col", json::Value::number(f.road.col));
    road.set("side", json::Value::string(enum_token(f.road.side, kSideTokens)));
    e.set("road", std::move(road));
    e.set("start_s", json::Value::number(f.start_s));
    e.set("end_s", dump_time_or_inf(f.end_s));
    e.set("capacity_factor", json::Value::number(f.capacity_factor));
    capacity.push_back(std::move(e));
  }
  faults.set("capacity", std::move(capacity));
  json::Value sensors = json::Value::array();
  for (const SensorFault& f : config.faults.sensors) {
    json::Value e = json::Value::object();
    e.set("node", dump_node(f.node));
    e.set("start_s", json::Value::number(f.start_s));
    e.set("end_s", dump_time_or_inf(f.end_s));
    e.set("kind", json::Value::string(enum_token(f.kind, kSensorFaultTokens)));
    e.set("bias", json::Value::number(f.bias));
    e.set("noise_magnitude", json::Value::number(f.noise_magnitude));
    sensors.push_back(std::move(e));
  }
  faults.set("sensors", std::move(sensors));
  json::Value controllers = json::Value::array();
  for (const ControllerFault& f : config.faults.controllers) {
    json::Value e = json::Value::object();
    e.set("node", dump_node(f.node));
    e.set("fail_s", json::Value::number(f.fail_s));
    e.set("recover_s", dump_time_or_inf(f.recover_s));
    controllers.push_back(std::move(e));
  }
  faults.set("controllers", std::move(controllers));
  doc.set("faults", std::move(faults));

  json::Value guard = json::Value::object();
  guard.set("enabled", json::Value::boolean(config.guard.enabled));
  guard.set("policy", json::Value::string(enum_token(config.guard.policy,
                                                     kGuardPolicyTokens)));
  guard.set("interval_s", json::Value::number(config.guard.interval_s));
  doc.set("guard", std::move(guard));

  json::Value detector = json::Value::object();
  detector.set("enabled", json::Value::boolean(config.detector.enabled));
  detector.set("window_samples", json::Value::number(config.detector.window_samples));
  detector.set("warmup_samples", json::Value::number(config.detector.warmup_samples));
  detector.set("drift", json::Value::number(config.detector.drift));
  detector.set("threshold", json::Value::number(config.detector.threshold));
  detector.set("min_sigma", json::Value::number(config.detector.min_sigma));
  detector.set("min_links", json::Value::number(config.detector.min_links));
  detector.set("fuse_window_s", json::Value::number(config.detector.fuse_window_s));
  detector.set("cooldown_s", json::Value::number(config.detector.cooldown_s));
  detector.set("adapt", json::Value::boolean(config.detector.adapt));
  doc.set("detector", std::move(detector));

  json::Value surrogate = json::Value::object();
  surrogate.set("enabled", json::Value::boolean(config.surrogate.enabled));
  surrogate.set("service_scale", json::Value::number(config.surrogate.service_scale));
  surrogate.set("transit_scale", json::Value::number(config.surrogate.transit_scale));
  surrogate.set("capacity_scale",
                json::Value::number(config.surrogate.capacity_scale));
  surrogate.set("profile", json::Value::string(config.surrogate.profile));
  doc.set("surrogate", std::move(surrogate));

  return json::dump(doc);
}

std::vector<std::string> schema_field_paths() {
  std::vector<std::string> out;
  const auto add = [&out](const std::string& prefix,
                          std::span<const char* const> keys) {
    for (const char* k : keys) {
      out.push_back(prefix.empty() ? k : prefix + "." + k);
    }
  };
  add("", kTopKeys);
  add("grid", kGridKeys);
  add("demand", kDemandKeys);
  for (const EnumEntry<net::Side>& side : kSideTokens) {
    add(std::string("demand.turning.") + side.token, kTurnProbKeys);
  }
  add("demand.segments[]", kSegmentKeys);
  add("controller", kControllerKeys);
  add("controller.util", kUtilKeys);
  add("controller.fixed_slot", kFixedSlotKeys);
  add("controller.fixed_time", kFixedTimeKeys);
  add("controller_overrides[]", kOverrideKeys);
  add("controller_overrides[].node", kNodeKeys);
  add("micro", kMicroKeys);
  add("micro.sensor", kSensorModelKeys);
  add("micro.vehicle", kVehicleKeys);
  add("queue", kQueueKeys);
  add("watches[]", kWatchKeys);
  add("faults", kFaultsKeys);
  add("faults.capacity[]", kCapacityFaultKeys);
  add("faults.capacity[].road", kRoadRefKeys);
  add("faults.sensors[]", kSensorFaultKeys);
  add("faults.sensors[].node", kNodeKeys);
  add("faults.controllers[]", kControllerFaultKeys);
  add("faults.controllers[].node", kNodeKeys);
  add("guard", kGuardKeys);
  add("detector", kDetectorKeys);
  add("shard", kShardKeys);
  add("surrogate", kSurrogateKeys);
  return out;
}

}  // namespace abp::scenario
