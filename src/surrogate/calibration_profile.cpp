#include "src/surrogate/calibration_profile.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "src/scenario/schema.hpp"
#include "src/util/json.hpp"

namespace abp::surrogate {
namespace {

// Document format version of the profile file itself (independent of the
// scenario schema version).
constexpr int kProfileVersion = 1;

}  // namespace

// The profile document's one description (src/scenario/schema.hpp): load,
// dump and validation all follow it, with the scenario loader's readers.
template <class V>
void describe(V& v, CalibrationProfile& p) {
  int version = kProfileVersion;
  v.field("version", version);
  v.require(version);
  v.check(version == kProfileVersion, version,
          "unsupported profile version " + std::to_string(version) +
              " (this build reads version " + std::to_string(kProfileVersion) + ")");
  v.field("name", p.name);
  v.field("scenario", p.scenario);
  v.field("service_scale", p.service_scale);
  v.field("transit_scale", p.transit_scale);
  v.field("capacity_scale", p.capacity_scale);
  v.field("objective", p.objective);
  v.field("evaluations", p.evaluations);
  v.field("replications", p.replications);
  v.field("duration_s", p.duration_s);
  v.field("seed", p.seed);
  v.check(p.service_scale > 0.0, p.service_scale, "must be > 0");
  v.check(p.transit_scale > 0.0, p.transit_scale, "must be > 0");
  v.check(p.capacity_scale > 0.0, p.capacity_scale, "must be > 0");
  v.check(p.evaluations >= 0, p.evaluations, "must be >= 0");
  v.check(p.replications >= 0, p.replications, "must be >= 0");
  v.check(p.duration_s >= 0.0, p.duration_s, "must be >= 0");
}

std::string dump_profile(const CalibrationProfile& profile) {
  return scenario::schema::dump_document(profile);
}

CalibrationProfile load_profile(std::string_view json_text) {
  CalibrationProfile p;
  scenario::schema::load_document(json::parse(json_text), p);
  return p;
}

CalibrationProfile load_profile_file(const std::string& file_path) {
  std::ifstream in(file_path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open profile file: " + file_path);
  std::ostringstream text;
  text << in.rdbuf();
  return load_profile(text.str());
}

void apply_profile(const CalibrationProfile& profile,
                   scenario::ScenarioConfig& config) {
  config.surrogate.enabled = true;
  config.surrogate.service_scale = profile.service_scale;
  config.surrogate.transit_scale = profile.transit_scale;
  config.surrogate.capacity_scale = profile.capacity_scale;
  config.surrogate.profile = profile.name;
}

}  // namespace abp::surrogate
