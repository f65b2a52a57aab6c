// CalibrationProfile: the serializable result of fitting the queue backend
// to the micro backend for one scenario family (src/surrogate/calibrator.hpp).
//
// A profile is three multiplicative scales over the grid's uniform queue-sim
// parameters — junction service rate, road transit time, road capacity —
// plus fit provenance (what it was fitted on, with how many paired
// replications, and the residual objective at the optimum). Applying a
// profile to a ScenarioConfig just fills its `surrogate` section; the scales
// take effect only when the run selects the queue backend
// (sim::effective_grid), so a profile attached to a scenario never perturbs
// micro-sim runs or their golden pins.
//
// The profile file is read and written by the scenario loader's schema
// visitors (src/scenario/schema.hpp): canonical member order, unknown keys
// and bad values rejected with the offending dotted path, and
// dump(load(dump)) byte-identical.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "src/scenario/scenario_config.hpp"

namespace abp::surrogate {

struct CalibrationProfile {
  // Profile identity (referenced by ScenarioConfig::surrogate.profile).
  std::string name;
  // Name of the scenario family the fit ran on (ScenarioConfig::name; may be
  // empty for programmatic configs).
  std::string scenario;

  // The fitted scales (see scenario::SurrogateConfig for their semantics).
  double service_scale = 1.0;
  double transit_scale = 1.0;
  double capacity_scale = 1.0;

  // Fit provenance: weighted relative SSE at the optimum, candidate
  // evaluations spent, paired replications per evaluation, the calibration
  // horizon and the base seed of the replication pairs.
  double objective = 0.0;
  int evaluations = 0;
  int replications = 0;
  double duration_s = 0.0;
  std::uint64_t seed = 0;
};

// Canonical JSON form (byte-stable: dump(load(dump)) == dump).
[[nodiscard]] std::string dump_profile(const CalibrationProfile& profile);

// Parses and validates a profile document. Throws std::invalid_argument
// (scenario::ScenarioIoError) with the offending field's dotted path on
// unknown keys, type mismatches or out-of-range values, and json::ParseError
// on malformed JSON.
[[nodiscard]] CalibrationProfile load_profile(std::string_view json_text);
[[nodiscard]] CalibrationProfile load_profile_file(const std::string& file_path);

// Writes the profile's scales (and name) into config.surrogate and enables
// it. The config's simulator choice is untouched — callers pick the backend.
void apply_profile(const CalibrationProfile& profile, scenario::ScenarioConfig& config);

}  // namespace abp::surrogate
