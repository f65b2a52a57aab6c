// Declarative scenario layer: JSON files <-> ScenarioConfig, validated and
// round-trippable. A scenario file describes everything a run needs and loads
// into the same ScenarioConfig value the programmatic API uses, so every
// determinism guarantee holds for file-driven runs unchanged.
// docs/SCENARIOS.md is the schema reference, lint-checked against
// schema_field_paths().
//
// The schema is one describe() function per schema object in
// scenario_io.cpp: each names its keys once, with their types and enum token
// tables, and lists the object's checks. Load, dump and the field-path list
// all walk those functions (src/scenario/schema.hpp), so they cannot drift.
//
// Error contract: every load failure throws ScenarioIoError whose what() is
// exactly "<dotted.path>: <problem>", e.g.
//   demand.segments[2].interarrival_scale: must be > 0
//   micro.sensor.quantisation: unknown key
// Malformed JSON (including nesting deeper than json::kMaxNestingDepth)
// throws json::ParseError with line/column instead.
//
// Round-trip contract: dump_scenario() writes every field in a fixed order
// and canonical number form (shortest round-trip doubles, exact 64-bit
// integers, infinity as "inf"), so load(dump(c)) == c field-for-field and
// dump(load(dump(c))) == dump(c) byte-for-byte. Every ScenarioConfig field
// has a file form, so any config can be dumped.
//
// Validation contract: validate(c) runs exactly the checks load_scenario()
// runs, in the same order, so for a config built in code it throws what
// load_scenario(dump_scenario(c)) throws. sim::make_simulator() calls it.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/scenario/scenario_config.hpp"

namespace abp::scenario {

// The schema version this build writes (the file's required top-level
// "version" field). Bumped only for schema changes; the loader also accepts
// kScenarioSchemaVersionMin, since every older document is a valid newer one
// (new sections are optional with behavior-preserving defaults). Version 2
// added the optional "detector" section (online changepoint detection);
// version 3 the optional "shard" section (multi-process sharding, since
// retired: still accepted and checked, then ignored); version 4 the optional
// "surrogate" section (calibrated queue-backend rescaling).
inline constexpr int kScenarioSchemaVersion = 4;
inline constexpr int kScenarioSchemaVersionMin = 1;

// Load/validate failure with the dotted path of the offending field.
// what() == "<path>: <problem>".
class ScenarioIoError : public std::invalid_argument {
 public:
  ScenarioIoError(std::string path, const std::string& problem)
      : std::invalid_argument(path + ": " + problem), path_(std::move(path)) {}

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

// --- Enum tokens --------------------------------------------------------------
// The spelling of every enum value in scenario files. abp_cli parses its enum
// flags through the same tables, so a flag accepts exactly the file's tokens.

template <typename E>
struct Token {
  const char* token;
  E value;
};

// The value spelled `s`, or nullptr when the table has no such token.
template <typename E, std::size_t N>
[[nodiscard]] const E* find_token(std::string_view s, const Token<E> (&table)[N]) {
  for (const Token<E>& t : table) {
    if (s == t.token) return &t.value;
  }
  return nullptr;
}

// "expected one of "a", "b"" — the problem text for an unknown token.
template <typename E, std::size_t N>
[[nodiscard]] std::string expected_tokens(const Token<E> (&table)[N]) {
  std::string out = "expected one of ";
  for (std::size_t i = 0; i < N; ++i) {
    out += std::string(i > 0 ? ", \"" : "\"") + table[i].token + "\"";
  }
  return out;
}

inline constexpr Token<SimulatorKind> kSimulatorTokens[] = {
    {"micro", SimulatorKind::Micro}, {"queue", SimulatorKind::Queue}};
inline constexpr Token<net::Handedness> kHandednessTokens[] = {
    {"left", net::Handedness::LeftHand}, {"right", net::Handedness::RightHand}};
inline constexpr Token<traffic::PatternKind> kPatternTokens[] = {
    {"I", traffic::PatternKind::I},
    {"II", traffic::PatternKind::II},
    {"III", traffic::PatternKind::III},
    {"IV", traffic::PatternKind::IV},
    {"mixed", traffic::PatternKind::Mixed}};
inline constexpr Token<net::Side> kSideTokens[] = {{"north", net::Side::North},
                                                   {"east", net::Side::East},
                                                   {"south", net::Side::South},
                                                   {"west", net::Side::West}};
inline constexpr Token<core::ControllerType> kControllerTypeTokens[] = {
    {"util", core::ControllerType::UtilBp},
    {"cap", core::ControllerType::CapBp},
    {"orig", core::ControllerType::OriginalBp},
    {"fixed", core::ControllerType::FixedTime}};
inline constexpr Token<core::GStarPolicy> kGStarTokens[] = {
    {"wstar_mu", core::GStarPolicy::WStarMu},
    {"zero", core::GStarPolicy::Zero},
    {"constant", core::GStarPolicy::Constant}};
inline constexpr Token<core::PressureKind> kPressureTokens[] = {
    {"identity", core::PressureKind::Identity},
    {"sqrt", core::PressureKind::Sqrt},
    {"quadratic", core::PressureKind::Quadratic},
    {"normalized", core::PressureKind::Normalized}};
inline constexpr Token<core::SensorFaultKind> kSensorFaultTokens[] = {
    {"dropout", core::SensorFaultKind::Dropout},
    {"stuck_at", core::SensorFaultKind::StuckAt},
    {"noise", core::SensorFaultKind::Noise}};
inline constexpr Token<GuardPolicy> kGuardPolicyTokens[] = {
    {"throw", GuardPolicy::Throw},
    {"record", GuardPolicy::Record},
    {"abort", GuardPolicy::Abort}};

// Parses and validates one scenario document. Throws ScenarioIoError on any
// schema violation (unknown key, wrong type, out-of-range value, overlapping
// fault windows, ...) and json::ParseError on malformed JSON.
[[nodiscard]] ScenarioConfig load_scenario(std::string_view json_text);

// Reads the file and calls load_scenario. Throws std::runtime_error when the
// file cannot be opened.
[[nodiscard]] ScenarioConfig load_scenario_file(const std::string& file_path);

// Runs every schema check on `config` as it stands, in load order, without
// modifying it. Throws the ScenarioIoError load_scenario would throw for the
// config's dump (range checks, overlapping sensor windows, duplicate
// overrides). Grid references are resolved later, by make_simulator().
void validate(const ScenarioConfig& config);

// Overlays one field as if loading {"version": ..., "a": {"b": value}} for the
// dotted path "a.b": unknown keys, types and the checks of every object on the
// path apply; an object value merges its keys, an array replaces the whole
// array. `value` is JSON, or a bare string when it is not JSON (`III`). Throws
// ScenarioIoError, leaving `config` unchanged. Backs abp_cli --set PATH=VALUE.
void set_field(ScenarioConfig& config, std::string_view path, std::string_view value);

// Serializes the full config (defaults included) in the canonical byte-stable
// form.
[[nodiscard]] std::string dump_scenario(const ScenarioConfig& config);

// Every dotted field path of the schema, in document order — array-valued
// fields use a "[]" suffix on the array segment (e.g.
// "demand.segments[].duration_s"). Walks the same describe() functions the
// loader reads with, so the list cannot drift from what load_scenario
// accepts. Consumed by abp_cli --print-schema-fields and the docs lint
// (tools/check_scenario_docs.py).
[[nodiscard]] std::vector<std::string> schema_field_paths();

}  // namespace abp::scenario
