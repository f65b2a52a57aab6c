// Declarative scenario layer: JSON files <-> ScenarioConfig, validated and
// round-trippable.
//
// This is the boundary between "workloads are C++ code" and "workloads are
// data". A scenario file describes everything a run needs — topology, demand
// (including time-varying segment schedules), controller selection with
// per-junction overrides, both backends' parameters, watches, the full
// PR-6 fault schedule and the runtime guard — and loads into the same
// ScenarioConfig value the programmatic API uses, so every determinism
// guarantee (fixed-seed bit-equality at any thread/jobs count) holds for
// file-driven runs unchanged. The scenario library under scenarios/ plus
// abp_cli --scenario are built on this; docs/SCENARIOS.md is the schema
// reference (field-by-field semantics, defaults, validation rules,
// determinism contract) and is lint-checked against schema_field_paths().
//
// Error contract: every load failure throws ScenarioIoError whose what() is
// exactly "<dotted.path>: <problem>" — e.g.
//   demand.segments[2].interarrival_scale: must be > 0
//   micro.sensor.quantisation: unknown key
// so a failing file pinpoints the offending field without a stack trace.
// Malformed JSON (not valid JSON at all) throws json::ParseError with
// line/column instead, since there is no field path to report.
//
// Round-trip contract: dump_scenario() serializes *every* field in a fixed
// order and canonical number form (shortest round-trip doubles, exact 64-bit
// integers, infinity spelled "inf"), so for any config c,
// load(dump(c)) == c field-for-field and dump(load(dump(c))) == dump(c)
// byte-for-byte. The one deliberate exception: a config carrying a custom
// PressureFn (a std::function, programmatic API only) cannot be dumped —
// dump_scenario throws, pointing at the serializable pressure_kind field.
#pragma once

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

// Parses and validates one scenario document. Throws ScenarioIoError on any
// schema violation (unknown key, wrong type, out-of-range value, overlapping
// fault windows, ...) and json::ParseError on malformed JSON.
[[nodiscard]] ScenarioConfig load_scenario(std::string_view json_text);

// Reads the file and calls load_scenario. Throws std::runtime_error when the
// file cannot be opened.
[[nodiscard]] ScenarioConfig load_scenario_file(const std::string& file_path);

// Serializes the full config (defaults included) in the canonical byte-stable
// form. Throws ScenarioIoError for the unserializable programmatic-only
// fields (custom PressureFn).
[[nodiscard]] std::string dump_scenario(const ScenarioConfig& config);

// Every dotted field path of the schema, in document order — array-valued
// fields use a "[]" suffix on the array segment (e.g.
// "demand.segments[].duration_s"). Derived from the same key tables the
// parser's unknown-key rejection uses, so the list cannot drift from what
// load_scenario accepts. Consumed by abp_cli --print-schema-fields and the
// docs lint (tools/check_scenario_docs.py).
[[nodiscard]] std::vector<std::string> schema_field_paths();

}  // namespace abp::scenario
