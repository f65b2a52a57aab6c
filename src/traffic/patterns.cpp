#include "src/traffic/patterns.hpp"

#include <cmath>
#include <stdexcept>

namespace abp::traffic {

TurningTable TurningTable::paper() {
  TurningTable t;
  // Table I, columns North / East / South / West.
  t.by_side[static_cast<std::size_t>(net::Side::North)] = {.right = 0.4, .left = 0.2};
  t.by_side[static_cast<std::size_t>(net::Side::East)] = {.right = 0.3, .left = 0.3};
  t.by_side[static_cast<std::size_t>(net::Side::South)] = {.right = 0.4, .left = 0.3};
  t.by_side[static_cast<std::size_t>(net::Side::West)] = {.right = 0.3, .left = 0.4};
  return t;
}

std::string pattern_name(PatternKind kind) {
  switch (kind) {
    case PatternKind::I:
      return "I (adjacent heavy)";
    case PatternKind::II:
      return "II (uniform)";
    case PatternKind::III:
      return "III (opposite heavy)";
    case PatternKind::IV:
      return "IV (single heavy)";
    case PatternKind::Mixed:
      return "Mixed";
  }
  return "?";
}

ArrivalRow arrival_row(PatternKind kind) {
  // Table II, mean inter-arrival in seconds from North / East / South / West.
  switch (kind) {
    case PatternKind::I:
      return ArrivalRow{{3.0, 5.0, 7.0, 9.0}};
    case PatternKind::II:
      return ArrivalRow{{6.0, 6.0, 6.0, 6.0}};
    case PatternKind::III:
      return ArrivalRow{{3.0, 7.0, 5.0, 9.0}};
    case PatternKind::IV:
      return ArrivalRow{{3.0, 9.0, 9.0, 9.0}};
    case PatternKind::Mixed:
      throw std::invalid_argument("Mixed has no single arrival row; use pattern_at");
  }
  throw std::invalid_argument("unknown pattern");
}

PatternKind pattern_at(PatternKind kind, double time_s) {
  if (kind != PatternKind::Mixed) return kind;
  const double segment = std::floor(time_s / kMixedSegmentDuration_s);
  switch (static_cast<long long>(segment) % 4) {
    case 0:
      return PatternKind::I;
    case 1:
      return PatternKind::II;
    case 2:
      return PatternKind::III;
    default:
      return PatternKind::IV;
  }
}

double mean_interarrival(PatternKind kind, net::Side s, double time_s, double scale) {
  return arrival_row(pattern_at(kind, time_s)).on(s) * scale;
}

double paper_duration_s(PatternKind kind) {
  return kind == PatternKind::Mixed ? 4.0 * 3600.0 : 3600.0;
}

DemandSchedule::DemandSchedule(std::vector<ScheduleSegment> segments)
    : segments_(std::move(segments)) {
  if (segments_.empty()) {
    throw std::invalid_argument("demand schedule needs at least one segment");
  }
  for (const ScheduleSegment& s : segments_) {
    if (!(s.duration_s > 0.0)) {
      throw std::invalid_argument("schedule segment durations must be positive");
    }
    if (s.interarrival_scale <= 0.0) {
      throw std::invalid_argument("schedule segment scales must be positive");
    }
    if (s.pattern == PatternKind::Mixed) {
      throw std::invalid_argument(
          "schedule segments must use concrete patterns, not Mixed (compose "
          "the segments instead)");
    }
    cycle_ += s.duration_s;
  }
}

const ScheduleSegment& DemandSchedule::at(double time_s) const {
  if (segments_.empty()) {
    throw std::logic_error("DemandSchedule::at on an empty schedule");
  }
  double offset = std::fmod(time_s, cycle_);
  if (offset < 0.0) offset += cycle_;
  for (const ScheduleSegment& s : segments_) {
    if (offset < s.duration_s) return s;
    offset -= s.duration_s;
  }
  return segments_.back();  // floating-point boundary
}

double DemandSchedule::mean_interarrival(net::Side s, double time_s) const {
  const ScheduleSegment& segment = at(time_s);
  return arrival_row(segment.pattern).on(s) * segment.interarrival_scale;
}

}  // namespace abp::traffic
