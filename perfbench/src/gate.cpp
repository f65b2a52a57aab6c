#include "perfbench/src/gate.hpp"

#include <iostream>
#include <sstream>

namespace perfbench {
namespace {

using abp::stats::RunResult;

// The name of the first field in which a and b differ, or "" when identical.
std::string first_difference(const abp::stats::NetworkMetrics& a,
                             const abp::stats::NetworkMetrics& b) {
  if (a.generated != b.generated) return "metrics.generated";
  if (a.entered != b.entered) return "metrics.entered";
  if (a.completed != b.completed) return "metrics.completed";
  if (a.in_network_at_end != b.in_network_at_end) return "metrics.in_network_at_end";
  if (a.queuing_time_s.count() != b.queuing_time_s.count()) return "queuing_time_s.count";
  if (a.travel_time_s.count() != b.travel_time_s.count()) return "travel_time_s.count";
  if (a.queuing_time_s.mean() != b.queuing_time_s.mean()) return "queuing_time_s.mean";
  if (a.travel_time_s.mean() != b.travel_time_s.mean()) return "travel_time_s.mean";
  for (double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    if (a.queuing_time_s.quantile(q) != b.queuing_time_s.quantile(q)) {
      return "queuing_time_s.quantile(" + std::to_string(q) + ")";
    }
    if (a.travel_time_s.quantile(q) != b.travel_time_s.quantile(q)) {
      return "travel_time_s.quantile(" + std::to_string(q) + ")";
    }
  }
  if (a.entry_blocked_time_s != b.entry_blocked_time_s) return "entry_blocked_time_s";
  return "";
}

std::string first_difference(const abp::stats::TimeSeries& a,
                             const abp::stats::TimeSeries& b, const std::string& name) {
  if (a.times() != b.times()) return name + ".times";
  if (a.values() != b.values()) return name + ".values";
  return "";
}

std::string first_difference(const RunResult& a, const RunResult& b) {
  if (std::string d = first_difference(a.metrics, b.metrics); !d.empty()) return d;
  if (a.duration_s != b.duration_s) return "duration_s";
  if (std::string d = first_difference(a.in_network_series, b.in_network_series,
                                       "in_network_series");
      !d.empty()) {
    return d;
  }
  if (a.road_series.size() != b.road_series.size()) return "road_series.size";
  for (std::size_t i = 0; i < a.road_series.size(); ++i) {
    if (std::string d = first_difference(a.road_series[i], b.road_series[i],
                                         "road_series[" + std::to_string(i) + "]");
        !d.empty()) {
      return d;
    }
  }
  if (a.phase_traces.size() != b.phase_traces.size()) return "phase_traces.size";
  for (std::size_t i = 0; i < a.phase_traces.size(); ++i) {
    const auto& ta = a.phase_traces[i].samples();
    const auto& tb = b.phase_traces[i].samples();
    bool same = ta.size() == tb.size();
    for (std::size_t j = 0; same && j < ta.size(); ++j) {
      same = ta[j].time == tb[j].time && ta[j].phase == tb[j].phase;
    }
    if (!same) return "phase_traces[" + std::to_string(i) + "]";
  }
  if (a.detections.samples != b.detections.samples) return "detections.samples";
  if (a.detections.events.size() != b.detections.events.size()) {
    return "detections.events.size";
  }
  for (std::size_t i = 0; i < a.detections.events.size(); ++i) {
    const abp::stats::DetectionEvent& ea = a.detections.events[i];
    const abp::stats::DetectionEvent& eb = b.detections.events[i];
    if (ea.time_s != eb.time_s || ea.row != eb.row || ea.col != eb.col ||
        ea.direction != eb.direction || ea.statistic != eb.statistic ||
        ea.links != eb.links) {
      return "detections.events[" + std::to_string(i) + "]";
    }
  }
  return "";
}

}  // namespace

void Gate::record(const std::string& run, const std::vector<std::string>& problems) {
  ++attempted_;
  if (problems.empty()) return;
  ++failed_;
  for (const std::string& p : problems) std::cerr << "FAIL " << run << ": " << p << "\n";
}

void check_conservation(const RunResult& result, std::vector<std::string>& problems) {
  const abp::stats::NetworkMetrics& m = result.metrics;
  if (m.entered != m.completed + m.in_network_at_end) {
    std::ostringstream os;
    os << "conservation: entered " << m.entered << " != completed " << m.completed
       << " + in_network_at_end " << m.in_network_at_end;
    problems.push_back(os.str());
  }
  if (m.generated < m.entered) {
    std::ostringstream os;
    os << "conservation: generated " << m.generated << " < entered " << m.entered;
    problems.push_back(os.str());
  }
}

void check_identical(const RunResult& a, const RunResult& b, const std::string& what,
                     std::vector<std::string>& problems) {
  if (std::string d = first_difference(a, b); !d.empty()) {
    problems.push_back(what + ": results differ in " + d);
  }
}

}  // namespace perfbench
