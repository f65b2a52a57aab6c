// The two measurement modes. End-to-end numbers always come from the
// untraced mode; the traced mode times calls into each layer's public
// functions from outside the library and reports per-layer metrics.
#pragma once

#include <time.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "perfbench/src/gate.hpp"
#include "perfbench/src/workloads.hpp"
#include "src/stats/run_result.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  // False for a figure printed for the reader only, not carried in the
  // result object that BENCHMARK.json describes.
  bool in_result = true;
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// CPU seconds used so far by all of this process's threads. Unlike host
// time, it leaves out time the threads spend descheduled or stolen by the
// hypervisor, so on a shared host it follows the program's own work rather
// than the load of its neighbours. Worker threads blocked on a condition
// variable use none.
[[nodiscard]] inline double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Median of a non-empty sample.
[[nodiscard]] inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct UntracedResult {
  std::vector<Metric> metrics;
  // Median host seconds of the timed section (whole batch, or the window):
  // the base of the traced mode's trace.overhead.
  double wall_s = 0.0;
  // The first repetition's results, one per scenario, for the traced mode's
  // traced-vs-untraced check.
  std::vector<abp::stats::RunResult> reference;
};

// Repeats the workload's timed section until `seconds` have passed (and at
// least a few times), checking every run, and reports the end-to-end
// metrics: cpu_s, ns_per_veh_step, setup_s, peak_rss_mb, avg_queuing_s and
// completed, plus error_rate and wall_s for the reader.
[[nodiscard]] UntracedResult measure_untraced(const Workload& workload, double seconds,
                                              Gate& gate);

// The traced run and its per-layer metrics (README.md lists them). For the
// single-run workloads this includes an untraced measurement as the base of
// trace.overhead and of the traced-vs-untraced check.
[[nodiscard]] std::vector<Metric> measure_traced(const Workload& workload, double seconds,
                                                 Gate& gate);

}  // namespace perfbench
