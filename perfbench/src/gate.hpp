// The benchmark's correctness gate.
//
// Every run the benchmark makes is one attempt. A run fails when its
// RunStatus is not Ok or when any check on it fails; error_rate is
// failed / attempted, and any failure makes the benchmark exit non-zero.
#pragma once

#include <string>
#include <vector>

#include "src/stats/run_result.hpp"

namespace perfbench {

class Gate {
 public:
  // Records one run and the problems found with it (empty = passed). Each
  // problem is printed to stderr, prefixed with `run`.
  void record(const std::string& run, const std::vector<std::string>& problems);

  [[nodiscard]] long long attempted() const noexcept { return attempted_; }
  [[nodiscard]] long long failed() const noexcept { return failed_; }
  [[nodiscard]] double error_rate() const noexcept {
    return attempted_ > 0 ? static_cast<double>(failed_) / static_cast<double>(attempted_)
                          : 0.0;
  }

 private:
  long long attempted_ = 0;
  long long failed_ = 0;
};

// Vehicle conservation: entered == completed + in_network_at_end and
// generated >= entered. Appends a message per violation to `problems`.
void check_conservation(const abp::stats::RunResult& result,
                        std::vector<std::string>& problems);

// Deep bit-exact comparison of two results over the fields
// tests/result_compare.hpp compares (metrics and their quantiles, duration,
// series, phase traces, detections). Appends a message naming the first
// differing field, prefixed with `what`, when they differ.
void check_identical(const abp::stats::RunResult& a, const abp::stats::RunResult& b,
                     const std::string& what, std::vector<std::string>& problems);

}  // namespace perfbench
