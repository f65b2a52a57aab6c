// Host facts stamped on every result: a parallel claim counts only on
// hardware whose cores were measured.
#pragma once

#include <string>

namespace perfbench {

struct HostInfo {
  long nproc = 0;                    // online processors (sysconf)
  unsigned hardware_concurrency = 0;  // std::thread's view
  // Cores that actually run in parallel: hardware_concurrency threads each
  // spin a fixed amount of work; effective = threads * t(1 thread) /
  // t(all threads). Reads below hardware_concurrency on a shared or
  // throttled box.
  double effective_cores = 0.0;
};

// Measures the host; takes a few hundred milliseconds (the spin calibration).
[[nodiscard]] HostInfo measure_host();

// Peak resident set size of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
