// Shared helpers for the experiment benches.
//
// Every bench prints its table/figure to stdout (bench_output.txt captures
// it) and mirrors the raw series into CSV files under ./bench_results/ for
// external re-plotting.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "src/util/csv.hpp"

namespace abp::bench {

// Compiler identity stamped into every bench's JSON header so numbers from
// different builds stay attributable.
inline constexpr const char* kCompiler =
#if defined(__clang__)
    "clang " __clang_version__;
#elif defined(__GNUC__)
    "gcc " __VERSION__;
#else
    "unknown";
#endif

// The one timing loop every bench shares: wall-clock seconds of fn() on the
// steady clock. Timed sections must do their own warmup and carry their own
// optimization sinks; the helper only standardizes the clock and the unit.
template <typename Fn>
[[nodiscard]] inline double timed_seconds(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

// Median-of-N interleaved timing for benches that time several sections:
// trials(i) runs and times section i once and returns its wall seconds.
// Round r times every section once, in order, before round r + 1 starts, so
// a burst of load from the rest of the box lands on one trial of several
// sections instead of on every trial of one; each section then reports the
// median of its `rounds` trials. Unlike a best-of, the median neither rewards
// a lucky quiet moment nor lets one slow trial decide. `rounds` should be
// odd.
template <typename Trial>
[[nodiscard]] inline std::vector<double> interleaved_median_seconds(std::size_t sections,
                                                                    int rounds, Trial&& trial) {
  std::vector<std::vector<double>> samples(sections);
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < sections; ++i) samples[i].push_back(trial(i));
  }
  std::vector<double> medians;
  medians.reserve(sections);
  for (std::vector<double>& s : samples) {
    std::sort(s.begin(), s.end());
    medians.push_back(s[s.size() / 2]);
  }
  return medians;
}

// Cores that actually run in parallel right now: every hardware thread
// spins a fixed amount of dependent integer work, and the result is
// threads * t(one thread) / t(all threads), the median of three rounds that
// each time one thread and then all of them back to back. Reads below
// hardware_concurrency on a shared or throttled box, which is what decides
// whether a threaded row's number means anything. Takes ~0.5 s.
[[nodiscard]] inline double effective_cores() {
  const auto spin_seconds = [](unsigned threads) {
    constexpr std::uint64_t kIterations = 100'000'000;
    std::atomic<std::uint64_t> sink{0};
    std::vector<std::thread> pool;
    return timed_seconds([&] {
      for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&] {
          std::uint64_t x = 0x9e3779b97f4a7c15ULL;
          for (std::uint64_t i = 0; i < kIterations; ++i) x = x * 6364136223846793005ULL + i;
          sink += x;
        });
      }
      for (std::thread& t : pool) t.join();
    });
  };
  const unsigned threads = std::max(1U, std::thread::hardware_concurrency());
  std::vector<double> rounds;
  for (int round = 0; round < 3; ++round) {
    const double one = spin_seconds(1);
    rounds.push_back(threads * one / spin_seconds(threads));
  }
  std::sort(rounds.begin(), rounds.end());
  return rounds[1];
}

// Directory that receives the CSV mirrors of every bench result.
inline std::filesystem::path results_dir() {
  const std::filesystem::path dir = "bench_results";
  std::filesystem::create_directories(dir);
  return dir;
}

// Opens bench_results/<name>.csv for writing, announcing it on stdout.
inline std::ofstream open_csv(const std::string& name) {
  const std::filesystem::path path = results_dir() / (name + ".csv");
  std::cout << "[csv] " << path.string() << "\n";
  return std::ofstream(path);
}

// Scales paper durations down when ABP_FAST=1 is set (quick smoke runs).
inline double duration_scale() {
  const char* fast = std::getenv("ABP_FAST");
  return (fast != nullptr && fast[0] == '1') ? 0.1 : 1.0;
}

inline void print_header(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

}  // namespace abp::bench
