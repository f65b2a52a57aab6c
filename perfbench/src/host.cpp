#include "perfbench/src/host.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace perfbench {
namespace {

// A fixed amount of dependent integer work the optimizer cannot remove.
std::uint64_t spin(std::uint64_t iterations) {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t i = 0; i < iterations; ++i) x = x * 6364136223846793005ULL + i;
  return x;
}

// Wall seconds for `threads` threads to each finish spin(iterations).
double spin_seconds(unsigned threads, std::uint64_t iterations) {
  std::atomic<std::uint64_t> sink{0};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&] { sink += spin(iterations); });
  }
  for (std::thread& t : pool) t.join();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

HostInfo measure_host() {
  HostInfo info;
  info.nproc = sysconf(_SC_NPROCESSORS_ONLN);
  info.hardware_concurrency = std::thread::hardware_concurrency();
  const unsigned threads = std::max(1U, info.hardware_concurrency);
  constexpr std::uint64_t kIterations = 100'000'000;  // ~0.13 s on one core
  // Median of three rounds, each timing one thread then all of them back to
  // back, so both sides of a round see the same load from the rest of the box.
  std::vector<double> rounds;
  for (int round = 0; round < 3; ++round) {
    const double one = spin_seconds(1, kIterations);
    rounds.push_back(threads * one / spin_seconds(threads, kIterations));
  }
  std::sort(rounds.begin(), rounds.end());
  info.effective_cores = rounds[1];
  return info;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace perfbench
