// Experiment layer: run-level parallelism over independent scenario runs.
//
// PR 1-3 made a single tick fast and thread-invariant; this layer makes
// *experiments* fast. Paper benches and replication studies execute dozens of
// independent ScenarioConfigs (replication sets, pattern x controller grids,
// parameter sweeps) — each run is self-contained (make_simulator owns its
// network, demand and controllers), so a batch parallelizes trivially across
// runs with zero shared mutable state. ExperimentRunner drains a batch across
// the shared ThreadPool (src/util/thread_pool.hpp) with `jobs` concurrent
// runs and collects results in batch order.
//
// Determinism: a run's result depends only on its own ScenarioConfig (every
// RNG stream is derived from config.seed), never on which worker executes it
// or on how many run concurrently — so a batch is bit-identical to a serial
// run_scenario loop over the same configs at every jobs count. The
// `invariance`-labelled experiment_runner_test pins this at jobs in {1,2,8}.
//
// Failure isolation: a long campaign must not lose a night of sibling
// results to one bad run. run_statuses() captures each run's outcome into a
// per-run RunStatus — result, error (exception captured, batch always
// drains) or timeout (deterministic tick-budget deadline, partial result
// kept) — with optional same-seed retries. run() stays the thin throwing
// wrapper over it for callers that want the historical all-or-nothing
// contract. See docs/ROBUSTNESS.md, "ExperimentRunner failure policy".
//
// Oversubscription guard: run-level `jobs` multiplies with each config's
// tick-level `threads` (the micro backend's road-partitioned sweep). jobs x
// tick_threads beyond hardware_concurrency is almost never intended — it
// only adds contention — so run() rejects it unless
// BatchOptions::allow_oversubscribe is set. See docs/PERFORMANCE.md,
// "Run-level vs tick-level parallelism".
#pragma once

#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "src/scenario/scenario_config.hpp"
#include "src/stats/run_result.hpp"
#include "src/util/thread_pool.hpp"

namespace abp::exp {

struct BatchOptions {
  // Concurrent runs (>= 1, counting the calling thread). 1 = serial.
  int jobs = 1;
  // Permit jobs x tick_threads to exceed hardware_concurrency. Tests use
  // this to exercise jobs counts above the core count; measurement runs
  // should leave it off and size jobs with max_safe_jobs().
  bool allow_oversubscribe = false;
  // Per-run deadline in simulator ticks (0 = unlimited). A run whose
  // configured duration needs more ticks than this is truncated at the
  // budget, finished there, and reported as Outcome::Timeout with the
  // partial result. Deliberately a *simulated*-tick budget, not wall clock:
  // statuses stay a pure function of the configs, so batches keep their
  // bit-identical-at-every-jobs-count guarantee.
  long long tick_budget = 0;
  // Extra same-config, same-seed attempts after a run raises an exception
  // (0 = fail fast). Timeouts are deterministic truncations, not failures,
  // and are never retried.
  int retries = 0;
};

// Largest jobs count that keeps jobs x tick_threads within the machine's
// hardware_concurrency, never below 1. Returns 1 when the hardware
// concurrency is unknown (hardware_concurrency() == 0).
[[nodiscard]] int max_safe_jobs(int tick_threads = 1) noexcept;

// The deterministic seed-derivation scheme for replication sets: `n` copies
// of `base` with seeds base.seed + 0, base.seed + 1, ..., base.seed + n - 1.
// Runs are identified by their seed, not by execution order, so per-seed
// result streams stay comparable across jobs counts, machines and the
// historical serial run_replications loop.
[[nodiscard]] std::vector<scenario::ScenarioConfig> replication_configs(
    const scenario::ScenarioConfig& base, int replications);

// Outcome of one run of a batch.
struct RunStatus {
  enum class Outcome {
    // Ran to its configured duration; `result` is complete.
    Ok,
    // Every attempt raised; `error` carries the last attempt's message and
    // `exception` the exception itself, `result` is empty.
    Error,
    // Hit the tick budget; `result` holds the partial run up to the budget
    // (bit-identical to a run configured with the truncated duration).
    Timeout,
  };

  Outcome outcome = Outcome::Ok;
  stats::RunResult result;
  std::string error;
  std::exception_ptr exception;
  // Attempts consumed (1 + retries used).
  int attempts = 1;

  [[nodiscard]] bool ok() const noexcept { return outcome == Outcome::Ok; }
};

class ExperimentRunner {
 public:
  explicit ExperimentRunner(BatchOptions options = {});

  [[nodiscard]] const BatchOptions& options() const noexcept { return options_; }

  // Executes every config (construct simulator, run to config.duration_s or
  // the tick budget, finish) with up to `jobs` runs in flight, capturing
  // each run's outcome into a RunStatus in batch order: statuses[i] belongs
  // to configs[i] regardless of completion order. A throwing run never
  // disturbs its siblings — the batch always drains. Throws
  // std::invalid_argument only for batch-level misconfiguration (the
  // oversubscription guard).
  [[nodiscard]] std::vector<RunStatus> run_statuses(
      const std::vector<scenario::ScenarioConfig>& configs);

  // All-or-nothing wrapper over run_statuses(): returns the results in batch
  // order when every run is Ok; otherwise rethrows the first (in batch
  // order) failed run's captured exception — with its original type — after
  // the whole batch has drained. A Timeout is a failure under this contract
  // (the caller asked for full runs) and surfaces as std::runtime_error.
  [[nodiscard]] std::vector<stats::RunResult> run(
      const std::vector<scenario::ScenarioConfig>& configs);

 private:
  [[nodiscard]] RunStatus execute_one(const scenario::ScenarioConfig& config) const;

  BatchOptions options_;
  // Workers are spawned once per runner and reused across batches.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace abp::exp
