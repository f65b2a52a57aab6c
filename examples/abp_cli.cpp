// abp_cli: command-line experiment runner over the library's public API.
//
// Runs one scenario and prints the metrics; optionally dumps the queue
// series and the phase trace of a chosen junction as CSV for plotting.
// With --replications N it runs N seed-replications (seeds seed..seed+N-1)
// through the experiment runner and prints the per-seed results plus the
// mean with a Student-t 95% confidence interval.
//
// Usage:
//   abp_cli [--scenario FILE] [--dump-scenario] [--print-schema-fields]
//           [--pattern I|II|III|IV|mixed] [--controller util|cap|orig|fixed]
//           [--duration SECONDS] [--period SECONDS] [--seed N]
//           [--simulator micro|queue] [--rows N] [--cols N]
//           [--mixed-lanes] [--threads N] [--replications N]
//           [--jobs N] [--allow-oversubscribe] [--csv PREFIX]
//           [--incident T] [--fault-capacity R,C,SIDE,START,END,FACTOR]
//           [--fault-sensor R,C,KIND,START,END[,BIAS[,MAG]]]
//           [--fault-controller R,C,FAIL[,RECOVER]]
//           [--guard throw|record|abort] [--guard-interval S]
//           [--detect] [--detect-adapt]
//           [--tick-budget N] [--retries N]
//           [--calibrate] [--surrogate-sweep] [--profile FILE] [--report FILE]
//           [--sweep-controllers LIST] [--sweep-patterns LIST]
//           [--sweep-periods LIST] [--spot-best-k N] [--spot-fraction F]
//           [--spot-replications N] [--trust-threshold X]
//
// Declarative scenarios (docs/SCENARIOS.md): --scenario FILE loads a JSON
// scenario — one of the scenarios/ library files or your own — as the base
// configuration; explicit flags then override individual fields, with
// --pattern also clearing a file's time-varying segment schedule (one demand
// description wins, never a mix of both). The repeatable --fault-* flags
// append to the file's fault schedule. --dump-scenario prints the merged
// configuration back as a canonical scenario file instead of running (pipe
// to a file to snapshot a flag combination as a reusable scenario);
// --print-schema-fields lists every schema field path, one per line (the
// docs lint, tools/check_scenario_docs.py, consumes this).
//
// Two parallelism axes, which multiply (see docs/PERFORMANCE.md,
// "Run-level vs tick-level parallelism"):
//   --threads N  tick-level: the micro-sim's road-partitioned Krauss lane
//                sweep. Breaks even near 16x16 grids; the queue-sim's tick
//                is serial and ignores it.
//   --jobs N     run-level: concurrent replications in --replications mode.
//                Worth it for many independent runs.
// Metrics are bit-identical at every --threads and --jobs value. Each of the
// N concurrent runs uses --threads workers, so the CLI rejects combinations
// that oversubscribe hardware_concurrency unless --allow-oversubscribe is
// passed (oversubscribing only adds contention).
//
// Fault injection (docs/ROBUSTNESS.md): the repeatable --fault-* flags add
// timed incidents to the run's FaultSchedule; --incident T is a canned
// mixed incident (capacity drop + sensor dropout + controller failover)
// starting at T, used by the CI smoke step. --guard enables the runtime
// invariant guard; --detect enables the online changepoint detector over the
// junctions' sensor streams (docs/CHANGEPOINT.md), reporting regime-shift
// events, and --detect-adapt additionally lets detections re-tune the
// controllers; --tick-budget and --retries configure the experiment
// runner's per-run deadline and retry policy in --replications mode, where
// per-seed statuses (ok / timeout / error) are reported and the summary is
// computed over the runs that completed.
//
// Surrogate pipeline (docs/PERFORMANCE.md, "Surrogate throughput"):
// --calibrate fits the queue backend to the micro backend for the merged
// base configuration and prints the CalibrationProfile JSON to stdout (pipe
// to a file; --replications sets the paired replications per candidate).
// --surrogate-sweep runs the controller x pattern x period grid given by the
// comma-separated --sweep-* lists on the calibrated queue backend, micro
// spot-checks the frontier (--spot-best-k plus a --spot-fraction stratified
// sample, --spot-replications micro seeds each), and prints per-metric
// surrogate error bars; --profile FILE supplies a saved profile (otherwise
// the sweep calibrates first), --report FILE also writes the full report
// JSON, and exit status 4 means some spot-checked config exceeded
// --trust-threshold relative error.
//
// Examples:
//   abp_cli --pattern I --controller util
//   abp_cli --pattern mixed --controller cap --period 20 --csv out/run1
//   abp_cli --pattern II --replications 10 --jobs 4
//   abp_cli --pattern II --duration 900 --incident 300 --guard record
//   abp_cli --scenario scenarios/rush_hour_ramp.json
//   abp_cli --scenario scenarios/baseline_3x3.json --controller fixed --dump-scenario
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "src/exp/experiment_runner.hpp"
#include "src/scenario/scenario.hpp"
#include "src/scenario/scenario_io.hpp"
#include "src/stats/student_t.hpp"
#include "src/surrogate/calibration_profile.hpp"
#include "src/surrogate/calibrator.hpp"
#include "src/surrogate/sweep.hpp"
#include "src/util/accumulator.hpp"
#include "src/util/csv.hpp"

namespace {

[[noreturn]] void usage_error(const char* message) {
  std::fprintf(stderr, "abp_cli: %s\n", message);
  std::fprintf(stderr,
               "usage: abp_cli [--scenario FILE] [--dump-scenario] "
               "[--print-schema-fields]\n"
               "               [--pattern I|II|III|IV|mixed] "
               "[--controller util|cap|orig|fixed]\n"
               "               [--duration S] [--period S] [--seed N] "
               "[--simulator micro|queue]\n"
               "               [--rows N] [--cols N] [--mixed-lanes] [--threads N]\n"
               "               [--replications N] [--jobs N]\n"
               "               [--allow-oversubscribe]\n"
               "               [--csv PREFIX]\n"
               "               [--incident T] "
               "[--fault-capacity R,C,SIDE,START,END,FACTOR]\n"
               "               [--fault-sensor R,C,KIND,START,END[,BIAS[,MAG]]]\n"
               "               [--fault-controller R,C,FAIL[,RECOVER]]\n"
               "               [--guard throw|record|abort] [--guard-interval S]\n"
               "               [--detect] [--detect-adapt]\n"
               "               [--tick-budget N] [--retries N]\n"
               "               [--calibrate] [--surrogate-sweep] [--profile FILE]\n"
               "               [--report FILE] [--sweep-controllers LIST]\n"
               "               [--sweep-patterns LIST] [--sweep-periods LIST]\n"
               "               [--spot-best-k N] [--spot-fraction F]\n"
               "               [--spot-replications N] [--trust-threshold X]\n");
  std::exit(2);
}

// Enum flags spell their values exactly as scenario files do: the lookup
// goes through the schema's token tables.
template <typename E, std::size_t N>
E parse_token(const std::string& s, const abp::scenario::Token<E> (&table)[N],
              const char* flag) {
  if (const E* value = abp::scenario::find_token(s, table)) return *value;
  usage_error((std::string(flag) + ": unknown value \"" + s + "\"; " +
               abp::scenario::expected_tokens(table))
                  .c_str());
}

std::vector<std::string> split_fields(const std::string& s) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      fields.push_back(s.substr(start));
      return fields;
    }
    fields.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
}

// --- Strict numeric parsing -------------------------------------------------
// std::atoi/atof silently return 0 on garbage, so "--threads abc" used to run
// (and then fail the range check with a misleading message) and "--seed 1x"
// quietly dropped the "x". Every numeric flag instead goes through these:
// the whole token must parse, and it must fit the target type, or the run
// exits with a usage error naming the flag.

[[noreturn]] void bad_number(const char* flag, const std::string& s) {
  usage_error((std::string(flag) + ": invalid number \"" + s + "\"").c_str());
}

long long parse_i64(const std::string& s, const char* flag) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (s.empty() || end != s.c_str() + s.size() || errno == ERANGE) bad_number(flag, s);
  return v;
}

int parse_int(const std::string& s, const char* flag) {
  const long long v = parse_i64(s, flag);
  if (v < std::numeric_limits<int>::min() || v > std::numeric_limits<int>::max()) {
    bad_number(flag, s);
  }
  return static_cast<int>(v);
}

std::uint64_t parse_u64(const std::string& s, const char* flag) {
  if (s.empty() || s[0] == '-') bad_number(flag, s);
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size() || errno == ERANGE) bad_number(flag, s);
  return v;
}

// Finite values only: strtod also accepts "nan" and "inf", which no flag
// means (a NaN slips past every `<= 0` range check).
double parse_double(const std::string& s, const char* flag) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || end != s.c_str() + s.size() || errno == ERANGE || !std::isfinite(v)) {
    bad_number(flag, s);
  }
  return v;
}

// A time that may be infinite: a number, or the literal "inf".
double parse_time(const std::string& s, const char* flag) {
  if (s == "inf") return std::numeric_limits<double>::infinity();
  return parse_double(s, flag);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace abp;

  traffic::PatternKind pattern = traffic::PatternKind::II;
  core::ControllerType controller = core::ControllerType::UtilBp;
  double duration = 0.0;
  double period = 16.0;
  std::uint64_t seed = 42;
  scenario::SimulatorKind simulator = scenario::SimulatorKind::Micro;
  int rows = 3, cols = 3;
  int threads = 1;
  // Which base-config fields were explicitly set on the command line. With
  // --scenario the file is the base and only explicit flags override it;
  // without, the paper defaults are the base and the distinction is invisible.
  bool pattern_set = false, controller_set = false, period_set = false;
  bool duration_set = false, seed_set = false, simulator_set = false;
  bool rows_set = false, cols_set = false, threads_set = false;
  bool guard_set = false, guard_interval_set = false;
  std::string scenario_file;
  bool dump_scenario_flag = false;
  bool print_schema_fields = false;
  int replications = 1;
  int jobs = 1;
  long long tick_budget = 0;
  int retries = 0;
  bool allow_oversubscribe = false;
  bool mixed_lanes = false;
  double incident_at = -1.0;
  bool detect_set = false;
  bool detect_adapt = false;
  scenario::FaultSchedule faults;
  scenario::GuardConfig guard;
  std::string csv_prefix;
  bool calibrate_mode = false;
  bool sweep_mode = false;
  std::string profile_file;
  std::string report_file;
  // Sweep axes as the raw comma-separated flag values; parsed after the flag
  // loop, before any calibration work, so error messages can name the flag.
  std::string sweep_controllers = "util,cap,orig,fixed";
  std::string sweep_patterns = "I,II,III,IV";
  std::string sweep_periods = "12,16,20";
  surrogate::SweepOptions sweep_options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--scenario") {
      scenario_file = value();
    } else if (arg == "--dump-scenario") {
      dump_scenario_flag = true;
    } else if (arg == "--print-schema-fields") {
      print_schema_fields = true;
    } else if (arg == "--pattern") {
      pattern = parse_token(value(), scenario::kPatternTokens, "--pattern");
      pattern_set = true;
    } else if (arg == "--controller") {
      controller = parse_token(value(), scenario::kControllerTypeTokens, "--controller");
      controller_set = true;
    } else if (arg == "--duration") {
      duration = parse_double(value(), "--duration");
      duration_set = true;
    } else if (arg == "--period") {
      period = parse_double(value(), "--period");
      period_set = true;
    } else if (arg == "--seed") {
      seed = parse_u64(value(), "--seed");
      seed_set = true;
    } else if (arg == "--simulator") {
      simulator = parse_token(value(), scenario::kSimulatorTokens, "--simulator");
      simulator_set = true;
    } else if (arg == "--rows") {
      rows = parse_int(value(), "--rows");
      rows_set = true;
    } else if (arg == "--cols") {
      cols = parse_int(value(), "--cols");
      cols_set = true;
    } else if (arg == "--threads") {
      threads = parse_int(value(), "--threads");
      threads_set = true;
    } else if (arg == "--replications") {
      replications = parse_int(value(), "--replications");
    } else if (arg == "--jobs") {
      jobs = parse_int(value(), "--jobs");
    } else if (arg == "--tick-budget") {
      tick_budget = parse_i64(value(), "--tick-budget");
    } else if (arg == "--retries") {
      retries = parse_int(value(), "--retries");
    } else if (arg == "--allow-oversubscribe") {
      allow_oversubscribe = true;
    } else if (arg == "--mixed-lanes") {
      mixed_lanes = true;
    } else if (arg == "--incident") {
      incident_at = parse_double(value(), "--incident");
    } else if (arg == "--fault-capacity") {
      const std::vector<std::string> f = split_fields(value());
      if (f.size() != 6) usage_error("--fault-capacity needs R,C,SIDE,START,END,FACTOR");
      scenario::CapacityFault fault;
      fault.road = {parse_int(f[0], "--fault-capacity row"),
                    parse_int(f[1], "--fault-capacity col"),
                    parse_token(f[2], scenario::kSideTokens, "--fault-capacity side")};
      fault.start_s = parse_time(f[3], "--fault-capacity start");
      fault.end_s = parse_time(f[4], "--fault-capacity end");
      fault.capacity_factor = parse_double(f[5], "--fault-capacity factor");
      faults.capacity.push_back(fault);
    } else if (arg == "--fault-sensor") {
      const std::vector<std::string> f = split_fields(value());
      if (f.size() < 5 || f.size() > 7) {
        usage_error("--fault-sensor needs R,C,KIND,START,END[,BIAS[,MAG]]");
      }
      scenario::SensorFault fault;
      fault.node = {parse_int(f[0], "--fault-sensor row"),
                    parse_int(f[1], "--fault-sensor col")};
      fault.kind = parse_token(f[2], scenario::kSensorFaultTokens, "--fault-sensor kind");
      fault.start_s = parse_time(f[3], "--fault-sensor start");
      fault.end_s = parse_time(f[4], "--fault-sensor end");
      if (f.size() > 5) fault.bias = parse_int(f[5], "--fault-sensor bias");
      if (f.size() > 6) {
        fault.noise_magnitude = parse_int(f[6], "--fault-sensor magnitude");
      }
      faults.sensors.push_back(fault);
    } else if (arg == "--fault-controller") {
      const std::vector<std::string> f = split_fields(value());
      if (f.size() < 3 || f.size() > 4) {
        usage_error("--fault-controller needs R,C,FAIL[,RECOVER]");
      }
      scenario::ControllerFault fault;
      fault.node = {parse_int(f[0], "--fault-controller row"),
                    parse_int(f[1], "--fault-controller col")};
      fault.fail_s = parse_time(f[2], "--fault-controller fail");
      if (f.size() > 3) fault.recover_s = parse_time(f[3], "--fault-controller recover");
      faults.controllers.push_back(fault);
    } else if (arg == "--guard") {
      guard.enabled = true;
      guard.policy = parse_token(value(), scenario::kGuardPolicyTokens, "--guard");
      guard_set = true;
    } else if (arg == "--guard-interval") {
      guard.interval_s = parse_double(value(), "--guard-interval");
      guard_interval_set = true;
    } else if (arg == "--detect") {
      detect_set = true;
    } else if (arg == "--detect-adapt") {
      detect_set = true;
      detect_adapt = true;
    } else if (arg == "--csv") {
      csv_prefix = value();
    } else if (arg == "--calibrate") {
      calibrate_mode = true;
    } else if (arg == "--surrogate-sweep") {
      sweep_mode = true;
    } else if (arg == "--profile") {
      profile_file = value();
    } else if (arg == "--report") {
      report_file = value();
    } else if (arg == "--sweep-controllers") {
      sweep_controllers = value();
    } else if (arg == "--sweep-patterns") {
      sweep_patterns = value();
    } else if (arg == "--sweep-periods") {
      sweep_periods = value();
    } else if (arg == "--spot-best-k") {
      sweep_options.best_k = parse_int(value(), "--spot-best-k");
    } else if (arg == "--spot-fraction") {
      sweep_options.sample_fraction = parse_double(value(), "--spot-fraction");
    } else if (arg == "--spot-replications") {
      sweep_options.spot_replications = parse_int(value(), "--spot-replications");
    } else if (arg == "--trust-threshold") {
      sweep_options.trust_threshold = parse_double(value(), "--trust-threshold");
    } else if (arg == "--help" || arg == "-h") {
      usage_error("help requested");
    } else {
      usage_error(("unknown argument " + arg).c_str());
    }
  }

  if (print_schema_fields) {
    for (const std::string& path : scenario::schema_field_paths()) {
      std::printf("%s\n", path.c_str());
    }
    return 0;
  }

  if (duration_set && !(duration > 0.0)) usage_error("--duration must be > 0");
  if (threads < 1 || threads > 256) usage_error("--threads must be in [1, 256]");
  if (replications < 1) usage_error("--replications must be >= 1");
  if (jobs < 1 || jobs > 256) usage_error("--jobs must be in [1, 256]");
  if (jobs > 1 && replications == 1 && !calibrate_mode && !sweep_mode) {
    usage_error("--jobs only applies to --replications batches or surrogate modes");
  }
  if (sweep_options.best_k < 0) usage_error("--spot-best-k must be >= 0");
  if (sweep_options.sample_fraction < 0.0) {
    usage_error("--spot-fraction must be >= 0");
  }
  if (sweep_options.spot_replications < 1) {
    usage_error("--spot-replications must be >= 1");
  }
  if (!(sweep_options.trust_threshold > 0.0)) {
    usage_error("--trust-threshold must be > 0");
  }
  if (!profile_file.empty() && !(calibrate_mode || sweep_mode)) {
    usage_error("--profile only applies to --surrogate-sweep (or --calibrate)");
  }
  if (!report_file.empty() && !sweep_mode) {
    usage_error("--report only applies to --surrogate-sweep");
  }
  surrogate::SweepAxes axes;
  for (const std::string& c : split_fields(sweep_controllers)) {
    axes.controllers.push_back(
        parse_token(c, scenario::kControllerTypeTokens, "--sweep-controllers"));
  }
  for (const std::string& p : split_fields(sweep_patterns)) {
    axes.patterns.push_back(parse_token(p, scenario::kPatternTokens, "--sweep-patterns"));
  }
  for (const std::string& p : split_fields(sweep_periods)) {
    axes.periods_s.push_back(parse_double(p, "--sweep-periods"));
  }
  if (tick_budget < 0) usage_error("--tick-budget must be >= 0");
  if (retries < 0) usage_error("--retries must be >= 0");
  if ((tick_budget > 0 || retries > 0) && replications == 1) {
    usage_error("--tick-budget/--retries only apply to --replications batches");
  }

  // Base configuration: the scenario file when given, the paper setup
  // otherwise. Explicit flags then override field by field, so
  // `--scenario X --seed 7` is X's run at a different seed, nothing more.
  scenario::ScenarioConfig cfg;
  if (!scenario_file.empty()) {
    try {
      cfg = scenario::load_scenario_file(scenario_file);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "abp_cli: %s: %s\n", scenario_file.c_str(), e.what());
      return 1;
    }
  } else {
    cfg = scenario::paper_scenario(pattern, controller, period);
  }
  if (pattern_set) {
    cfg.demand.pattern = pattern;
    // One demand description wins: an explicit pattern replaces a scenario
    // file's time-varying segment schedule rather than silently coexisting.
    cfg.demand.schedule = traffic::DemandSchedule{};
  }
  if (controller_set) cfg.controller.type = controller;
  if (period_set) cfg.controller.fixed_slot.period_s = period;
  if (seed_set) cfg.seed = seed;
  if (simulator_set) cfg.simulator = simulator;
  if (rows_set) cfg.grid.rows = rows;
  if (cols_set) cfg.grid.cols = cols;
  if (mixed_lanes) cfg.micro.dedicated_turn_lanes = false;
  if (threads_set) cfg.micro.threads = threads;
  if (duration_set) cfg.duration_s = duration;
  if (guard_set) {
    cfg.guard.enabled = true;
    cfg.guard.policy = guard.policy;
  }
  if (guard_interval_set) cfg.guard.interval_s = guard.interval_s;
  if (detect_set) cfg.detector.enabled = true;
  if (detect_adapt) cfg.detector.adapt = true;

  if (incident_at >= 0.0) {
    // Canned mixed incident starting at T, sized so every piece fires on any
    // grid: a lane closure to 30% capacity on the top-right junction's north
    // approach with restoration, dead detectors at the top-left junction, and
    // a controller outage with recovery at the center junction.
    const double t0 = incident_at;
    faults.capacity.push_back(
        {{0, cfg.grid.cols - 1, net::Side::North}, t0, t0 + 300.0, 0.3});
    faults.sensors.push_back(
        {{0, 0}, t0, t0 + 120.0, core::SensorFaultKind::Dropout, 0, 0});
    faults.controllers.push_back(
        {{cfg.grid.rows / 2, cfg.grid.cols / 2}, t0, t0 + 180.0});
  }
  // CLI faults append to (never replace) whatever the scenario file declares.
  cfg.faults.capacity.insert(cfg.faults.capacity.end(), faults.capacity.begin(),
                             faults.capacity.end());
  cfg.faults.sensors.insert(cfg.faults.sensors.end(), faults.sensors.begin(),
                            faults.sensors.end());
  cfg.faults.controllers.insert(cfg.faults.controllers.end(),
                                faults.controllers.begin(), faults.controllers.end());

  if (dump_scenario_flag) {
    try {
      std::fputs(scenario::dump_scenario(cfg).c_str(), stdout);
      return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "abp_cli: error: %s\n", e.what());
      return 1;
    }
  }

  if (calibrate_mode || sweep_mode) {
    try {
      surrogate::CalibrationProfile profile;
      if (!profile_file.empty()) {
        profile = surrogate::load_profile_file(profile_file);
      } else {
        surrogate::CalibrationOptions copt;
        copt.jobs = jobs;
        copt.allow_oversubscribe = allow_oversubscribe;
        if (replications > 1) copt.replications = replications;
        profile = surrogate::calibrate(cfg, copt);
        std::fprintf(stderr,
                     "abp_cli: calibrated profile=%s service_scale=%.4f "
                     "transit_scale=%.4f capacity_scale=%.4f objective=%.6f "
                     "evaluations=%d\n",
                     profile.name.c_str(), profile.service_scale,
                     profile.transit_scale, profile.capacity_scale,
                     profile.objective, profile.evaluations);
      }
      if (calibrate_mode && !sweep_mode) {
        std::fputs(surrogate::dump_profile(profile).c_str(), stdout);
        return 0;
      }

      sweep_options.jobs = jobs;
      sweep_options.allow_oversubscribe = allow_oversubscribe;

      const surrogate::SweepReport report =
          surrogate::surrogate_sweep(cfg, profile, axes, sweep_options);
      std::printf("sweep points=%zu spot_checks=%d flagged=%d jobs=%d profile=%s\n",
                  report.rows.size(), report.spot_checks, report.flagged, jobs,
                  report.profile.name.c_str());
      for (const surrogate::MetricErrorBar& bar : report.error_bars) {
        std::printf(
            "error_bar metric=%s samples=%d mean_rel_err=%.4f ci95_halfwidth=%.4f "
            "max_rel_err=%.4f\n",
            bar.metric.c_str(), bar.samples, bar.mean_relative_error,
            bar.ci95_halfwidth, bar.max_relative_error);
      }
      // The frontier the sweep exists to find: best-ranked configs first.
      std::vector<const surrogate::SweepRow*> by_rank(report.rows.size());
      for (const surrogate::SweepRow& row : report.rows) {
        by_rank[static_cast<std::size_t>(row.rank)] = &row;
      }
      const std::size_t shown = by_rank.size() < 10 ? by_rank.size() : 10;
      for (std::size_t r = 0; r < shown; ++r) {
        const surrogate::SweepRow& row = *by_rank[r];
        std::printf(
            "rank=%zu controller=%s pattern=%s period_s=%.0f avg_queuing_s=%.2f%s\n", r,
            core::controller_type_name(row.point.controller).c_str(),
            traffic::pattern_name(row.point.pattern).c_str(), row.point.period_s,
            row.surrogate[0],
            row.spot_checked ? (row.spot.trusted ? " spot=ok" : " spot=FLAGGED") : "");
      }
      if (!report_file.empty()) {
        std::ofstream out(report_file, std::ios::binary);
        if (!out) {
          std::fprintf(stderr, "abp_cli: cannot write %s\n", report_file.c_str());
          return 1;
        }
        out << surrogate::dump_report(report);
        std::printf("report written: %s\n", report_file.c_str());
      }
      return report.flagged > 0 ? 4 : 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "abp_cli: error: %s\n", e.what());
      return 1;
    }
  }

  // The two axes multiply: each of the concurrent runs spins up the selected
  // backend's tick-level sweep workers. At most min(jobs, replications) runs
  // are ever in flight, so judge that; reject silent oversubscription here
  // with a friendlier message than the experiment runner's exception.
  const int tick = scenario::tick_threads(cfg);
  const int concurrent_runs = jobs < replications ? jobs : replications;
  const unsigned hc = std::thread::hardware_concurrency();
  if (!allow_oversubscribe && concurrent_runs > 1 && hc > 0 &&
      static_cast<long long>(concurrent_runs) * tick > static_cast<long long>(hc)) {
    std::fprintf(stderr,
                 "abp_cli: %d concurrent runs (min of --jobs %d and --replications %d) "
                 "x %d tick threads = %d workers oversubscribes this machine's %u "
                 "hardware threads;\nlower --jobs or --threads, or pass "
                 "--allow-oversubscribe (results are bit-identical either way, only "
                 "slower)\n",
                 concurrent_runs, jobs, replications, tick, concurrent_runs * tick, hc);
    return 2;
  }

  try {
    if (replications > 1) {
      // Batch mode: per-seed replication fleet through the experiment runner,
      // with per-run statuses — a failing or deadline-hitting seed never
      // takes its siblings' results down with it.
      exp::ExperimentRunner runner({.jobs = jobs,
                                    .allow_oversubscribe = allow_oversubscribe,
                                    .tick_budget = tick_budget,
                                    .retries = retries});
      const std::vector<exp::RunStatus> statuses =
          runner.run_statuses(exp::replication_configs(cfg, replications));
      std::printf(
          "pattern=%s controller=%s simulator=%s grid=%dx%d duration=%.0fs "
          "replications=%d jobs=%d\n",
          traffic::pattern_name(cfg.demand.pattern).c_str(),
          core::controller_type_name(cfg.controller.type).c_str(),
          cfg.simulator == scenario::SimulatorKind::Micro ? "micro" : "queue",
          cfg.grid.rows, cfg.grid.cols, cfg.duration_s, replications, jobs);

      Accumulator acc;
      std::size_t errors = 0;
      std::size_t guard_violations = 0;
      std::size_t detections_total = 0;
      for (std::size_t i = 0; i < statuses.size(); ++i) {
        const exp::RunStatus& s = statuses[i];
        const unsigned long long run_seed = static_cast<unsigned long long>(cfg.seed + i);
        switch (s.outcome) {
          case exp::RunStatus::Outcome::Ok:
            std::printf("seed=%llu avg_queuing_s=%.2f\n", run_seed,
                        s.result.metrics.average_queuing_time_s());
            acc.add(s.result.metrics.average_queuing_time_s());
            guard_violations += s.result.guard.violations.size();
            detections_total += s.result.detections.events.size();
            break;
          case exp::RunStatus::Outcome::Timeout:
            // Partial result: valid up to the truncated horizon, excluded
            // from the summary (mixing horizons would skew the mean).
            std::printf("seed=%llu status=timeout t=%.0fs avg_queuing_s=%.2f (partial)\n",
                        run_seed, s.result.duration_s,
                        s.result.metrics.average_queuing_time_s());
            guard_violations += s.result.guard.violations.size();
            break;
          case exp::RunStatus::Outcome::Error:
            std::printf("seed=%llu status=error attempts=%d error=%s\n", run_seed,
                        s.attempts, s.error.c_str());
            errors += 1;
            break;
        }
      }
      const int ok_count = static_cast<int>(acc.count());
      if (ok_count > 0) {
        const double ci =
            ok_count > 1 ? stats::student_t_quantile(0.975, ok_count - 1) * acc.stddev() /
                               std::sqrt(static_cast<double>(ok_count))
                         : 0.0;
        std::printf(
            "ok=%d/%d mean_s=%.2f stddev_s=%.2f ci95_halfwidth_s=%.2f (Student-t, "
            "df=%d)\n",
            ok_count, replications, acc.mean(), acc.stddev(), ci, ok_count - 1);
      } else {
        std::printf("ok=0/%d (no completed runs to summarize)\n", replications);
      }
      if (cfg.guard.enabled) {
        std::printf("guard_violations=%zu\n", guard_violations);
      }
      if (cfg.detector.enabled) {
        std::printf("detections_total=%zu\n", detections_total);
      }
      if (!csv_prefix.empty()) {
        std::ofstream out(csv_prefix + "_replications.csv");
        CsvWriter w(out);
        w.row({"seed", "status", "avg_queuing_s"});
        for (std::size_t i = 0; i < statuses.size(); ++i) {
          const exp::RunStatus& s = statuses[i];
          const char* status_name = s.outcome == exp::RunStatus::Outcome::Ok ? "ok"
                                    : s.outcome == exp::RunStatus::Outcome::Timeout
                                        ? "timeout"
                                        : "error";
          w.typed_row(static_cast<unsigned long long>(cfg.seed + i), status_name,
                      s.ok() || s.outcome == exp::RunStatus::Outcome::Timeout
                          ? s.result.metrics.average_queuing_time_s()
                          : 0.0);
        }
        std::printf("csv written: %s_replications.csv\n", csv_prefix.c_str());
      }
      if (errors > 0) return 1;
      if (cfg.guard.enabled && guard_violations > 0) return 3;
      return 0;
    }

    // Watch the north approach of the top-right junction (Fig. 5's setup uses
    // the east approach; north is present in every grid size) unless the
    // scenario file already declares watches. Single-run mode only: the
    // replication summary never reads the series, so batch runs skip the
    // per-tick sampling and storage.
    if (cfg.watches.empty()) {
      cfg.watches.push_back({.row = 0,
                             .col = cfg.grid.cols - 1,
                             .side = net::Side::North,
                             .name = "watch"});
    }

    const stats::RunResult r = scenario::run_scenario(cfg);

    std::printf(
        "pattern=%s controller=%s simulator=%s grid=%dx%d duration=%.0fs seed=%llu\n",
        traffic::pattern_name(cfg.demand.pattern).c_str(),
        core::controller_type_name(cfg.controller.type).c_str(),
        cfg.simulator == scenario::SimulatorKind::Micro ? "micro" : "queue",
        cfg.grid.rows, cfg.grid.cols, r.duration_s,
        static_cast<unsigned long long>(cfg.seed));
    std::printf("generated=%zu entered=%zu completed=%zu in_network_at_end=%zu\n",
                r.metrics.generated, r.metrics.entered, r.metrics.completed,
                r.metrics.in_network_at_end);
    std::printf(
        "avg_queuing_s=%.2f avg_travel_s=%.2f p50_queuing_s=%.2f p95_queuing_s=%.2f\n",
        r.metrics.average_queuing_time_s(), r.metrics.average_travel_time_s(),
        r.metrics.queuing_time_s.quantile(0.5), r.metrics.queuing_time_s.quantile(0.95));
    if (cfg.guard.enabled) {
      std::printf("guard_checks=%zu guard_violations=%zu\n", r.guard.checks,
                  r.guard.violations.size());
      for (std::size_t i = 0; i < r.guard.violations.size() && i < 3; ++i) {
        std::printf("guard: %s\n", r.guard.violations[i].message.c_str());
      }
    }
    if (cfg.detector.enabled) {
      std::printf("detections=%zu detector_samples=%zu\n", r.detections.events.size(),
                  r.detections.samples);
      for (std::size_t i = 0; i < r.detections.events.size() && i < 8; ++i) {
        const stats::DetectionEvent& e = r.detections.events[i];
        std::string links;
        for (std::size_t j = 0; j < e.links.size(); ++j) {
          if (j > 0) links += ",";
          links += std::to_string(e.links[j]);
        }
        std::printf("detect: t=%.0fs junction=(%d,%d) shift=%s stat=%.1f links=%s\n",
                    e.time_s, e.row, e.col, e.direction > 0 ? "up" : "down",
                    e.statistic, links.c_str());
      }
    }

    if (!csv_prefix.empty()) {
      {
        std::ofstream out(csv_prefix + "_queue.csv");
        CsvWriter w(out);
        w.row({"time_s", "queued_vehicles"});
        const auto& series = r.road_series.front();
        for (std::size_t i = 0; i < series.size(); ++i) {
          w.typed_row(series.times()[i], series.values()[i]);
        }
      }
      {
        std::ofstream out(csv_prefix + "_phases.csv");
        CsvWriter w(out);
        w.row({"time_s", "phase"});
        for (const auto& s :
             r.phase_traces[static_cast<std::size_t>(cfg.grid.cols - 1)].samples()) {
          w.typed_row(s.time, s.phase);
        }
      }
      std::printf("csv written: %s_queue.csv, %s_phases.csv\n", csv_prefix.c_str(),
                  csv_prefix.c_str());
    }
    if (cfg.guard.enabled && !r.guard.violations.empty()) return 3;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "abp_cli: error: %s\n", e.what());
    return 1;
  }
}
