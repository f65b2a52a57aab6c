// perfbench: the end-to-end benchmark of the ABP simulators (README.md).
//
//   perfbench --workload <paper_table3|metro_light|queue_heavy> --seed <n>
//             --seconds <s> --trace <0|1> [--smoke] [--commit <sha>]
//
// Prints a header line, one line per metric (name, value, unit, seed), and
// as its last line one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. Exits 1 when any correctness check failed, 2 on bad usage.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/src/gate.hpp"
#include "perfbench/src/host.hpp"
#include "perfbench/src/measure.hpp"
#include "perfbench/src/workloads.hpp"

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string commit = "unknown";
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--smoke] [--commit <sha>]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + std::string(flag));
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        a.workload = value;
        used = value.size();
      } else if (flag == "--seed") {
        if (value.empty() || value[0] == '-') usage("--seed must be a non-negative integer");
        a.seed = std::stoull(value, &used);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value, &used);
        if (!(a.seconds > 0.0)) usage("--seconds must be positive");
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
        used = value.size();
      } else if (flag == "--commit") {
        a.commit = value;
        used = value.size();
      } else {
        usage("unknown flag " + std::string(flag));
      }
      if (used != value.size()) usage("bad value for " + std::string(flag));
    } catch (const std::logic_error&) {
      usage("bad value for " + std::string(flag));
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

// JSON string literal for the plain ASCII strings the header carries.
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    const perfbench::Workload workload =
        perfbench::make_workload(args.workload, args.seed, args.smoke);
    const perfbench::HostInfo host = perfbench::measure_host();
    std::cout << "header {\"workload\": " << quoted(workload.name)
              << ", \"seed\": " << args.seed << ", \"seconds\": " << number(args.seconds)
              << ", \"trace\": " << (args.trace ? 1 : 0)
              << ", \"smoke\": " << (args.smoke ? "true" : "false")
              << ", \"runs\": " << workload.scenarios.size()
              << ", \"jobs\": " << workload.jobs << ", \"nproc\": " << host.nproc
              << ", \"hardware_concurrency\": " << host.hardware_concurrency
              << ", \"effective_cores\": " << number(host.effective_cores)
              << ", \"compiler\": " << quoted(PERFBENCH_COMPILER)
              << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
              << ", \"flags\": " << quoted(PERFBENCH_FLAGS)
              << ", \"commit\": " << quoted(args.commit) << "}" << std::endl;

    perfbench::Gate gate;
    std::vector<perfbench::Metric> metrics;
    if (args.trace) {
      metrics = perfbench::measure_traced(workload, args.seconds, gate);
    } else {
      metrics = perfbench::measure_untraced(workload, args.seconds, gate).metrics;
    }

    const char* mode = args.trace ? "traced" : "untraced";
    std::ostringstream json;
    json << "{\"correct\": " << (gate.failed() == 0 ? "true" : "false")
         << ", \"attempted\": " << gate.attempted() << ", \"failed\": " << gate.failed()
         << ", \"metrics\": {";
    bool first = true;
    for (const perfbench::Metric& m : metrics) {
      std::cout << "metric workload=" << workload.name << " seed=" << args.seed
                << " mode=" << mode << " " << m.name << "=" << number(m.value) << " "
                << m.unit << "\n";
      if (!m.in_result) continue;
      json << (first ? "" : ", ") << quoted(m.name) << ": {\"value\": " << number(m.value)
           << ", \"unit\": " << quoted(m.unit) << "}";
      first = false;
    }
    json << "}}";
    std::cout << json.str() << std::endl;
    return gate.failed() == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
