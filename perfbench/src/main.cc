// The ModelHub end-to-end benchmark binary. Usage:
//   perfbench --workload ingest|serve|maintain --seed N --seconds S
//             --trace 0|1 --workdir DIR [--trace-out FILE]
// Prints diagnostics on stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics, traced runs the per-layer ones of all
// three workloads (the named one first, at full length).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"

namespace {

/// Timed phase of each workload a traced run adds for its layers.
constexpr double kLayersOnlySeconds = 4.0;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "ingest|serve|maintain --seed N --seconds S --trace 0|1 "
               "--workdir DIR [--trace-out FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  options.process_start = Clock::now();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else if (flag == "--trace-out") {
      options.trace_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (options.workdir.empty()) return Usage("--workdir is required");
  if (!(options.seconds > 0.0)) return Usage("--seconds must be positive");

  using Workload = modelhub::Status (*)(const RunOptions&, SpanRecorder*,
                                        RunResult*);
  const std::vector<std::pair<std::string, Workload>> workloads = {
      {"ingest", RunIngest}, {"serve", RunServe}, {"maintain", RunMaintain}};
  std::vector<std::pair<std::string, Workload>> order;
  for (const auto& workload : workloads) {
    if (workload.first == options.workload) order.push_back(workload);
  }
  if (order.empty()) {
    return Usage(("unknown workload \"" + options.workload + "\"").c_str());
  }
  // A traced run reports every per-layer metric, so after the named
  // workload it runs the other two for their layers, with short timed
  // phases.
  if (options.trace) {
    for (const auto& workload : workloads) {
      if (workload.first != options.workload) order.push_back(workload);
    }
  }

  SpanRecorder spans(options.trace, options.process_start);
  RunResult result;
  for (size_t i = 0; i < order.size(); ++i) {
    RunOptions run = options;
    if (i > 0) {
      run.workload = order[i].first;
      run.layers_only = true;
      run.seconds = std::min(options.seconds, kLayersOnlySeconds);
    }
    const modelhub::Status status = order[i].second(run, &spans, &result);
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: %s set-up failed: %s\n",
                   run.workload.c_str(), status.ToString().c_str());
      return 1;
    }
  }
  if (options.trace && !options.trace_path.empty()) {
    modelhub::Status written = spans.WriteJson(options.trace_path);
    if (!written.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", written.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "spans written to %s\n", options.trace_path.c_str());
  }
  std::printf("%s\n", result.ToJson().c_str());
  std::fflush(stdout);
  return 0;
}
