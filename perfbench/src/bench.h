// Shared types of the ModelHub end-to-end benchmark: run options, the
// result every workload fills in, and small statistics helpers.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "spans.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for repositories; the caller removes it.
  std::string workdir;
  /// Where the traced run writes its spans.
  std::string trace_path;
  /// Process start, the origin of setup_s.
  Clock::time_point process_start;
  /// Set on the other workloads a traced run adds after the named one, so
  /// that every traced run reports every per-layer metric. Their end-to-end
  /// values are not reported anywhere.
  bool layers_only = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `attempted`/`failed` count operations against the
/// program; `correct` is false once any output check fails on an operation
/// that did not fail. Thread-safe: serve's client threads record into it.
class RunResult {
 public:
  void Attempt(uint64_t n = 1);
  /// Counts a failed operation and logs its status to stderr.
  void Fail(const std::string& what, const modelhub::Status& status);
  /// Records an output check; an empty `problem` means the check passed.
  /// Returns true when it passed.
  bool Check(const std::string& what, const std::string& problem);
  void Add(std::string name, double value, std::string unit);
  bool Has(const std::string& name) const;

  /// The one-line JSON object the driver reads.
  std::string ToJson() const;

 private:
  mutable std::mutex mu_;
  bool correct_ = true;  ///< Guarded by mu_.
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t check_failures_logged_ = 0;
  std::vector<Metric> metrics_;
};

/// Reports an end-to-end metric: in the result of an untraced run, on
/// stderr in a traced one.
void EndToEnd(const RunOptions& options, RunResult* result, std::string name,
              double value, std::string unit);
/// Reports a per-layer metric (traced runs only). The first report of a
/// name wins: the named workload of a traced run runs first.
void PerLayer(const RunOptions& options, RunResult* result, std::string name,
              double value, std::string unit);

double Sum(const std::vector<double>& values);
/// Median (mean of the middle two for even sizes). 0 for an empty input.
double Median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1].
double Percentile(std::vector<double> values, double q);

/// Current value of a counter in the process-wide metric registry (0 if
/// it was never registered).
uint64_t CounterValue(const char* name);

/// Sum of regular-file sizes under `dir`, recursively.
uint64_t DirBytes(const std::string& dir);
/// Copies the tree `from` to `to`, replacing `to`.
modelhub::Status CopyTree(const std::string& from, const std::string& to);
/// Removes `dir` and everything under it (no error if absent).
void RemoveTree(const std::string& dir);

// Workload entry points. Each runs set-up (timed from process start into
// setup_s), the timed phase and the output checks. A non-OK return means
// set-up itself failed and there is no result to report.
modelhub::Status RunIngest(const RunOptions& options, SpanRecorder* spans,
                           RunResult* result);
modelhub::Status RunServe(const RunOptions& options, SpanRecorder* spans,
                          RunResult* result);
modelhub::Status RunMaintain(const RunOptions& options, SpanRecorder* spans,
                             RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
