#include "bench.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "common/metrics.h"

namespace perfbench {

namespace fs = std::filesystem;

namespace {
/// Output checks that fail are logged to stderr up to this many times.
constexpr uint64_t kMaxLoggedCheckFailures = 20;

std::string ShortestDouble(double value) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return ec == std::errc() ? std::string(buf, end) : "0";
}
}  // namespace

void EndToEnd(const RunOptions& options, RunResult* result, std::string name,
              double value, std::string unit) {
  if (options.layers_only) return;
  if (options.trace) {
    // Traced runs report layers; their end-to-end values only serve the
    // tracing-overhead figure.
    std::fprintf(stderr, "traced end-to-end %s = %.6g %s\n", name.c_str(),
                 value, unit.c_str());
    return;
  }
  result->Add(std::move(name), value, std::move(unit));
}

void PerLayer(const RunOptions& options, RunResult* result, std::string name,
              double value, std::string unit) {
  if (options.trace && !result->Has(name)) {
    result->Add(std::move(name), value, std::move(unit));
  }
}

void RunResult::Attempt(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  attempted_ += n;
}

void RunResult::Fail(const std::string& what, const modelhub::Status& status) {
  std::lock_guard<std::mutex> lock(mu_);
  ++failed_;
  std::fprintf(stderr, "FAILED %s: %s\n", what.c_str(),
               status.ToString().c_str());
}

bool RunResult::Check(const std::string& what, const std::string& problem) {
  if (problem.empty()) return true;
  std::lock_guard<std::mutex> lock(mu_);
  correct_ = false;
  if (++check_failures_logged_ <= kMaxLoggedCheckFailures) {
    std::fprintf(stderr, "CHECK FAILED %s: %s\n", what.c_str(),
                 problem.c_str());
  }
  return false;
}

void RunResult::Add(std::string name, double value, std::string unit) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

bool RunResult::Has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Metric& metric : metrics_) {
    if (metric.name == name) return true;
  }
  return false;
}

std::string RunResult::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics_[i].name + "\": {\"value\": " +
           ShortestDouble(metrics_[i].value) + ", \"unit\": \"" +
           metrics_[i].unit + "\"}";
  }
  return out + "}}";
}

double Sum(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

uint64_t CounterValue(const char* name) {
  const modelhub::MetricsSnapshot snapshot =
      modelhub::MetricRegistry::Global()->Snapshot();
  const modelhub::MetricValue* value = snapshot.Find(name);
  return value == nullptr ? 0 : value->counter;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

modelhub::Status CopyTree(const std::string& from, const std::string& to) {
  RemoveTree(to);
  std::error_code ec;
  fs::copy(from, to, fs::copy_options::recursive, ec);
  if (ec) {
    return modelhub::Status::IOError("copy " + from + " -> " + to + ": " +
                                     ec.message());
  }
  return modelhub::Status::OK();
}

void RemoveTree(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

}  // namespace perfbench
