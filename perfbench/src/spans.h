// In-memory span recording for the traced run. The benchmark wraps each
// call into a ModelHub layer in a Scope; spans carry a name, start, end,
// their parent span and a request id shared by all spans of one request.
// Nothing is recorded when the recorder is disabled (the untraced runs
// that produce the end-to-end metrics).

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

struct Span {
  const char* name = "";  ///< Static storage (a string literal).
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = root span.
  uint64_t request = 0;  ///< Shared by every span of one request.
  int64_t start_ns = 0;  ///< Relative to the recorder's origin.
  int64_t end_ns = 0;
  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

class SpanRecorder {
 public:
  SpanRecorder(bool enabled, std::chrono::steady_clock::time_point origin);
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }
  /// A fresh request id (0 when disabled).
  uint64_t NewRequest();

  /// Records one span from construction to destruction. Nested scopes on
  /// the same thread become children; a scope opened with request 0
  /// inherits its parent's request id.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, const char* name, uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;  ///< Null when recording is off.
    Span span_;
    Scope* outer_ = nullptr;
  };

  /// Durations in milliseconds of every recorded span named `name`.
  std::vector<double> DurationsMs(const char* name) const;
  /// Writes all spans as Chrome trace-event JSON (loadable in Perfetto).
  modelhub::Status WriteJson(const std::string& path) const;

 private:
  int64_t NowNs() const;
  void Record(const Span& span);

  const bool enabled_;
  const std::chrono::steady_clock::time_point origin_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< Guarded by mu_.
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
