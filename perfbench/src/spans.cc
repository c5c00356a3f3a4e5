#include "spans.h"

#include <cstdio>
#include <cstring>

namespace perfbench {

namespace {
/// The innermost open scope on this thread (the parent of the next one).
thread_local SpanRecorder::Scope* current_scope = nullptr;
}  // namespace

SpanRecorder::SpanRecorder(bool enabled,
                           std::chrono::steady_clock::time_point origin)
    : enabled_(enabled), origin_(origin) {}

uint64_t SpanRecorder::NewRequest() {
  return enabled_ ? next_id_.fetch_add(1, std::memory_order_relaxed) : 0;
}

int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

void SpanRecorder::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

SpanRecorder::Scope::Scope(SpanRecorder* recorder, const char* name,
                           uint64_t request)
    : recorder_(recorder != nullptr && recorder->enabled() ? recorder
                                                           : nullptr) {
  if (recorder_ == nullptr) return;
  span_.name = name;
  span_.id = recorder_->next_id_.fetch_add(1, std::memory_order_relaxed);
  if (current_scope != nullptr) {
    span_.parent = current_scope->span_.id;
    span_.request = current_scope->span_.request;
  }
  if (request != 0) span_.request = request;
  outer_ = current_scope;
  current_scope = this;
  span_.start_ns = recorder_->NowNs();
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) return;
  span_.end_ns = recorder_->NowNs();
  recorder_->Record(span_);
  current_scope = outer_;
}

std::vector<double> SpanRecorder::DurationsMs(const char* name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (std::strcmp(span.name, name) == 0) out.push_back(span.ms());
  }
  return out;
}

modelhub::Status SpanRecorder::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return modelhub::Status::IOError("cannot write " + path);
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // One track per request keeps a request's nested spans together.
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"request\":%llu}}\n",
                 i == 0 ? "" : ",", s.name,
                 static_cast<unsigned long long>(s.request),
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(f, "]}\n");
  if (std::fclose(f) != 0) {
    return modelhub::Status::IOError("cannot close " + path);
  }
  return modelhub::Status::OK();
}

}  // namespace perfbench
