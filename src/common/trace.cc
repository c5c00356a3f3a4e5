#include "common/trace.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "common/coding.h"
#include "common/json.h"
#include "common/macros.h"
#include "common/metrics.h"
#include "common/random.h"

namespace modelhub {

namespace {

/// Current open span on this thread (0 = none); children parent to it.
thread_local uint64_t tls_current_span = 0;

/// Small stable per-thread id, assigned lazily under the recorder lock.
thread_local uint64_t tls_thread_id = 0;

/// The thread's distributed-tracing context (inactive by default).
thread_local TraceContext tls_context;

void AppendAnnotations(
    std::string* out,
    const std::vector<std::pair<std::string, std::string>>& annotations) {
  out->push_back('{');
  for (size_t i = 0; i < annotations.size(); ++i) {
    if (i > 0) out->push_back(',');
    AppendJsonString(out, annotations[i].first);
    out->push_back(':');
    AppendJsonString(out, annotations[i].second);
  }
  out->push_back('}');
}

std::string TraceIdHexOf(uint64_t hi, uint64_t lo) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

uint64_t UnixMicrosNow() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

uint64_t TraceContext::deadline_remaining_ms() const {
  if (!has_deadline) return 0;
  const auto now = std::chrono::steady_clock::now();
  if (now >= deadline) return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
          .count());
}

std::string TraceContext::TraceIdHex() const {
  if (!active()) return "";
  return TraceIdHexOf(trace_hi, trace_lo);
}

const TraceContext& CurrentTraceContext() { return tls_context; }

void SetCurrentTraceContext(const TraceContext& context) {
  tls_context = context;
}

uint64_t CurrentSpanId() { return tls_current_span; }

ScopedTraceContext::ScopedTraceContext(const TraceContext& context)
    : previous_(tls_context) {
  tls_context = context;
}

ScopedTraceContext::~ScopedTraceContext() { tls_context = previous_; }

TraceContext MakeSampledTraceContext() {
  // Seed from wall clock + pid so concurrent clients on one host do not
  // collide; id must be non-zero to count as active.
  static std::atomic<uint64_t> counter{0};
  Rng rng(UnixMicrosNow() ^
          (static_cast<uint64_t>(::getpid()) << 32) ^
          counter.fetch_add(0x9E3779B9u, std::memory_order_relaxed));
  TraceContext ctx;
  do {
    ctx.trace_hi = rng.Next();
    ctx.trace_lo = rng.Next();
  } while (!ctx.active());
  ctx.sampled = true;
  return ctx;
}

TraceRecorder::TraceRecorder() : origin_(std::chrono::steady_clock::now()) {
  origin_unix_us_ = UnixMicrosNow();
  // Randomize the span-id base: the merged fleet trace keys parent/child
  // edges on span ids, and every process starting from 1 would collide.
  Rng rng(origin_unix_us_ ^ (static_cast<uint64_t>(::getpid()) << 17));
  next_id_.store(rng.Next() & 0x0000FFFFFFFFFFFFull,
                 std::memory_order_relaxed);
  ring_.reserve(capacity_);
}

TraceRecorder* TraceRecorder::Global() {
  static TraceRecorder* recorder = new TraceRecorder();
  return recorder;
}

uint64_t TraceRecorder::NowMicros() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - origin_)
          .count());
}

void TraceRecorder::SetCapacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = std::max<size_t>(1, capacity);
  ring_.clear();
  ring_.reserve(capacity_);
  next_slot_ = 0;
}

size_t TraceRecorder::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

void TraceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  next_slot_ = 0;
  total_ = 0;
}

void TraceRecorder::Record(TraceEvent event) {
  bool dropped = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (tls_thread_id == 0) tls_thread_id = ++next_thread_;
    event.thread_id = tls_thread_id;
    ++total_;
    if (ring_.size() < capacity_) {
      ring_.push_back(std::move(event));
    } else {
      // Ring full: overwrite the oldest surviving span.
      ring_[next_slot_] = std::move(event);
      next_slot_ = (next_slot_ + 1) % capacity_;
      dropped = true;
    }
  }
  if (dropped) MH_COUNTER("trace.dropped_events")->Increment();
}

std::vector<TraceEvent> TraceRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  // Oldest first: the slot at next_slot_ is the oldest once wrapped.
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_slot_ + i) % ring_.size()]);
  }
  return out;
}

uint64_t TraceRecorder::total_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

uint64_t TraceRecorder::dropped_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_ > ring_.size() ? total_ - ring_.size() : 0;
}

std::string TraceRecorder::ToJson() const {
  std::vector<TraceEvent> spans = Snapshot();
  std::string out = "{\"spans\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const TraceEvent& e = spans[i];
    if (i > 0) out.push_back(',');
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "{\"id\":%llu,\"parent\":%llu,\"name\":",
                  static_cast<unsigned long long>(e.id),
                  static_cast<unsigned long long>(e.parent_id));
    out += buf;
    AppendJsonString(&out, e.name);
    std::snprintf(buf, sizeof(buf),
                  ",\"start_us\":%llu,\"dur_us\":%llu,\"tid\":%llu,\"args\":",
                  static_cast<unsigned long long>(e.start_us),
                  static_cast<unsigned long long>(e.duration_us),
                  static_cast<unsigned long long>(e.thread_id));
    out += buf;
    AppendAnnotations(&out, e.annotations);
    out.push_back('}');
  }
  char tail[96];
  std::snprintf(tail, sizeof(tail), "],\"total\":%llu,\"dropped\":%llu}",
                static_cast<unsigned long long>(total_spans()),
                static_cast<unsigned long long>(dropped_spans()));
  out += tail;
  return out;
}

std::string TraceRecorder::ToChromeTraceJson() const {
  // chrome://tracing "complete event" format: one {"ph":"X"} record per
  // span; ts/dur in microseconds; pid fixed at 1.
  std::vector<TraceEvent> spans = Snapshot();
  std::string out = "[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const TraceEvent& e = spans[i];
    if (i > 0) out.push_back(',');
    out += "{\"name\":";
    AppendJsonString(&out, e.name);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  ",\"ph\":\"X\",\"ts\":%llu,\"dur\":%llu,\"pid\":1,"
                  "\"tid\":%llu,\"args\":",
                  static_cast<unsigned long long>(e.start_us),
                  static_cast<unsigned long long>(e.duration_us),
                  static_cast<unsigned long long>(e.thread_id));
    out += buf;
    AppendAnnotations(&out, e.annotations);
    out.push_back('}');
  }
  out += "]\n";
  return out;
}

TraceSpan::TraceSpan(const char* name) {
  TraceRecorder* recorder = TraceRecorder::Global();
  // The edge sampling decision outranks the local enable switch: a
  // sampled request records even on a recorder-disabled node, a
  // sampled-out one stays silent even on an enabled node.
  const TraceContext& ctx = tls_context;
  if (ctx.active() ? !ctx.sampled : !recorder->enabled()) return;
  recording_ = true;
  name_ = name;
  id_ = recorder->NextSpanId();
  previous_current_ = tls_current_span;
  // Roots adopt the remote caller's span id so the merged fleet trace
  // chains across processes.
  parent_id_ = tls_current_span != 0 ? tls_current_span : ctx.parent_span;
  trace_hi_ = ctx.trace_hi;
  trace_lo_ = ctx.trace_lo;
  tls_current_span = id_;
  start_us_ = recorder->NowMicros();
}

TraceSpan::~TraceSpan() {
  if (!recording_) return;
  TraceRecorder* recorder = TraceRecorder::Global();
  tls_current_span = previous_current_;
  TraceEvent event;
  event.id = id_;
  event.parent_id = parent_id_;
  event.name = name_;
  event.start_us = start_us_;
  const uint64_t end_us = recorder->NowMicros();
  event.duration_us = end_us > start_us_ ? end_us - start_us_ : 0;
  event.trace_hi = trace_hi_;
  event.trace_lo = trace_lo_;
  event.annotations = std::move(annotations_);
  if (tls_context.deadline_expired()) {
    // Wasted-work marker: this span closed after the client stopped
    // waiting for the answer.
    event.annotations.emplace_back("after_deadline", "true");
  }
  recorder->Record(std::move(event));
}

void TraceSpan::Annotate(const char* key, std::string value) {
  if (!recording_) return;
  annotations_.emplace_back(key, std::move(value));
}

TraceNodeDump CollectTraceDump(std::string node) {
  TraceRecorder* recorder = TraceRecorder::Global();
  TraceNodeDump dump;
  dump.node = std::move(node);
  dump.pid = static_cast<uint64_t>(::getpid());
  dump.origin_unix_us = recorder->origin_unix_us();
  dump.events = recorder->Snapshot();
  dump.total = recorder->total_spans();
  dump.dropped = recorder->dropped_spans();
  return dump;
}

namespace {

/// Node-section format version; bump when the layout below changes.
constexpr uint64_t kDumpVersion = 1;

}  // namespace

void AppendTraceDump(std::string* out, const TraceNodeDump& dump) {
  PutVarint64(out, kDumpVersion);
  PutLengthPrefixed(out, Slice(dump.node));
  PutVarint64(out, dump.pid);
  PutVarint64(out, dump.origin_unix_us);
  PutVarint64(out, dump.total);
  PutVarint64(out, dump.dropped);
  PutVarint64(out, dump.events.size());
  for (const TraceEvent& e : dump.events) {
    PutVarint64(out, e.id);
    PutVarint64(out, e.parent_id);
    PutVarint64(out, e.trace_hi);
    PutVarint64(out, e.trace_lo);
    PutLengthPrefixed(out, Slice(e.name));
    PutVarint64(out, e.start_us);
    PutVarint64(out, e.duration_us);
    PutVarint64(out, e.thread_id);
    PutVarint64(out, e.annotations.size());
    for (const auto& kv : e.annotations) {
      PutLengthPrefixed(out, Slice(kv.first));
      PutLengthPrefixed(out, Slice(kv.second));
    }
  }
}

Status ParseTraceDumps(Slice in, std::vector<TraceNodeDump>* out) {
  while (!in.empty()) {
    uint64_t version = 0;
    MH_RETURN_IF_ERROR(GetVarint64(&in, &version));
    if (version != kDumpVersion) {
      return Status::Corruption("unsupported trace dump version " +
                                std::to_string(version));
    }
    TraceNodeDump dump;
    Slice node;
    MH_RETURN_IF_ERROR(GetLengthPrefixed(&in, &node));
    dump.node = node.ToString();
    MH_RETURN_IF_ERROR(GetVarint64(&in, &dump.pid));
    MH_RETURN_IF_ERROR(GetVarint64(&in, &dump.origin_unix_us));
    MH_RETURN_IF_ERROR(GetVarint64(&in, &dump.total));
    MH_RETURN_IF_ERROR(GetVarint64(&in, &dump.dropped));
    uint64_t nevents = 0;
    MH_RETURN_IF_ERROR(GetVarint64(&in, &nevents));
    dump.events.reserve(static_cast<size_t>(std::min<uint64_t>(
        nevents, 1u << 20)));
    for (uint64_t i = 0; i < nevents; ++i) {
      TraceEvent e;
      MH_RETURN_IF_ERROR(GetVarint64(&in, &e.id));
      MH_RETURN_IF_ERROR(GetVarint64(&in, &e.parent_id));
      MH_RETURN_IF_ERROR(GetVarint64(&in, &e.trace_hi));
      MH_RETURN_IF_ERROR(GetVarint64(&in, &e.trace_lo));
      Slice name;
      MH_RETURN_IF_ERROR(GetLengthPrefixed(&in, &name));
      e.name = name.ToString();
      MH_RETURN_IF_ERROR(GetVarint64(&in, &e.start_us));
      MH_RETURN_IF_ERROR(GetVarint64(&in, &e.duration_us));
      MH_RETURN_IF_ERROR(GetVarint64(&in, &e.thread_id));
      uint64_t nann = 0;
      MH_RETURN_IF_ERROR(GetVarint64(&in, &nann));
      for (uint64_t a = 0; a < nann; ++a) {
        Slice key;
        Slice value;
        MH_RETURN_IF_ERROR(GetLengthPrefixed(&in, &key));
        MH_RETURN_IF_ERROR(GetLengthPrefixed(&in, &value));
        e.annotations.emplace_back(key.ToString(), value.ToString());
      }
      dump.events.push_back(std::move(e));
    }
    out->push_back(std::move(dump));
  }
  return Status::OK();
}

std::string MergeTraceDumps(const std::vector<TraceNodeDump>& dumps) {
  // Span id -> {dump index, absolute start} so cross-process parent
  // edges can be found and turned into wire.gap spans. Last writer wins
  // on the (astronomically unlikely) id collision.
  struct SpanHome {
    size_t dump = 0;
    uint64_t abs_start_us = 0;
  };
  std::unordered_map<uint64_t, SpanHome> by_id;
  for (size_t d = 0; d < dumps.size(); ++d) {
    for (const TraceEvent& e : dumps[d].events) {
      by_id[e.id] = SpanHome{d, dumps[d].origin_unix_us + e.start_us};
    }
  }

  std::string out = "[";
  bool first = true;
  auto separator = [&] {
    if (!first) out.push_back(',');
    first = false;
  };
  char buf[256];
  for (size_t d = 0; d < dumps.size(); ++d) {
    const TraceNodeDump& dump = dumps[d];
    separator();
    // Name the pid row after the node so the viewer shows
    // "modelhubd@host:port" instead of a bare number.
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%llu,"
                  "\"tid\":0,\"args\":{\"name\":",
                  static_cast<unsigned long long>(dump.pid));
    out += buf;
    AppendJsonString(&out, dump.node);
    out += "}}";
    for (const TraceEvent& e : dump.events) {
      const uint64_t abs_start = dump.origin_unix_us + e.start_us;
      separator();
      out += "{\"name\":";
      AppendJsonString(&out, e.name);
      std::snprintf(buf, sizeof(buf),
                    ",\"ph\":\"X\",\"ts\":%llu,\"dur\":%llu,\"pid\":%llu,"
                    "\"tid\":%llu,\"args\":",
                    static_cast<unsigned long long>(abs_start),
                    static_cast<unsigned long long>(e.duration_us),
                    static_cast<unsigned long long>(dump.pid),
                    static_cast<unsigned long long>(e.thread_id));
      out += buf;
      std::vector<std::pair<std::string, std::string>> args = e.annotations;
      if ((e.trace_hi | e.trace_lo) != 0) {
        args.emplace_back("trace_id", TraceIdHexOf(e.trace_hi, e.trace_lo));
      }
      args.emplace_back("span_id", std::to_string(e.id));
      if (e.parent_id != 0) {
        args.emplace_back("parent_id", std::to_string(e.parent_id));
      }
      AppendAnnotations(&out, args);
      out.push_back('}');

      // Parent recorded by a different process: the time between the
      // parent opening and this span opening is wire + queueing — render
      // it as a synthetic span on the child's process row.
      if (e.parent_id == 0) continue;
      auto parent = by_id.find(e.parent_id);
      if (parent == by_id.end() || parent->second.dump == d) continue;
      const uint64_t gap_start = parent->second.abs_start_us;
      const uint64_t gap_dur =
          abs_start > gap_start ? abs_start - gap_start : 0;
      separator();
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"wire.gap\",\"ph\":\"X\",\"ts\":%llu,"
                    "\"dur\":%llu,\"pid\":%llu,\"tid\":%llu,\"args\":",
                    static_cast<unsigned long long>(gap_start),
                    static_cast<unsigned long long>(gap_dur),
                    static_cast<unsigned long long>(dump.pid),
                    static_cast<unsigned long long>(e.thread_id));
      out += buf;
      std::vector<std::pair<std::string, std::string>> gap_args;
      gap_args.emplace_back("from", dumps[parent->second.dump].node);
      gap_args.emplace_back("to", dump.node);
      if ((e.trace_hi | e.trace_lo) != 0) {
        gap_args.emplace_back("trace_id",
                              TraceIdHexOf(e.trace_hi, e.trace_lo));
      }
      AppendAnnotations(&out, gap_args);
      out.push_back('}');
    }
  }
  out += "]\n";
  return out;
}

}  // namespace modelhub
