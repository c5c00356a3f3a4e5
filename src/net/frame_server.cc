#include "net/frame_server.h"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <utility>

#include "common/macros.h"
#include "common/trace.h"

namespace modelhub {
namespace {

/// Wire size of a response beyond its payload: length prefix + version +
/// opcode + CRC. Responses are never traced, so this is exact.
constexpr uint64_t kResponseOverheadBytes = 4 + kFrameHeaderBytes + 4;

uint64_t ElapsedUs(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

uint64_t UnixMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

Counter* CounterNamed(const std::string& prefix, const char* suffix) {
  return MetricRegistry::Global()->GetCounter(prefix + suffix);
}

Gauge* GaugeNamed(const std::string& prefix, const char* suffix) {
  return MetricRegistry::Global()->GetGauge(prefix + suffix);
}

}  // namespace

FrameServer::FrameServer(
    const FrameServerOptions& options, std::string prefix, int drain_grace_ms,
    const std::function<std::string(std::string_view op)>& op_latency_metric,
    Handler handler)
    : options_(options),
      prefix_(std::move(prefix)),
      span_name_(prefix_ + ".request"),
      drain_grace_ms_(drain_grace_ms),
      handler_(std::move(handler)),
      accepted_(CounterNamed(prefix_, ".accepted.count")),
      shed_(CounterNamed(prefix_, ".shed.count")),
      requests_(CounterNamed(prefix_, ".requests.count")),
      errors_(CounterNamed(prefix_, ".errors.count")),
      deadline_expired_(CounterNamed(prefix_, ".deadline.expired.count")),
      slow_requests_(CounterNamed(prefix_, ".slow_requests.count")),
      bytes_in_(CounterNamed(prefix_, ".bytes.in")),
      bytes_out_(CounterNamed(prefix_, ".bytes.out")),
      starts_(CounterNamed(prefix_, ".starts.count")),
      stops_(CounterNamed(prefix_, ".stops.count")),
      queue_depth_(GaugeNamed(prefix_, ".queue.depth")),
      connections_active_(GaugeNamed(prefix_, ".connections.active")),
      uptime_seconds_(GaugeNamed(prefix_, ".uptime_seconds")),
      queue_wait_us_(
          MetricRegistry::Global()->GetHistogram(prefix_ + ".queue.wait.us")),
      slow_log_(static_cast<size_t>(std::max(1, options.slow_log_capacity))) {
  for (size_t op = 0; op < op_latency_.size(); ++op) {
    op_latency_[op] = MetricRegistry::Global()->GetHistogram(
        op_latency_metric(OpcodeToString(static_cast<uint8_t>(op))));
  }
}

FrameServer::~FrameServer() { (void)Stop(); }

Status FrameServer::Start() {
  if (running_.load()) {
    return Status::FailedPrecondition(prefix_ + " already running");
  }
  MH_ASSIGN_OR_RETURN(Listener listener,
                      Listener::Bind(options_.host, options_.port));
  listener_.emplace(std::move(listener));
  stopping_.store(false);
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    halt_.store(false);
  }
  started_at_ = std::chrono::steady_clock::now();
  running_.store(true, std::memory_order_release);
  starts_->Increment();
  UpdateUptimeGauge();
  const int num_workers = std::max(1, options_.num_workers);
  workers_.reserve(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

int FrameServer::port() const {
  return listener_.has_value() ? listener_->port() : 0;
}

void FrameServer::RequestStop() {
  // Only an atomic store and a pipe write — callable from signal handlers.
  stopping_.store(true);
  if (listener_.has_value()) listener_->Wake();
}

void FrameServer::WaitUntilStopRequested() const {
  while (!stopping_.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

Status FrameServer::Stop() {
  if (!running_.load()) return Status::OK();
  RequestStop();
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    halt_.store(true);
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  // Connections that were queued but never reached a worker get a typed
  // refusal instead of a silent close.
  std::deque<PendingConn> leftover;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    leftover.swap(pending_);
    queue_depth_->Set(0);
  }
  for (PendingConn& pc : leftover) {
    Shed(std::move(pc.sock), prefix_ + " draining");
  }
  listener_.reset();
  UpdateUptimeGauge();
  stops_->Increment();
  running_.store(false, std::memory_order_release);
  return Status::OK();
}

size_t FrameServer::queued() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return pending_.size();
}

void FrameServer::UpdateUptimeGauge() const {
  uptime_seconds_->Set(static_cast<int64_t>(ElapsedUs(started_at_) / 1000000));
}

void FrameServer::Shed(Socket sock, const std::string& reason) {
  shed_->Increment();
  (void)WriteFrame(&sock, 0,
                   EncodeResponsePayload(Status::Unavailable(reason), ""),
                   Deadline::AfterMs(1000));
}

void FrameServer::AcceptLoop() {
  // Once stopping_ flips, keep accepting and serving for drain_grace_ms
  // before halting. Grace 0 halts at once.
  std::optional<std::chrono::steady_clock::time_point> halt_at;
  for (;;) {
    if (stopping_.load() && !halt_at.has_value()) {
      if (drain_grace_ms_ <= 0) break;
      halt_at = std::chrono::steady_clock::now() +
                std::chrono::milliseconds(drain_grace_ms_);
    }
    int timeout_ms = -1;
    if (halt_at.has_value()) {
      const auto remaining = std::chrono::duration_cast<
          std::chrono::milliseconds>(*halt_at -
                                     std::chrono::steady_clock::now());
      if (remaining.count() <= 0) break;
      timeout_ms = static_cast<int>(remaining.count());
    }
    Result<Socket> accepted = listener_->Accept(timeout_ms);
    if (!accepted.ok()) {
      // Timeout: the grace window lapsed (re-checked above). Wake: the
      // drain began (or a spurious wake) — loop to start the clock.
      continue;
    }
    accepted_->Increment();
    std::unique_lock<std::mutex> lock(queue_mu_);
    const size_t queued = pending_.size();
    if (queued >= static_cast<size_t>(options_.queue_capacity) ||
        active_connections_.load() + static_cast<int>(queued) >=
            options_.max_connections) {
      lock.unlock();
      Shed(accepted.MoveValue(), prefix_ + " at capacity");
      continue;
    }
    pending_.push_back(
        {accepted.MoveValue(), std::chrono::steady_clock::now()});
    queue_depth_->Set(static_cast<int64_t>(pending_.size()));
    lock.unlock();
    queue_cv_.notify_one();
  }
  // Accepting is over: halt the workers (in-flight responses still
  // complete — ServeConnection only checks halt_ between requests).
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    halt_.store(true);
  }
  queue_cv_.notify_all();
}

void FrameServer::WorkerLoop() {
  for (;;) {
    PendingConn pc;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [&] { return halt_.load() || !pending_.empty(); });
      if (halt_.load()) break;
      pc = std::move(pending_.front());
      pending_.pop_front();
      queue_depth_->Set(static_cast<int64_t>(pending_.size()));
    }
    const uint64_t waited_us = ElapsedUs(pc.enqueued);
    queue_wait_us_->Record(waited_us);
    // A connection that waited longer than the idle timeout is stale: its
    // client has almost certainly timed out, and any request already on
    // the wire would be served against an expired deadline. Shed it with
    // a typed refusal instead of burning a worker on a dead exchange.
    if (waited_us / 1000 >
        static_cast<uint64_t>(std::max(0, options_.idle_timeout_ms))) {
      Shed(std::move(pc.sock), "queued past idle timeout");
      continue;
    }
    active_connections_.fetch_add(1);
    connections_active_->Add(1);
    ServeConnection(std::move(pc.sock));
    connections_active_->Add(-1);
    active_connections_.fetch_sub(1);
  }
}

void FrameServer::ServeConnection(Socket sock) {
  while (!halt_.load()) {
    Frame request;
    bool clean_eof = false;
    // The idle read is cancellable at halt (the grace window keeps
    // serving through a mere drain request); once a request is in hand,
    // its dispatch and response write run to completion even mid-drain.
    const Status read =
        ReadFrame(&sock, &request, options_.max_frame_bytes,
                  Deadline::AfterMs(options_.idle_timeout_ms), &halt_,
                  &clean_eof);
    if (!read.ok()) {
      if (!clean_eof && !halt_.load() && !read.IsDeadlineExceeded() &&
          !read.IsUnavailable()) {
        errors_->Increment();
      }
      break;
    }
    bytes_in_->Add(request.wire_bytes);

    std::string result;
    Status status;
    const TraceContext ctx = ContextFromFrame(request);
    const std::string op(OpcodeToString(request.opcode));
    uint64_t latency_us = 0;
    {
      // The request's trace context governs every span recorded below it:
      // pool threads inherit it through ThreadPool::Schedule, and outbound
      // clients re-emit it on the wire.
      ScopedTraceContext trace_scope(ctx);
      TraceSpan span(span_name_.c_str());
      span.Annotate("op", op);
      const auto dispatched_at = std::chrono::steady_clock::now();
      if (request.version != kWireVersion) {
        status = Status::InvalidArgument(
            "unsupported wire version " + std::to_string(request.version));
      } else {
        status = handler_(request, &result);
      }
      latency_us = ElapsedUs(dispatched_at);
      op_latency_[request.opcode]->Record(latency_us);
      span.Annotate("status", std::string(StatusCodeToString(status.code())));
      span.Annotate("result_bytes", static_cast<uint64_t>(result.size()));
    }
    requests_->Increment();
    if (!status.ok()) errors_->Increment();
    const bool after_deadline = ctx.deadline_expired();
    if (after_deadline) deadline_expired_->Increment();
    if (options_.slow_request_us > 0 &&
        latency_us >= static_cast<uint64_t>(options_.slow_request_us)) {
      SlowRequestEntry entry;
      entry.op = op;
      entry.latency_us = latency_us;
      entry.status = std::string(StatusCodeToString(status.code()));
      entry.trace_hi = ctx.trace_hi;
      entry.trace_lo = ctx.trace_lo;
      entry.after_deadline = after_deadline;
      entry.unix_us = UnixMicros();
      slow_log_.Record(std::move(entry));
      slow_requests_->Increment();
    }

    const std::string payload = EncodeResponsePayload(status, result);
    bytes_out_->Add(payload.size() + kResponseOverheadBytes);
    const Status written =
        WriteFrame(&sock, request.opcode, payload,
                   Deadline::AfterMs(options_.io_timeout_ms));
    if (!written.ok()) break;
    if (request.opcode == static_cast<uint8_t>(Opcode::kShutdown)) {
      RequestStop();
      break;
    }
  }
}

namespace {

volatile std::sig_atomic_t g_stop_signal = 0;

void OnStopSignal(int) { g_stop_signal = 1; }

}  // namespace

int RunUntilSignalled(const char* name,
                      const std::function<bool()>& stop_requested,
                      const std::function<Status()>& stop) {
  g_stop_signal = 0;
  std::signal(SIGTERM, OnStopSignal);
  std::signal(SIGINT, OnStopSignal);
  while (g_stop_signal == 0 && !stop_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::fprintf(stderr, "%s: draining\n", name);
  const Status stopped = stop();
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
  if (!stopped.ok()) {
    std::fprintf(stderr, "%s: %s\n", name, stopped.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace modelhub
