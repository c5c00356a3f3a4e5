#ifndef MODELHUB_NET_FRAME_SERVER_H_
#define MODELHUB_NET_FRAME_SERVER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/slow_log.h"
#include "common/status.h"
#include "net/frame.h"
#include "net/socket.h"

namespace modelhub {

/// The front-door settings every frame-serving binary shares (DESIGN.md
/// §9.1). ServerOptions and RouterOptions extend this with their own.
struct FrameServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 binds an ephemeral port; read it back with port().

  /// Connection-serving workers. Each worker owns one connection at a
  /// time and serves its requests serially (the protocol has no
  /// interleaving), so this is also the request-level parallelism.
  int num_workers = 8;

  /// Backpressure: accepted connections wait in a bounded queue until a
  /// worker is free. When the queue is full — or active + queued
  /// connections reach max_connections — the server sheds: it writes one
  /// kUnavailable frame and closes instead of queueing unboundedly.
  int max_connections = 64;
  int queue_capacity = 32;

  uint64_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Budget for writing one response / reading one request body.
  int io_timeout_ms = 10000;
  /// How long a connection may sit idle between requests; also the
  /// longest a connection may wait in the queue before it is shed.
  int idle_timeout_ms = 30000;

  /// Slow-request log threshold: requests whose dispatch takes at least
  /// this long land in a bounded ring dumped via STATS (0 disables).
  int slow_request_us = 100000;
  int slow_log_capacity = 64;
};

/// The one accept → bounded queue → worker → drain serving loop behind
/// modelhubd and modelhub-router (DESIGN.md §9.1). It owns the listener,
/// the accept thread, the capacity and stale-queue sheds, the worker
/// threads, the per-connection frame loop with its request metrics, span
/// and slow-request ring, and the two-phase drain. The binary plugs in one
/// handler that answers a decoded request.
///
/// Every instrument is named from `prefix`: `<prefix>.requests.count`,
/// `<prefix>.queue.depth`, the `<prefix>.request` span, shed reasons
/// "<prefix> at capacity" / "<prefix> draining", and so on.
///
/// Drain: RequestStop() (async-signal-safe) flips draining(). For
/// `drain_grace_ms` afterwards the server keeps accepting and serving
/// (a PING handler reports the drain so routers steer away); then it
/// stops accepting and flips halting(), which cancels idle reads. A
/// request already read is always answered in full. Stop() waits for the
/// drain, joins every thread and refuses connections that were queued but
/// never served with a typed kUnavailable frame.
class FrameServer {
 public:
  /// Answers one decoded request; the response result bytes go in `*out`.
  using Handler = std::function<Status(const Frame& request, std::string* out)>;

  /// `op_latency_metric` maps an opcode name ("ping", ..., "unknown") to
  /// the name of the histogram that records that op's dispatch latency.
  FrameServer(const FrameServerOptions& options, std::string prefix,
              int drain_grace_ms,
              const std::function<std::string(std::string_view op)>&
                  op_latency_metric,
              Handler handler);
  ~FrameServer();

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// Binds the listener and starts the accept thread and the workers.
  Status Start();

  /// Begins the drain without blocking. Safe from signal handlers.
  void RequestStop();

  /// Drains, joins, and refuses the connections left in the queue.
  /// Idempotent.
  Status Stop();

  /// Blocks until RequestStop() is observed (polling, so a signal
  /// handler's store is enough to end it).
  void WaitUntilStopRequested() const;

  /// The bound port (valid after Start; 0 once stopped).
  int port() const;
  /// True between Start() and the end of Stop().
  bool running() const { return running_.load(std::memory_order_acquire); }
  /// True once a drain has been requested.
  bool draining() const { return stopping_.load(); }
  /// True once the grace window has lapsed and idle reads cancel.
  bool halting() const { return halt_.load(); }
  /// Connections accepted but not yet taken by a worker.
  size_t queued() const;
  /// Connections a worker is serving right now.
  int active() const { return active_connections_.load(); }

  const SlowRequestLog& slow_log() const { return slow_log_; }

  /// Sets `<prefix>.uptime_seconds` from the last Start().
  void UpdateUptimeGauge() const;

 private:
  struct PendingConn {
    Socket sock;
    std::chrono::steady_clock::time_point enqueued;
  };

  void AcceptLoop();
  void WorkerLoop();
  void ServeConnection(Socket sock);
  /// Writes a kUnavailable frame (opcode 0: the request was never read)
  /// and lets `sock` close.
  void Shed(Socket sock, const std::string& reason);

  const FrameServerOptions options_;
  const std::string prefix_;
  const std::string span_name_;
  const int drain_grace_ms_;
  const Handler handler_;

  Counter* const accepted_;
  Counter* const shed_;
  Counter* const requests_;
  Counter* const errors_;
  Counter* const deadline_expired_;
  Counter* const slow_requests_;
  Counter* const bytes_in_;
  Counter* const bytes_out_;
  Counter* const starts_;
  Counter* const stops_;
  Gauge* const queue_depth_;
  Gauge* const connections_active_;
  Gauge* const uptime_seconds_;
  Histogram* const queue_wait_us_;
  /// Indexed by opcode byte.
  std::array<Histogram*, 256> op_latency_{};

  SlowRequestLog slow_log_;
  std::optional<Listener> listener_;
  std::chrono::steady_clock::time_point started_at_;

  std::atomic<bool> running_{false};
  /// Two-phase drain: stopping_ flips at RequestStop (draining, the grace
  /// clock starts); halt_ flips once the grace window lapses (workers
  /// exit, idle reads cancel). halt_ is written under queue_mu_ so no
  /// waiting worker misses it.
  std::atomic<bool> stopping_{false};
  std::atomic<bool> halt_{false};
  std::atomic<int> active_connections_{0};

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<PendingConn> pending_;  ///< Guarded by queue_mu_.

  std::thread accept_thread_;
  std::vector<std::thread> workers_;
};

/// The daemon tail shared by modelhubd and modelhub-router: blocks until
/// SIGTERM/SIGINT arrives or `stop_requested()` turns true (a SHUTDOWN
/// rpc), prints "<name>: draining" to stderr, runs `stop` and returns a
/// process exit code (0, or 1 when `stop` fails).
int RunUntilSignalled(const char* name,
                      const std::function<bool()>& stop_requested,
                      const std::function<Status()>& stop);

}  // namespace modelhub

#endif  // MODELHUB_NET_FRAME_SERVER_H_
