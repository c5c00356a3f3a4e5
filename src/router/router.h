#ifndef MODELHUB_ROUTER_ROUTER_H_
#define MODELHUB_ROUTER_ROUTER_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "net/frame.h"
#include "net/frame_server.h"
#include "router/backend.h"
#include "router/hash_ring.h"

namespace modelhub {

/// Static fleet layout: N shards, each a set of replica endpoints serving
/// the same models. Model names are consistent-hashed across shards;
/// reads round-robin across a shard's replicas.
struct FleetTopology {
  struct Shard {
    std::string name;
    std::vector<Endpoint> replicas;
  };
  std::vector<Shard> shards;

  size_t num_backends() const;

  /// Parses "host:port,host:port;host:port" — ';' separates shards, ','
  /// separates replicas within a shard. Shards are named "shard<i>" in
  /// declaration order (the ring hashes these names, so order matters
  /// for placement stability across restarts).
  static Result<FleetTopology> Parse(const std::string& spec);
};

/// modelhub-router configuration (DESIGN.md §11). The frontend-facing
/// fields come from FrameServerOptions; the rest parameterize the
/// resilience stack.
struct RouterOptions : FrameServerOptions {
  /// Budgets for one backend hop (connect / request+response).
  int backend_connect_timeout_ms = 1000;
  int backend_op_timeout_ms = 10000;

  /// Active health checking: every probe_interval_ms the prober PINGs
  /// each backend (fresh connection, probe_timeout_ms budget). Probe and
  /// live-traffic failures share the breaker's consecutive-failure
  /// counter; failure_threshold of them in a row opens the breaker.
  int probe_interval_ms = 200;
  int probe_timeout_ms = 1000;
  int failure_threshold = 3;
  /// Open-breaker cooldown before a single half-open probe is admitted.
  int breaker_open_ms = 500;

  /// Retry budget per routed request: total attempts (first try
  /// included). Retries fail over to the next healthy replica; backoff
  /// (exponential, jittered, capped) is only inserted once every replica
  /// of the shard has been tried in the current round.
  int max_attempts = 4;
  int retry_backoff_base_ms = 10;
  int retry_backoff_max_ms = 200;

  /// Virtual nodes per shard on the consistent-hash ring.
  int vnodes_per_shard = 64;
};

/// The fleet frontend: speaks the net/frame.h wire protocol on both
/// sides. Clients connect to it exactly as they would to a single
/// modelhubd; behind it, model-keyed requests (GET_SNAPSHOT) are
/// consistent-hashed to a shard and round-robined across that shard's
/// replicas, fan-out requests (LIST_MODELS, DQL, STATS) visit every
/// shard, and PING/SHUTDOWN are answered locally.
///
/// Resilience stack, outermost first (DESIGN.md §11):
///   * bounded retries with exponential backoff + jitter, failing over
///     to the next healthy replica (all routed ops are reads, hence
///     idempotent and safe to retry);
///   * per-backend circuit breakers — consecutive transport failures or
///     backend sheds open the breaker, a half-open probe re-admits;
///   * active health checks (periodic PING) that also parse the
///     backend's advertised state and steer away from draining peers;
///   * graceful degradation — a shard with zero admittable replicas
///     sheds the request with a typed kUnavailable frame immediately;
///   * the FrameServer front door modelhubd also uses (DESIGN.md §9.1),
///     with no drain grace: SIGTERM finishes in-flight requests, queued
///     connections get a typed refusal.
class ModelHubRouter {
 public:
  ModelHubRouter(FleetTopology topology, RouterOptions options = {});
  ~ModelHubRouter();

  ModelHubRouter(const ModelHubRouter&) = delete;
  ModelHubRouter& operator=(const ModelHubRouter&) = delete;

  Status Start();
  Status Stop();
  /// Async-signal-safe drain trigger.
  void RequestStop() { frames_.RequestStop(); }
  void WaitUntilStopRequested() const { frames_.WaitUntilStopRequested(); }

  int port() const { return frames_.port(); }
  const RouterOptions& options() const { return options_; }
  bool running() const { return frames_.running(); }
  bool stop_requested() const { return frames_.draining(); }

  /// The shard a model name routes to (tests / dlv introspection).
  const std::string& ShardForModel(std::string_view model) const;

  /// Point-in-time per-backend health, for tests and STATS.
  struct BackendStatus {
    std::string name;
    int shard = 0;
    CircuitBreaker::State breaker = CircuitBreaker::State::kClosed;
    bool draining = false;
    uint64_t consecutive_failures = 0;
  };
  std::vector<BackendStatus> BackendStatuses() const;
  /// True when every backend's breaker is closed and none is draining.
  bool AllBackendsHealthy() const;

 private:
  struct ShardRuntime {
    std::string name;
    std::vector<std::unique_ptr<Backend>> replicas;
    std::atomic<uint64_t> rr{0};  ///< Round-robin read cursor.
  };

  void ProbeLoop();

  Status Dispatch(const Frame& request, std::string* out);
  Status HandlePing(std::string* out);
  Status HandleGetSnapshot(const Frame& request, std::string* out);
  Status HandleListModels(std::string* out);
  Status HandleDqlQuery(const Frame& request, std::string* out);
  Status HandleStats(std::string* out);
  /// Own trace-dump section + a best-effort section from every backend,
  /// concatenated — the fleet-wide GET_TRACE answer.
  Status HandleGetTrace(std::string* out);
  /// Own Prometheus text labeled node="router" + every backend's labeled
  /// node="host:port", with `# TYPE` lines deduplicated.
  Status HandleGetMetrics(std::string* out);

  /// Retry/failover loop over one shard's replicas. On success `*out`
  /// holds the backend's result bytes and the return is the backend's
  /// own status; kUnavailable with a "shard ..." message means the
  /// request was shed (budget exhausted or no admittable replica). A
  /// drain cuts retries and backoff but never the first attempt.
  Status ForwardToShard(ShardRuntime* shard, uint8_t opcode,
                        std::string_view payload, std::string* out);

  /// One attempt against one replica. Transport faults and backend
  /// sheds feed the breaker; a definitive server-side answer records
  /// success. Returns the status the retry loop classifies.
  Status TryBackend(Backend* backend, uint8_t opcode,
                    std::string_view payload, std::string* out);

  /// Replica choice for `attempt` (0-based) of a request: round-robin
  /// start, skipping draining and breaker-refused replicas; falls back
  /// to draining-but-admitted replicas before giving up.
  Backend* PickReplica(ShardRuntime* shard, uint64_t start, int attempt);

  void UpdateHealthGauges() const;

  const FleetTopology topology_;
  const RouterOptions options_;

  std::vector<std::unique_ptr<ShardRuntime>> shards_;
  std::map<std::string, ShardRuntime*, std::less<>> shard_by_name_;
  HashRing ring_;

  FrameServer frames_;  ///< Calls Dispatch from its worker threads.
  std::thread probe_thread_;
};

/// Entry point behind `dlv serve --fleet` and the standalone
/// `modelhub-router` binary: starts the router, prints
/// "modelhub-router listening on <host>:<port> (...)" to stdout, blocks
/// until SIGTERM/SIGINT or a SHUTDOWN rpc, drains, and returns a process
/// exit code.
int RunRouterMain(FleetTopology topology, RouterOptions options);

}  // namespace modelhub

#endif  // MODELHUB_ROUTER_ROUTER_H_
