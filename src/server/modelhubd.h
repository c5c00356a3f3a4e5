#ifndef MODELHUB_SERVER_MODELHUBD_H_
#define MODELHUB_SERVER_MODELHUBD_H_

#include <memory>
#include <optional>
#include <string>

#include "common/env.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "dlv/repository.h"
#include "lifecycle/daemon.h"
#include "net/frame.h"
#include "net/frame_server.h"
#include "pas/coalesce.h"

namespace modelhub {

/// modelhubd configuration (DESIGN.md §9). The front-door fields come
/// from FrameServerOptions.
struct ServerOptions : FrameServerOptions {
  /// Threads of the separate retrieval pool that
  /// ArchiveReader::RetrieveSnapshotsParallel fans out on. Kept distinct
  /// from the connection workers so a retrieval can never deadlock
  /// waiting for slots its own handler occupies.
  int retrieval_threads = 4;

  /// Coalescing linger window (see SnapshotCoalescer): 0 = pure
  /// single-flight, > 0 keeps completed retrievals joinable that long.
  int coalesce_linger_ms = 0;

  /// Graceful-drain grace window. 0 (the default) preserves the classic
  /// drain: RequestStop immediately stops accepting. > 0 keeps the
  /// server accepting AND serving for this long after RequestStop while
  /// PING advertises state=draining — so a router steers new work away
  /// from a live-but-leaving backend instead of eating connection
  /// refusals that would trip its breaker.
  int drain_grace_ms = 0;

  /// Embeds the lifecycle maintenance daemon (DESIGN.md §14): periodic
  /// access-aware re-archival, plan swap, and chunk GC, running inside
  /// the serving process and yielding to request traffic.
  bool enable_maintenance = false;
  LifecycleOptions maintenance;
};

/// The ModelHub daemon: serves a DLV repository over the wire protocol of
/// net/frame.h (PING, LIST_MODELS, GET_SNAPSHOT exact + progressive,
/// DQL_QUERY, STATS, SHUTDOWN).
///
/// Threading model (DESIGN.md §9): a FrameServer accepts, queues and
/// serves connections and hands each decoded request to Dispatch;
/// snapshot retrievals go through a single-flight SnapshotCoalescer onto
/// a second pool running the computation-sharing parallel scheduler. DQL
/// runs read-only (commit_results = false) — the serving path never
/// mutates the repository, so concurrent readers need no catalog lock.
///
/// Graceful drain is the FrameServer's (DESIGN.md §9.1), with
/// drain_grace_ms as its grace window: RequestStop() is async-signal-safe
/// and Stop() performs the drain and joins everything.
class ModelHubServer {
 public:
  ModelHubServer(Env* env, std::string repo_root, ServerOptions options = {});
  ~ModelHubServer();

  ModelHubServer(const ModelHubServer&) = delete;
  ModelHubServer& operator=(const ModelHubServer&) = delete;

  /// Opens the repository (and eagerly the PAS archive, if one exists —
  /// the lazy OpenArchive cache is not built for concurrent first use),
  /// binds the listener, and starts the accept thread and workers.
  Status Start();

  /// The bound port (valid after Start; resolves ephemeral binds).
  int port() const;

  const ServerOptions& options() const { return options_; }

  /// True between Start() and the end of Stop().
  bool running() const { return frames_.running(); }

  /// True once a drain has been requested (RequestStop, Stop, or a
  /// SHUTDOWN rpc).
  bool stop_requested() const { return frames_.draining(); }

  /// Begins the drain without blocking. Safe from signal handlers.
  void RequestStop();

  /// Drains and joins. Idempotent; returns the first Start error if the
  /// server never ran.
  Status Stop();

  /// Blocks the calling thread until RequestStop() is observed (polling,
  /// so a SIGTERM-handler store is enough to end it).
  void WaitUntilStopRequested() const { frames_.WaitUntilStopRequested(); }

  /// Exact coalescer counters for tests.
  uint64_t coalesce_hits() const;
  uint64_t coalesce_misses() const;

  /// The embedded maintenance daemon (null unless enable_maintenance).
  LifecycleDaemon* maintenance() { return maintenance_.get(); }

 private:
  /// Dispatches one decoded request; the response payload goes in `*out`.
  Status Dispatch(const Frame& request, std::string* out);
  Status HandleListModels(std::string* out);
  Status HandleGetSnapshot(const Frame& request, std::string* out);
  Status HandleDqlQuery(const Frame& request, std::string* out);
  Status HandleStats(std::string* out);
  Status HandleGetTrace(std::string* out);

  /// The coalesced fetch body: exact retrieval (planes == 0) through the
  /// archive's shared-computation parallel scheduler with a staging
  /// fallback, or progressive bounds (planes 1..3).
  Result<std::string> FetchSnapshot(const std::string& key, int planes);

  Env* const env_;
  const std::string repo_root_;
  const ServerOptions options_;

  std::optional<Repository> repo_;
  std::unique_ptr<ThreadPool> retrieval_pool_;
  std::unique_ptr<SnapshotCoalescer> coalescer_;
  std::unique_ptr<LifecycleDaemon> maintenance_;
  FrameServer frames_;  ///< Calls Dispatch from its worker threads.
};

/// The shared daemon entry point behind `dlv serve` and the standalone
/// `modelhubd` binary: starts a server, prints
/// "modelhubd listening on <host>:<port>" to stdout, and blocks until
/// SIGTERM/SIGINT or a SHUTDOWN rpc, then drains gracefully. Returns a
/// process exit code.
int RunServerMain(Env* env, const std::string& repo_root,
                  ServerOptions options);

}  // namespace modelhub

#endif  // MODELHUB_SERVER_MODELHUBD_H_
