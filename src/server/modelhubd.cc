#include "server/modelhubd.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/macros.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "dql/engine.h"
#include "pas/archive.h"

namespace modelhub {
namespace {

std::string OpLatencyMetric(std::string_view op) {
  return "server.op." + std::string(op) + ".us";
}

}  // namespace

ModelHubServer::ModelHubServer(Env* env, std::string repo_root,
                               ServerOptions options)
    : env_(env),
      repo_root_(std::move(repo_root)),
      options_(options),
      frames_(options_, "server", options_.drain_grace_ms, OpLatencyMetric,
              [this](const Frame& request, std::string* out) {
                return Dispatch(request, out);
              }) {}

ModelHubServer::~ModelHubServer() { (void)Stop(); }

Status ModelHubServer::Start() {
  if (frames_.running()) {
    return Status::FailedPrecondition("server already running");
  }
  MH_ASSIGN_OR_RETURN(Repository repo, Repository::Open(env_, repo_root_));
  repo_.emplace(std::move(repo));
  // Eagerly resolve the archive reader so worker threads never race on a
  // cold cache. A repository that was never archived serves snapshots
  // from staging instead.
  if (auto archive = repo_->SharedArchive(); archive.ok()) {
    (*archive)->EnableChunkCache(true);
  }
  coalescer_ = std::make_unique<SnapshotCoalescer>(
      [this](const std::string& key, int planes) {
        return FetchSnapshot(key, planes);
      },
      options_.coalesce_linger_ms);
  retrieval_pool_ =
      std::make_unique<ThreadPool>(std::max(1, options_.retrieval_threads));
  MH_RETURN_IF_ERROR(frames_.Start());
  if (options_.enable_maintenance) {
    maintenance_ = std::make_unique<LifecycleDaemon>(env_, repo_root_,
                                                     options_.maintenance);
    // The plan swap: after a cycle re-archives, the server atomically
    // adopts the new generation. In-flight retrievals finish on their
    // pinned old reader; the superseded generation is swept by a later
    // GC once those pins drain.
    maintenance_->set_reload_callback([this] {
      if (auto reloaded = repo_->ReloadArchive(); reloaded.ok()) {
        (*reloaded)->EnableChunkCache(true);
      }
    });
    // Budget throttling: compaction yields at task boundaries while
    // request traffic is queued (bounded backoff so a saturated queue
    // cannot stall maintenance forever).
    maintenance_->set_yield([this] {
      for (int i = 0; i < 200 && !frames_.draining(); ++i) {
        if (frames_.queued() == 0) break;
        MH_COUNTER("lifecycle.yield.count")->Increment();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    const Status maintain_started = maintenance_->Start();
    if (!maintain_started.ok()) {
      (void)Stop();
      return maintain_started;
    }
  }
  return Status::OK();
}

int ModelHubServer::port() const { return frames_.port(); }

void ModelHubServer::RequestStop() {
  // Only atomic stores and a pipe write — callable from signal handlers.
  frames_.RequestStop();
  if (maintenance_ != nullptr) maintenance_->RequestStop();
}

Status ModelHubServer::Stop() {
  if (!frames_.running()) return Status::OK();
  RequestStop();
  if (maintenance_ != nullptr) (void)maintenance_->Stop();
  MH_RETURN_IF_ERROR(frames_.Stop());
  retrieval_pool_.reset();
  coalescer_.reset();
  maintenance_.reset();
  repo_.reset();
  return Status::OK();
}

uint64_t ModelHubServer::coalesce_hits() const {
  return coalescer_ != nullptr ? coalescer_->hits() : 0;
}

uint64_t ModelHubServer::coalesce_misses() const {
  return coalescer_ != nullptr ? coalescer_->misses() : 0;
}

Status ModelHubServer::Dispatch(const Frame& request, std::string* out) {
  switch (static_cast<Opcode>(request.opcode)) {
    case Opcode::kPing: {
      // The reply leads with the bare "pong" liveness token (old clients
      // key on that) and appends load/lifecycle state so a router can
      // steer away from a draining or backed-up server before requests
      // start failing (ParsePingReply in net/client.h).
      *out = std::string("pong state=") +
             (frames_.draining() ? "draining" : "serving") +
             " queue=" + std::to_string(frames_.queued()) +
             " active=" + std::to_string(frames_.active());
      return Status::OK();
    }
    case Opcode::kListModels:
      return HandleListModels(out);
    case Opcode::kGetSnapshot:
      return HandleGetSnapshot(request, out);
    case Opcode::kDqlQuery:
      return HandleDqlQuery(request, out);
    case Opcode::kStats:
      return HandleStats(out);
    case Opcode::kGetTrace:
      return HandleGetTrace(out);
    case Opcode::kGetMetrics:
      *out = MetricRegistry::Global()->ToPrometheusText();
      return Status::OK();
    case Opcode::kShutdown:
      // The FrameServer begins its own drain once this reply is written.
      if (maintenance_ != nullptr) maintenance_->RequestStop();
      *out = "draining";
      return Status::OK();
  }
  return Status::InvalidArgument("unknown opcode " +
                                 std::to_string(request.opcode));
}

Status ModelHubServer::HandleListModels(std::string* out) {
  MH_ASSIGN_OR_RETURN(auto versions, repo_->List());
  for (const ModelVersionInfo& info : versions) {
    char row[320];
    std::snprintf(row, sizeof(row), "%s %s %lld %.3f %s\n", info.name.c_str(),
                  info.parent.empty() ? "-" : info.parent.c_str(),
                  static_cast<long long>(info.num_snapshots),
                  info.best_accuracy, info.archived ? "archived" : "staged");
    out->append(row);
  }
  return Status::OK();
}

Status ModelHubServer::HandleGetSnapshot(const Frame& request,
                                         std::string* out) {
  std::string model;
  int64_t sequence = -1;
  int planes = 0;
  MH_RETURN_IF_ERROR(DecodeGetSnapshotRequest(Slice(request.payload), &model,
                                              &sequence, &planes));
  if (sequence < 0) {
    MH_ASSIGN_OR_RETURN(const int64_t count, repo_->NumSnapshots(model));
    if (count == 0) {
      return Status::NotFound("version has no snapshots: " + model);
    }
    sequence = count - 1;
  }
  const std::string key = model + "/s" + std::to_string(sequence);
  // Feed the lifecycle daemon's heat map: every request counts, even
  // ones the coalescer folds into an in-flight retrieval.
  if (maintenance_ != nullptr) {
    maintenance_->access_tracker()->RecordAccess(key);
  }
  MH_ASSIGN_OR_RETURN(auto payload, coalescer_->Fetch(key, planes));
  *out = *payload;
  return Status::OK();
}

Result<std::string> ModelHubServer::FetchSnapshot(const std::string& key,
                                                  int planes) {
  // The key was assembled by HandleGetSnapshot as "<model>/s<sequence>".
  const size_t sep = key.rfind("/s");
  MH_CHECK(sep != std::string::npos);
  const std::string model = key.substr(0, sep);
  const int64_t sequence = std::atoll(key.c_str() + sep + 2);

  // Grab a shared handle to the current reader: the maintenance daemon
  // may swap the cache mid-retrieval, but this handle keeps its
  // generation pinned (chunk files undeletable) until we drop it.
  std::shared_ptr<ArchiveReader> archive = repo_->CachedArchive();
  const auto in_archive = [&key](const std::shared_ptr<ArchiveReader>& a) {
    return a != nullptr &&
           std::find(a->snapshot_names().begin(), a->snapshot_names().end(),
                     key) != a->snapshot_names().end();
  };

  if (planes == 0) {
    if (in_archive(archive)) {
      MH_ASSIGN_OR_RETURN(
          auto sets, archive->RetrieveSnapshotsParallel(
                         {key}, retrieval_pool_.get(), ParallelScheme::kShared));
      return SerializeParams(sets[0]);
    }
    // Staged (or never archived): read through the repository.
    auto params = repo_->GetSnapshotParams(model, sequence);
    if (params.ok()) return SerializeParams(*params);
    // Staging miss: the maintenance daemon (its own Repository instance)
    // may have migrated staged snapshots into a fresh archive generation
    // behind our catalog snapshot. Reload and retry before failing.
    if (auto reloaded = repo_->ReloadArchive();
        reloaded.ok() && in_archive(*reloaded)) {
      (*reloaded)->EnableChunkCache(true);
      MH_ASSIGN_OR_RETURN(
          auto sets, (*reloaded)->RetrieveSnapshotsParallel(
                         {key}, retrieval_pool_.get(), ParallelScheme::kShared));
      return SerializeParams(sets[0]);
    }
    return params.status();
  }

  if (archive == nullptr) {
    return Status::FailedPrecondition(
        "progressive retrieval requires a PAS archive (run dlv archive)");
  }
  MH_ASSIGN_OR_RETURN(auto bounds,
                      archive->RetrieveSnapshotBounds(key, planes));
  std::string text =
      "snapshot " + key + " planes=" + std::to_string(planes) + "\n";
  for (const auto& [name, matrix] : bounds) {
    double sum = 0.0;
    for (int64_t r = 0; r < matrix.rows(); ++r) {
      for (int64_t c = 0; c < matrix.cols(); ++c) {
        sum += matrix.At(r, c).Width();
      }
    }
    const double cells =
        static_cast<double>(matrix.rows()) * static_cast<double>(matrix.cols());
    char row[256];
    std::snprintf(row, sizeof(row),
                  "%s %lldx%lld max_width=%.6g mean_width=%.6g\n",
                  name.c_str(), static_cast<long long>(matrix.rows()),
                  static_cast<long long>(matrix.cols()),
                  static_cast<double>(matrix.MaxWidth()),
                  cells > 0 ? sum / cells : 0.0);
    text.append(row);
  }
  return text;
}

Status ModelHubServer::HandleDqlQuery(const Frame& request, std::string* out) {
  // Read-only engine: the serving path never mutates the repository, so
  // concurrent DQL requests need no catalog locking.
  DqlOptions options;
  options.commit_results = false;
  DqlEngine engine(&*repo_, options);
  MH_ASSIGN_OR_RETURN(DqlResult result, engine.Run(request.payload));
  switch (result.kind) {
    case dql::Query::Kind::kSelect:
      out->append(std::to_string(result.model_names.size()) +
                  " model version(s):\n");
      for (const std::string& name : result.model_names) {
        out->append("  " + name + "\n");
      }
      break;
    case dql::Query::Kind::kSlice:
    case dql::Query::Kind::kConstruct:
      out->append(std::to_string(result.networks.size()) +
                  " derived network(s):\n");
      for (const NetworkDef& def : result.networks) {
        out->append("  " + def.name() + " (" +
                    std::to_string(def.nodes().size()) + " nodes)\n");
      }
      break;
    case dql::Query::Kind::kEvaluate:
      out->append(std::to_string(result.evaluated.size()) +
                  " model(s) kept:\n");
      for (const EvaluatedModel& model : result.evaluated) {
        char row[320];
        std::snprintf(row, sizeof(row), "  %s loss=%.4f acc=%.3f\n",
                      model.name.c_str(), model.loss, model.accuracy);
        out->append(row);
      }
      break;
  }
  if (result.analyzed) {
    out->append("\nquery plan (explain analyze):\n" + result.RenderPlan());
  }
  return Status::OK();
}

Status ModelHubServer::HandleStats(std::string* out) {
  frames_.UpdateUptimeGauge();
  std::string json = MetricRegistry::Global()->Snapshot().ToJson();
  // Splice the slow-request ring and the MAINTAIN_STATUS surface in as
  // top-level sections next to counters/gauges/histograms.
  json.pop_back();
  json += ",\"slow_requests\":" + frames_.slow_log().ToJson();
  MaintenanceStatus maintain;
  if (maintenance_ != nullptr) maintain = maintenance_->status();
  json += ",\"maintenance\":" + maintain.ToJson() + "}";
  *out = std::move(json);
  return Status::OK();
}

Status ModelHubServer::HandleGetTrace(std::string* out) {
  AppendTraceDump(out, CollectTraceDump("modelhubd@" + options_.host + ":" +
                                        std::to_string(port())));
  return Status::OK();
}

int RunServerMain(Env* env, const std::string& repo_root,
                  ServerOptions options) {
  ModelHubServer server(env, repo_root, std::move(options));
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "modelhubd: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("modelhubd listening on %s:%d\n", server.options().host.c_str(),
              server.port());
  std::fflush(stdout);
  return RunUntilSignalled(
      "modelhubd", [&server] { return server.stop_requested(); },
      [&server] { return server.Stop(); });
}

}  // namespace modelhub
