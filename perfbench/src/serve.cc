// `serve`: archive the corpus once during set-up, start two in-process
// modelhubd backends (linger 0, maintenance off) and one in-process router
// over two shards, then run two closed-loop clients, first against one
// backend directly and then through the router. It drives the warm read
// path, serialization, wire framing, the coalescer and the router hop,
// with no writes.

#include <cstdio>
#include <memory>
#include <optional>
#include <thread>

#include "bench.h"
#include "checks.h"
#include "common/env.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "corpus.h"
#include "dlv/layout.h"
#include "dql/engine.h"
#include "net/client.h"
#include "net/frame.h"
#include "router/router.h"
#include "server/modelhubd.h"

namespace perfbench {

using namespace modelhub;

namespace {

constexpr int kClients = 2;
/// Server-side parallelism, matched to the two clients so the load stays a
/// few busy cores: two retrieval threads per backend and two router
/// workers. A backend worker serves one connection at a time and the
/// router keeps its backend connections pooled, so each backend gets a
/// worker per router worker plus one per direct client.
constexpr int kServerThreads = 2;
constexpr int kBackendWorkers = kServerThreads + kClients;
/// Rounds of in-process layer replay (traced runs).
constexpr int kReplayRounds = 5;
/// The direct and routed paths alternate in windows of this many rounds
/// per client, so a slow spell of the machine (another tenant, hypervisor
/// steal) lands on both paths alike, and both paths send exactly the same
/// requests: the latency percentiles over both then sit at fixed ranks of
/// a fixed request mix.
constexpr int kRoundsPerWindow = 2;

enum class OpKind { kExact, kBounds, kDql, kList };

struct Op {
  OpKind kind = OpKind::kExact;
  std::string key;  ///< Snapshot key (exact / bounds).
  std::string model;
  int64_t sequence = 0;
  int planes = 0;
  int dql = 0;  ///< Index into the DQL cases.
};

/// One round of requests: every snapshot exactly twice, one progressive
/// read per snapshot on two of every three snapshots (alternating 1 and 2
/// planes), every DQL select once and one LIST_MODELS.
std::vector<Op> MakeRound(const Corpus& corpus, size_t dql_cases) {
  std::vector<Op> round;
  const std::vector<std::string> keys = corpus.SnapshotKeys();
  for (size_t i = 0; i < keys.size(); ++i) {
    Op op;
    op.key = keys[i];
    const size_t sep = op.key.rfind("/s");
    op.model = op.key.substr(0, sep);
    op.sequence = std::stoll(op.key.substr(sep + 2));
    round.push_back(op);
    round.push_back(op);
    if (i % 3 != 2) {
      op.kind = OpKind::kBounds;
      op.planes = i % 3 == 0 ? 1 : 2;
      round.push_back(op);
    }
  }
  for (size_t d = 0; d < dql_cases; ++d) {
    Op op;
    op.kind = OpKind::kDql;
    op.dql = static_cast<int>(d);
    round.push_back(op);
  }
  Op list;
  list.kind = OpKind::kList;
  round.push_back(list);
  return round;
}

const char* SpanName(OpKind kind) {
  switch (kind) {
    case OpKind::kExact:
      return "client.get_snapshot";
    case OpKind::kBounds:
      return "client.get_snapshot_bounds";
    case OpKind::kDql:
      return "client.dql_query";
    case OpKind::kList:
      return "client.list_models";
  }
  return "client.unknown";
}

struct PhaseStats {
  std::vector<double> all_ms;
  std::vector<double> exact_ms;
  std::vector<double> bounds_ms;
  uint64_t completed = 0;
  double wall_s = 0.0;

  void Merge(const PhaseStats& other) {
    all_ms.insert(all_ms.end(), other.all_ms.begin(), other.all_ms.end());
    exact_ms.insert(exact_ms.end(), other.exact_ms.begin(),
                    other.exact_ms.end());
    bounds_ms.insert(bounds_ms.end(), other.bounds_ms.begin(),
                     other.bounds_ms.end());
    completed += other.completed;
    wall_s += other.wall_s;
  }
};

struct ServeContext {
  const Corpus* corpus = nullptr;
  const RoundingTolerance* tol = nullptr;
  const std::vector<DqlCase>* dql = nullptr;
  const std::vector<Op>* round = nullptr;
  uint64_t seed = 0;
  SpanRecorder* spans = nullptr;
  RunResult* result = nullptr;
};

/// Sends one request and checks its reply. Returns the latency in ms from
/// send to the decoded reply, or a negative value when the op failed.
double RunOp(const ServeContext& ctx, ModelHubClient* client, const Op& op,
             int shards) {
  ctx.result->Attempt();
  SpanRecorder::Scope span(ctx.spans, SpanName(op.kind),
                           ctx.spans->NewRequest());
  const Clock::time_point start = Clock::now();
  Status failure;
  switch (op.kind) {
    case OpKind::kExact: {
      auto params = client->GetSnapshot(op.model, op.sequence);
      const double ms = MillisSince(start);
      if (!params.ok()) {
        failure = params.status();
        break;
      }
      ctx.result->Check("served " + op.key,
                        CheckExact(*params, *ctx.corpus->Find(op.key),
                                   *ctx.tol));
      return ms;
    }
    case OpKind::kBounds: {
      auto reply = client->GetSnapshotBounds(op.model, op.sequence, op.planes);
      const double ms = MillisSince(start);
      if (!reply.ok()) {
        failure = reply.status();
        break;
      }
      ctx.result->Check("served bounds " + op.key,
                        CheckBoundsReply(*reply, op.key, op.planes,
                                         *ctx.corpus->Find(op.key)));
      return ms;
    }
    case OpKind::kDql: {
      const DqlCase& c = (*ctx.dql)[static_cast<size_t>(op.dql)];
      auto reply = client->Query(c.statement);
      const double ms = MillisSince(start);
      if (!reply.ok()) {
        failure = reply.status();
        break;
      }
      ctx.result->Check("served " + c.statement,
                        CheckSelectReply(*reply, c.expected, shards));
      return ms;
    }
    case OpKind::kList: {
      auto reply = client->ListModels();
      const double ms = MillisSince(start);
      if (!reply.ok()) {
        failure = reply.status();
        break;
      }
      ctx.result->Check("served LIST_MODELS",
                        CheckListReply(*reply, *ctx.corpus));
      return ms;
    }
  }
  ctx.result->Fail(std::string(SpanName(op.kind)) + " " + op.key, failure);
  return -1.0;
}

/// Runs kClients closed-loop clients against `port`, each sending
/// `rounds` whole rounds. Each client shuffles its rounds from the seed,
/// `stream` and its own index, so a run repeats its request order exactly.
PhaseStats RunPhase(const ServeContext& ctx, int port, int shards, int rounds,
                    uint64_t stream) {
  std::vector<PhaseStats> per_client(kClients);
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      PhaseStats& stats = per_client[static_cast<size_t>(c)];
      auto client = ModelHubClient::Connect("127.0.0.1", port);
      if (!client.ok()) {
        ctx.result->Attempt();
        ctx.result->Fail("connect", client.status());
        return;
      }
      Rng rng((ctx.seed * 1000003 + stream) * 7919 + static_cast<uint64_t>(c));
      std::vector<Op> round = *ctx.round;
      for (int r = 0; r < rounds; ++r) {
        for (size_t i = round.size(); i > 1; --i) {
          std::swap(round[i - 1], round[rng.Uniform(i)]);
        }
        for (const Op& op : round) {
          const double ms = RunOp(ctx, &*client, op, shards);
          if (ms < 0.0) continue;
          ++stats.completed;
          stats.all_ms.push_back(ms);
          if (op.kind == OpKind::kExact) stats.exact_ms.push_back(ms);
          if (op.kind == OpKind::kBounds) stats.bounds_ms.push_back(ms);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  PhaseStats total;
  for (const PhaseStats& s : per_client) total.Merge(s);
  total.wall_s = SecondsSince(start);
  return total;
}

double Ratio(double hits, double misses) {
  return hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

/// In-process replay of one exact GET_SNAPSHOT per snapshot through each
/// layer's public functions, plus the progressive reads and DQL selects.
void ReplayReadLayers(const ServeContext& ctx, ArchiveReader* archive,
                      Repository* repo, ThreadPool* pool) {
  const std::vector<std::string> keys = ctx.corpus->SnapshotKeys();
  for (int round = 0; round < kReplayRounds; ++round) {
    for (const std::string& key : keys) {
      ctx.result->Attempt();
      SpanRecorder::Scope request(ctx.spans, "replay.get_snapshot",
                                  ctx.spans->NewRequest());
      std::optional<std::vector<std::vector<NamedParam>>> sets;
      {
        SpanRecorder::Scope call(ctx.spans, "pas.RetrieveSnapshotsParallel");
        auto got =
            archive->RetrieveSnapshotsParallel({key}, pool, ParallelScheme::kShared);
        if (!got.ok()) {
          ctx.result->Fail("replay retrieve " + key, got.status());
          continue;
        }
        sets = std::move(*got);
      }
      std::string bytes;
      {
        SpanRecorder::Scope call(ctx.spans, "dlv.SerializeParams");
        bytes = SerializeParams((*sets)[0]);
      }
      const std::string payload = EncodeResponsePayload(Status::OK(), bytes);
      std::string wire;
      {
        SpanRecorder::Scope call(ctx.spans, "net.EncodeFrame");
        wire = EncodeFrame(static_cast<uint8_t>(Opcode::kGetSnapshot), payload);
      }
      Frame frame;
      {
        SpanRecorder::Scope call(ctx.spans, "net.DecodeFrame");
        Slice input(wire);
        Status decoded = DecodeFrame(&input, &frame);
        if (!decoded.ok()) {
          ctx.result->Fail("replay decode frame " + key, decoded);
          continue;
        }
      }
      Slice body(frame.payload);
      Status remote;
      if (Status s = DecodeResponsePayload(&body, &remote); !s.ok()) {
        ctx.result->Fail("replay decode payload " + key, s);
        continue;
      }
      SpanRecorder::Scope call(ctx.spans, "dlv.ParseParams");
      auto params = ParseParams(body);
      if (!params.ok()) {
        ctx.result->Fail("replay parse " + key, params.status());
        continue;
      }
      ctx.result->Check("replayed " + key,
                        CheckExact(*params, *ctx.corpus->Find(key), *ctx.tol));
    }
    for (const std::string& key : keys) {
      ctx.result->Attempt();
      SpanRecorder::Scope call(ctx.spans, "pas.RetrieveSnapshotBounds",
                               ctx.spans->NewRequest());
      auto bounds = archive->RetrieveSnapshotBounds(key, 2);
      if (!bounds.ok()) ctx.result->Fail("replay bounds " + key, bounds.status());
    }
    DqlOptions options;
    options.commit_results = false;
    DqlEngine engine(repo, options);
    for (const DqlCase& c : *ctx.dql) {
      ctx.result->Attempt();
      SpanRecorder::Scope call(ctx.spans, "dql.Run", ctx.spans->NewRequest());
      auto selected = engine.Run(c.statement);
      if (!selected.ok()) {
        ctx.result->Fail("replay " + c.statement, selected.status());
        continue;
      }
      ctx.result->Check("replayed " + c.statement,
                        CheckSelect(selected->model_names, c.expected));
    }
  }
}

}  // namespace

Status RunServe(const RunOptions& o, SpanRecorder* spans, RunResult* result) {
  Env* env = Env::Default();
  const Corpus corpus = MakeCorpus(o.seed);
  const RoundingTolerance tol(corpus);
  const std::vector<DqlCase> dql = MakeDqlCases(corpus);
  const std::string root = o.workdir + "/repo";
  {
    MH_ASSIGN_OR_RETURN(Repository repo, Repository::Init(env, root));
    MH_RETURN_IF_ERROR(CommitCorpus(&repo, corpus, spans));
    ArchiveOptions archive_options;
    archive_options.budget_alpha = 2.0;
    archive_options.archive_threads = 1;
    MH_RETURN_IF_ERROR(repo.Archive(archive_options).status());
  }
  ServerOptions server_options;
  server_options.num_workers = kBackendWorkers;
  server_options.retrieval_threads = kServerThreads;
  server_options.coalesce_linger_ms = 0;
  server_options.enable_maintenance = false;
  std::vector<std::unique_ptr<ModelHubServer>> backends;
  FleetTopology topology;
  for (int b = 0; b < 2; ++b) {
    backends.push_back(
        std::make_unique<ModelHubServer>(env, root, server_options));
    MH_RETURN_IF_ERROR(backends.back()->Start());
    topology.shards.push_back(
        {"shard" + std::to_string(b), {{"127.0.0.1", backends.back()->port()}}});
  }
  RouterOptions router_options;
  router_options.num_workers = kServerThreads;
  ModelHubRouter router(topology, router_options);
  MH_RETURN_IF_ERROR(router.Start());

  const std::vector<Op> round = MakeRound(corpus, dql.size());
  ServeContext ctx{&corpus, &tol, &dql, &round, o.seed, spans, result};
  const int direct_port = backends[0]->port();
  const int routed_shards = static_cast<int>(topology.shards.size());

  // Warm-up: one round per client on each path fills the chunk caches.
  RunPhase(ctx, direct_port, 1, 1, 0);
  RunPhase(ctx, router.port(), routed_shards, 1, 1);
  // Set-up is everything before the timed phases, the warm-up too.
  EndToEnd(o, result, "setup_s", SecondsSince(o.process_start), "s");

  PhaseStats direct, routed;
  double cache_hits = 0, cache_misses = 0, coalesced = 0, led = 0;
  const Clock::time_point timed_start = Clock::now();
  for (int w = 0; w == 0 || SecondsSince(timed_start) < o.seconds; ++w) {
    const uint64_t hits = CounterValue("pas.chunk.cache.hit");
    const uint64_t misses = CounterValue("pas.chunk.cache.miss");
    const uint64_t joined = backends[0]->coalesce_hits();
    const uint64_t leaders = backends[0]->coalesce_misses();
    direct.Merge(RunPhase(ctx, direct_port, 1, kRoundsPerWindow, 2 + 2 * w));
    cache_hits += static_cast<double>(CounterValue("pas.chunk.cache.hit") - hits);
    cache_misses +=
        static_cast<double>(CounterValue("pas.chunk.cache.miss") - misses);
    coalesced += static_cast<double>(backends[0]->coalesce_hits() - joined);
    led += static_cast<double>(backends[0]->coalesce_misses() - leaders);
    routed.Merge(
        RunPhase(ctx, router.port(), routed_shards, kRoundsPerWindow, 3 + 2 * w));
  }

  // Progressive reads in-process: every generated value inside its
  // interval, 2-plane intervals inside 1-plane ones.
  MH_ASSIGN_OR_RETURN(Repository repo, Repository::Open(env, root));
  MH_ASSIGN_OR_RETURN(std::shared_ptr<ArchiveReader> archive,
                      repo.SharedArchive());
  archive->EnableChunkCache(true);
  for (const std::string& key : corpus.SnapshotKeys()) {
    result->Attempt();
    auto one = archive->RetrieveSnapshotBounds(key, 1);
    auto two = archive->RetrieveSnapshotBounds(key, 2);
    if (!one.ok() || !two.ok()) {
      result->Fail("bounds " + key, one.ok() ? two.status() : one.status());
      continue;
    }
    result->Check("bounds " + key,
                  CheckBounds(*one, *two, *corpus.Find(key), tol));
  }

  const double direct_p50 = Percentile(direct.all_ms, 0.5);
  const double routed_p50 = Percentile(routed.all_ms, 0.5);
  std::fprintf(stderr,
               "serve: %zu snapshots, %.2f MB raw, %.2f MB stored (chunk "
               "cache %.0f MiB per backend), %zu ops per round\n",
               corpus.SnapshotKeys().size(), corpus.raw_bytes / 1e6,
               DirBytes(repo_layout::PasDir(root)) / 1e6,
               ChunkStoreReader::kDefaultCacheCapacity / 1048576.0,
               round.size());
  for (const auto& [name, phase] :
       {std::pair{"direct", &direct}, std::pair{"routed", &routed}}) {
    std::fprintf(stderr,
                 "serve %s: %llu requests in %.2f s (%.1f req/s), p50 %.3f "
                 "p90 %.3f p99 %.3f ms, exact p50 %.3f ms, bounds p50 %.3f "
                 "ms (%zu)\n",
                 name, static_cast<unsigned long long>(phase->completed),
                 phase->wall_s, phase->completed / phase->wall_s,
                 Percentile(phase->all_ms, 0.5), Percentile(phase->all_ms, 0.9),
                 Percentile(phase->all_ms, 0.99),
                 Percentile(phase->exact_ms, 0.5),
                 Percentile(phase->bounds_ms, 0.5), phase->bounds_ms.size());
  }
  // Both paths together: a request of this workload, whichever way it came.
  PhaseStats both = direct;
  both.Merge(routed);
  EndToEnd(o, result, "op_p50_ms", Percentile(both.all_ms, 0.5), "ms");
  EndToEnd(o, result, "op_p90_ms", Percentile(both.all_ms, 0.9), "ms");
  EndToEnd(o, result, "read_p50_ms", Percentile(both.exact_ms, 0.5), "ms");
  EndToEnd(o, result, "disk_per_raw",
           static_cast<double>(DirBytes(repo_layout::PasDir(root))) /
               corpus.raw_bytes,
           "bytes/byte");

  if (o.trace) {
    ThreadPool pool(server_options.retrieval_threads);
    ReplayReadLayers(ctx, archive.get(), &repo, &pool);
    auto median = [&](const char* name) {
      return Median(spans->DurationsMs(name));
    };
    const double retrieve = median("pas.RetrieveSnapshotsParallel");
    const double serialize = median("dlv.SerializeParams");
    const double encode = median("net.EncodeFrame");
    const double decode = median("net.DecodeFrame");
    const double parse = median("dlv.ParseParams");
    PerLayer(o, result, "dlv.commit_ms",
             Sum(spans->DurationsMs("dlv.Commit")), "ms");
    PerLayer(o, result, "pas.retrieve_warm_ms", retrieve, "ms");
    PerLayer(o, result, "pas.bounds_ms", median("pas.RetrieveSnapshotBounds"),
             "ms");
    PerLayer(o, result, "dlv.serialize_ms", serialize, "ms");
    PerLayer(o, result, "dlv.deserialize_ms", parse, "ms");
    PerLayer(o, result, "net.frame_encode_ms", encode, "ms");
    PerLayer(o, result, "net.frame_decode_ms", decode, "ms");
    PerLayer(o, result, "dql.run_ms", median("dql.Run"), "ms");
    PerLayer(o, result, "pas.cache_hit_ratio", Ratio(cache_hits, cache_misses),
             "ratio");
    PerLayer(o, result, "server.coalesce_hit_ratio", Ratio(coalesced, led),
             "ratio");
    PerLayer(o, result, "router.hop_ms", routed_p50 - direct_p50, "ms");
    PerLayer(o, result, "serve.unattributed_ms",
             direct_p50 - (retrieve + serialize + encode + decode + parse),
             "ms");
  }
  archive.reset();
  MH_RETURN_IF_ERROR(router.Stop());
  for (auto& backend : backends) MH_RETURN_IF_ERROR(backend->Stop());
  return Status::OK();
}

}  // namespace perfbench
