#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/metrics.h"
#include "common/slice.h"
#include "common/trace.h"
#include "data/dataset.h"
#include "dlv/repository.h"
#include "net/client.h"
#include "nn/trainer.h"
#include "nn/zoo.h"
#include "pas/archive.h"
#include "router/backend.h"
#include "router/hash_ring.h"
#include "router/router.h"
#include "server/modelhubd.h"

namespace modelhub {
namespace {

// -------------------------------------------------------------- HashRing

TEST(HashRingTest, DeterministicAcrossInstances) {
  HashRing a(64);
  HashRing b(64);
  for (const char* node : {"shard0", "shard1", "shard2"}) {
    a.AddNode(node);
    b.AddNode(node);
  }
  for (int i = 0; i < 200; ++i) {
    const std::string key = "model" + std::to_string(i);
    EXPECT_EQ(a.NodeFor(key), b.NodeFor(key));
  }
}

TEST(HashRingTest, SpreadsKeysAcrossNodes) {
  HashRing ring(64);
  ring.AddNode("shard0");
  ring.AddNode("shard1");
  ring.AddNode("shard2");
  std::map<std::string, int> owned;
  for (int i = 0; i < 1000; ++i) {
    owned[ring.NodeFor("model" + std::to_string(i))]++;
  }
  ASSERT_EQ(owned.size(), 3u);
  for (const auto& [node, count] : owned) {
    // 64 vnodes keep the split well away from degenerate; expected ~333.
    EXPECT_GE(count, 100) << node << " owns only " << count << " of 1000";
  }
}

TEST(HashRingTest, AddingNodeOnlyMovesKeysToIt) {
  HashRing ring(64);
  ring.AddNode("shard0");
  ring.AddNode("shard1");
  ring.AddNode("shard2");
  std::map<std::string, std::string> before;
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "model" + std::to_string(i);
    before[key] = ring.NodeFor(key);
  }

  ring.AddNode("shard3");
  int moved = 0;
  for (const auto& [key, old_owner] : before) {
    const std::string& new_owner = ring.NodeFor(key);
    if (new_owner != old_owner) {
      // The defining consistent-hashing property: a key either stays put
      // or moves to the NEW node — never between surviving nodes.
      EXPECT_EQ(new_owner, "shard3") << key << " moved " << old_owner
                                     << " -> " << new_owner;
      ++moved;
    }
  }
  EXPECT_GT(moved, 0);           // The new node took real ownership...
  EXPECT_LT(moved, 600);         // ...but nowhere near a full reshuffle.

  // Removing it restores the exact original placement.
  ring.RemoveNode("shard3");
  for (const auto& [key, old_owner] : before) {
    EXPECT_EQ(ring.NodeFor(key), old_owner);
  }
}

// -------------------------------------------------------- CircuitBreaker

TEST(CircuitBreakerTest, OpensAfterThresholdAndRecoversViaHalfOpen) {
  CircuitBreaker::Options options;
  options.failure_threshold = 3;
  options.open_ms = 50;
  CircuitBreaker breaker(options);

  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.Allow());
  EXPECT_FALSE(breaker.RecordFailure());
  EXPECT_FALSE(breaker.RecordFailure());
  EXPECT_TRUE(breaker.RecordFailure());  // Third in a row trips it.
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.Allow());  // Cooling down: fail fast.

  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_TRUE(breaker.Allow());   // This caller is the half-open probe.
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.Allow());  // Only ONE probe at a time.
  EXPECT_TRUE(breaker.RecordSuccess());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(), 0u);
}

TEST(CircuitBreakerTest, FailedProbeReopensImmediately) {
  CircuitBreaker::Options options;
  options.failure_threshold = 2;
  options.open_ms = 40;
  CircuitBreaker breaker(options);
  breaker.RecordFailure();
  breaker.RecordFailure();
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  ASSERT_TRUE(breaker.Allow());
  // One failed probe re-opens without needing threshold-many failures.
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.Allow());
}

TEST(CircuitBreakerTest, SuccessResetsConsecutiveCount) {
  CircuitBreaker::Options options;
  options.failure_threshold = 3;
  CircuitBreaker breaker(options);
  breaker.RecordFailure();
  breaker.RecordFailure();
  breaker.RecordSuccess();  // Streak broken.
  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

// --------------------------------------------------------- FleetTopology

TEST(FleetTopologyTest, ParsesShardsAndReplicas) {
  auto topology = FleetTopology::Parse(
      "127.0.0.1:5001,127.0.0.1:5002;127.0.0.1:5003");
  ASSERT_TRUE(topology.ok()) << topology.status().ToString();
  ASSERT_EQ(topology->shards.size(), 2u);
  EXPECT_EQ(topology->shards[0].name, "shard0");
  EXPECT_EQ(topology->shards[1].name, "shard1");
  ASSERT_EQ(topology->shards[0].replicas.size(), 2u);
  ASSERT_EQ(topology->shards[1].replicas.size(), 1u);
  EXPECT_EQ(topology->shards[0].replicas[1].host, "127.0.0.1");
  EXPECT_EQ(topology->shards[0].replicas[1].port, 5002);
  EXPECT_EQ(topology->num_backends(), 3u);
}

TEST(FleetTopologyTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(FleetTopology::Parse("").ok());
  EXPECT_FALSE(FleetTopology::Parse(";;").ok());
  EXPECT_FALSE(FleetTopology::Parse("localhost").ok());
  EXPECT_FALSE(FleetTopology::Parse("host:notaport").ok());
  EXPECT_FALSE(FleetTopology::Parse("host:0").ok());
  EXPECT_FALSE(FleetTopology::Parse("host:99999").ok());
  EXPECT_FALSE(FleetTopology::Parse("127.0.0.1:5001,,127.0.0.1:5002").ok());
}

// ---------------------------------------------------------- Fleet fixture
//
// Router tests run real ModelHubServer backends over loopback against one
// on-disk repository (serving is read-only, so replicas share it).

void CommitOne(Repository* repo, const std::string& name) {
  const Dataset ds = MakeBlobDataset(64, 4, 12, 0.05f, name.size());
  NetworkDef def = MiniVgg(4, 12, 1);
  def.set_name(name);
  auto net = Network::Create(def);
  ASSERT_TRUE(net.ok());
  Rng rng(1);
  net->InitializeWeights(&rng);
  TrainOptions options;
  options.iterations = 20;
  options.snapshot_every = 10;
  auto trained = TrainNetwork(&*net, ds, options);
  ASSERT_TRUE(trained.ok());
  CommitRequest request;
  request.name = name;
  request.network = def;
  request.snapshots = trained->snapshots;
  request.log = trained->log;
  ASSERT_TRUE(repo->Commit(request).ok());
}

class RouterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = Env::Default();
    root_ = ::testing::TempDir() + "/mh_router_repo";
    RemoveTree(env_, root_);
    auto repo = Repository::Init(env_, root_);
    ASSERT_TRUE(repo.ok()) << repo.status().ToString();
    CommitOne(&*repo, "served_v1");
    auto built = repo->Archive(ArchiveOptions{});
    ASSERT_TRUE(built.ok()) << built.status().ToString();
  }

  void TearDown() override {
    for (auto& server : servers_) {
      if (server != nullptr) (void)server->Stop();
    }
    RemoveTree(env_, root_);
  }

  /// Starts one backend on `port` (0 = ephemeral) and returns its index.
  size_t StartBackend(int port = 0) {
    ServerOptions options;
    options.port = port;
    auto server = std::make_unique<ModelHubServer>(env_, root_, options);
    EXPECT_TRUE(server->Start().ok());
    servers_.push_back(std::move(server));
    return servers_.size() - 1;
  }

  /// Builds a topology of `shards` x `replicas` from freshly started
  /// backends; servers_[shard * replicas + r] backs shard `shard`.
  FleetTopology StartFleet(int shards, int replicas) {
    FleetTopology topology;
    for (int s = 0; s < shards; ++s) {
      FleetTopology::Shard shard;
      shard.name = "shard" + std::to_string(s);
      for (int r = 0; r < replicas; ++r) {
        const size_t index = StartBackend();
        shard.replicas.push_back(
            {"127.0.0.1", servers_[index]->port()});
      }
      topology.shards.push_back(std::move(shard));
    }
    return topology;
  }

  Env* env_ = nullptr;
  std::string root_;
  std::vector<std::unique_ptr<ModelHubServer>> servers_;
};

TEST_F(RouterTest, BasicOpsThroughRouter) {
  ModelHubRouter router(StartFleet(/*shards=*/2, /*replicas=*/1));
  ASSERT_TRUE(router.Start().ok());
  ASSERT_GT(router.port(), 0);

  auto client = ModelHubClient::Connect("127.0.0.1", router.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto pong = client->Ping();
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  auto info = ParsePingReply(*pong);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->state, "serving");
  EXPECT_NE(pong->find("role=router"), std::string::npos);

  // Both shards replicate the same catalog; the fan-out must dedupe.
  auto models = client->ListModels();
  ASSERT_TRUE(models.ok()) << models.status().ToString();
  const size_t first = models->find("served_v1");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(models->find("served_v1", first + 1), std::string::npos);

  // Snapshot reads route by hash and come back bit-identical to a direct
  // repository read.
  auto repo = Repository::Open(env_, root_);
  ASSERT_TRUE(repo.ok());
  auto direct = repo->GetSnapshotParams("served_v1");
  ASSERT_TRUE(direct.ok());
  auto remote = client->GetSnapshot("served_v1");
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  ASSERT_EQ(remote->size(), direct->size());
  for (size_t i = 0; i < direct->size(); ++i) {
    EXPECT_EQ((*remote)[i].name, (*direct)[i].name);
  }

  auto query = client->Query("select m where m.name like \"%\"");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_NE(query->find("served_v1"), std::string::npos);

  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats->find("\"router\""), std::string::npos);
  EXPECT_NE(stats->find("router.requests.count"), std::string::npos);
  EXPECT_NE(stats->find("\"backends\""), std::string::npos);
  EXPECT_NE(stats->find("\"breaker\":\"closed\""), std::string::npos);

  // Server-side errors relay their typed code through the router.
  auto missing = client->GetSnapshot("no_such_model");
  EXPECT_TRUE(missing.status().IsNotFound()) << missing.status().ToString();

  EXPECT_TRUE(router.Stop().ok());
  EXPECT_FALSE(router.running());
  // Draining the router never touches the backends.
  for (const auto& server : servers_) EXPECT_TRUE(server->running());
}

TEST_F(RouterTest, SteersAwayFromDrainingReplicaWithoutTrippingBreaker) {
  // Replica 0 gets a long drain grace so we can observe the draining
  // window; replica 1 is a plain backend.
  {
    ServerOptions options;
    // Long enough for the assertions below; Stop() waits out whatever is
    // left, so keep it modest.
    options.drain_grace_ms = 4000;
    auto server = std::make_unique<ModelHubServer>(env_, root_, options);
    ASSERT_TRUE(server->Start().ok());
    servers_.push_back(std::move(server));
  }
  StartBackend();

  FleetTopology topology;
  FleetTopology::Shard shard;
  shard.name = "shard0";
  shard.replicas.push_back({"127.0.0.1", servers_[0]->port()});
  shard.replicas.push_back({"127.0.0.1", servers_[1]->port()});
  topology.shards.push_back(std::move(shard));

  RouterOptions options;
  options.probe_interval_ms = 50;
  options.probe_timeout_ms = 300;
  ModelHubRouter router(std::move(topology), options);
  ASSERT_TRUE(router.Start().ok());

  auto client = ModelHubClient::Connect("127.0.0.1", router.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->GetSnapshot("served_v1").ok());

  // Ask replica 0 to drain directly (as an operator rollout would).
  {
    auto direct = ModelHubClient::Connect("127.0.0.1", servers_[0]->port());
    ASSERT_TRUE(direct.ok());
    ASSERT_TRUE(direct->Shutdown().ok());
    servers_[0]->WaitUntilStopRequested();
  }

  // The prober must learn `state=draining` from rich PING.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(3);
  bool seen_draining = false;
  while (std::chrono::steady_clock::now() < deadline) {
    auto statuses = router.BackendStatuses();
    ASSERT_EQ(statuses.size(), 2u);
    if (statuses[0].draining) {
      seen_draining = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(seen_draining);

  // Traffic keeps succeeding (steered to replica 1), and crucially the
  // draining replica is never mistaken for dead: both breakers stay
  // closed the whole time.
  for (int i = 0; i < 10; ++i) {
    auto remote = client->GetSnapshot("served_v1");
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    auto models = client->ListModels();
    ASSERT_TRUE(models.ok()) << models.status().ToString();
    EXPECT_NE(models->find("served_v1"), std::string::npos);
  }
  auto statuses = router.BackendStatuses();
  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_TRUE(statuses[0].draining);
  EXPECT_EQ(statuses[0].breaker, CircuitBreaker::State::kClosed);
  EXPECT_FALSE(statuses[1].draining);
  EXPECT_EQ(statuses[1].breaker, CircuitBreaker::State::kClosed);

  EXPECT_TRUE(router.Stop().ok());
}

TEST_F(RouterTest, ShutdownRpcDrainsRouterOnly) {
  ModelHubRouter router(StartFleet(1, 1));
  ASSERT_TRUE(router.Start().ok());
  auto client = ModelHubClient::Connect("127.0.0.1", router.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Shutdown().ok());
  router.WaitUntilStopRequested();
  EXPECT_TRUE(router.Stop().ok());
  EXPECT_TRUE(servers_[0]->running());
  auto direct = ModelHubClient::Connect("127.0.0.1", servers_[0]->port());
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(direct->Ping().ok());
}

TEST_F(RouterTest, DrainStartedMidFanOutStillAsksEveryShard) {
  // shard0 is a bare frame listener that answers PINGs but holds its
  // LIST_MODELS reply until the router has been asked to drain; shard1 is
  // a real backend. A request the router already read must still visit
  // shard1 after the drain began, so the client gets the full answer.
  auto listener = Listener::Bind("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  std::atomic<bool> holding{false};
  std::atomic<bool> release{false};
  std::thread shard0([&] {
    for (;;) {
      Result<Socket> conn = listener->Accept(10000);
      if (!conn.ok()) return;
      Frame request;
      while (ReadFrame(&*conn, &request, kDefaultMaxFrameBytes,
                       Deadline::AfterMs(10000))
                 .ok()) {
        const bool list = request.opcode ==
                          static_cast<uint8_t>(Opcode::kListModels);
        if (list) {
          holding.store(true);
          while (!release.load()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
        const std::string result =
            list ? "held_v1 - 1 0.000 archived\n" : "pong state=serving";
        if (!WriteFrame(&*conn, request.opcode,
                        EncodeResponsePayload(Status::OK(), result),
                        Deadline::AfterMs(10000))
                 .ok() ||
            list) {
          return;
        }
      }
    }
  });

  StartBackend();
  FleetTopology topology;
  topology.shards.push_back({"shard0", {{"127.0.0.1", listener->port()}}});
  topology.shards.push_back({"shard1", {{"127.0.0.1", servers_[0]->port()}}});
  RouterOptions options;
  options.probe_interval_ms = 60000;  // Keep the prober out of the way.
  ModelHubRouter router(std::move(topology), options);
  ASSERT_TRUE(router.Start().ok());

  Result<std::string> models = Status::Internal("not run");
  std::thread client_thread([&] {
    auto client = ModelHubClient::Connect("127.0.0.1", router.port());
    if (!client.ok()) {
      models = client.status();
      return;
    }
    models = client->ListModels();
  });
  while (!holding.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  router.RequestStop();
  release.store(true);
  client_thread.join();
  shard0.join();

  ASSERT_TRUE(models.ok()) << models.status().ToString();
  EXPECT_NE(models->find("held_v1"), std::string::npos) << *models;
  EXPECT_NE(models->find("served_v1"), std::string::npos) << *models;
  EXPECT_TRUE(router.Stop().ok());
}

TEST_F(RouterTest, RetryBudgetExhaustionShedsTyped) {
  // A shard whose only replica is a dead port: bind, record, release.
  int dead_port = 0;
  {
    auto listener = Listener::Bind("127.0.0.1", 0);
    ASSERT_TRUE(listener.ok());
    dead_port = listener->port();
  }
  FleetTopology topology;
  topology.shards.push_back({"shard0", {{"127.0.0.1", dead_port}}});

  RouterOptions options;
  options.failure_threshold = 2;
  options.breaker_open_ms = 60000;  // Stays open for the whole test.
  options.max_attempts = 3;
  options.retry_backoff_base_ms = 5;
  options.retry_backoff_max_ms = 20;
  options.probe_interval_ms = 60000;  // Keep the prober out of the way.
  ModelHubRouter router(std::move(topology), options);
  ASSERT_TRUE(router.Start().ok());

  auto client = ModelHubClient::Connect("127.0.0.1", router.port());
  ASSERT_TRUE(client.ok());
  auto first = client->ListModels();
  EXPECT_TRUE(first.status().IsUnavailable()) << first.status().ToString();
  EXPECT_NE(first.status().message().find("shard0"), std::string::npos);

  // The failed attempts opened the breaker; now requests fail fast
  // without burning connect timeouts or backoff sleeps.
  auto statuses = router.BackendStatuses();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].breaker, CircuitBreaker::State::kOpen);
  const auto before = std::chrono::steady_clock::now();
  auto second = client->ListModels();
  const auto elapsed = std::chrono::steady_clock::now() - before;
  EXPECT_TRUE(second.status().IsUnavailable());
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            1000);
  EXPECT_TRUE(router.Stop().ok());
}

TEST_F(RouterTest, ProberEjectsDeadBackendBeforeTrafficFindsIt) {
  RouterOptions options;
  options.probe_interval_ms = 50;
  options.probe_timeout_ms = 300;
  options.failure_threshold = 2;
  options.breaker_open_ms = 60000;  // Stays open: no re-admission here.
  FleetTopology topology = StartFleet(/*shards=*/1, /*replicas=*/2);
  ModelHubRouter router(std::move(topology), options);
  ASSERT_TRUE(router.Start().ok());

  // Kill replica 0 with NO client traffic flowing: only the active
  // prober can notice, and it must open the breaker on its own.
  ASSERT_TRUE(servers_[0]->Stop().ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  bool ejected = false;
  while (std::chrono::steady_clock::now() < deadline) {
    for (const auto& status : router.BackendStatuses()) {
      if (status.breaker == CircuitBreaker::State::kOpen) ejected = true;
    }
    if (ejected) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(ejected);

  // First-ever client requests succeed off the surviving replica without
  // ever burning a connect timeout on the ejected one.
  auto client = ModelHubClient::Connect("127.0.0.1", router.port());
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 5; ++i) {
    auto models = client->ListModels();
    EXPECT_TRUE(models.ok()) << models.status().ToString();
  }
  EXPECT_TRUE(router.Stop().ok());
}

// ------------------------------------------------------------ Fleet soak
//
// The headline robustness test: 3 shards x 2 replicas under sustained
// multi-client traffic; one backend is killed mid-run and restarted on
// the same port. Clients must observe ZERO failed requests (failover
// absorbs the outage) and the killed backend must be re-admitted by the
// half-open probe once it returns.

TEST_F(RouterTest, FleetSoakSurvivesBackendKillAndRestart) {
  FleetTopology topology = StartFleet(/*shards=*/3, /*replicas=*/2);
  RouterOptions options;
  options.probe_interval_ms = 100;
  options.probe_timeout_ms = 500;
  options.failure_threshold = 2;
  options.breaker_open_ms = 300;
  options.max_attempts = 5;
  options.retry_backoff_base_ms = 5;
  options.retry_backoff_max_ms = 50;
  ModelHubRouter router(std::move(topology), options);
  ASSERT_TRUE(router.Start().ok());

  // Kill a replica of the shard that actually owns the served model so
  // the outage sits directly on the request path.
  const std::string& owner = router.ShardForModel("served_v1");
  ASSERT_EQ(owner.rfind("shard", 0), 0u);
  const int shard_index = std::atoi(owner.c_str() + 5);
  const size_t victim = static_cast<size_t>(shard_index) * 2;
  const int victim_port = servers_[victim]->port();

  constexpr int kClients = 4;
  std::atomic<bool> stop_traffic{false};
  std::atomic<int> failed{0};
  std::atomic<int> completed{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = ModelHubClient::Connect("127.0.0.1", router.port());
      if (!client.ok()) {
        failed.fetch_add(1);
        return;
      }
      int i = 0;
      while (!stop_traffic.load()) {
        Status status;
        switch ((c + i++) % 3) {
          case 0:
            status = client->Ping().status();
            break;
          case 1:
            status = client->GetSnapshot("served_v1").status();
            break;
          default:
            status = client->ListModels().status();
            break;
        }
        if (!status.ok()) {
          failed.fetch_add(1);
          // Keep soaking on a fresh connection so one failure cannot
          // cascade into a broken-pipe storm.
          auto again = ModelHubClient::Connect("127.0.0.1", router.port());
          if (again.ok()) client = std::move(again);
        }
        completed.fetch_add(1);
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  ASSERT_TRUE(servers_[victim]->Stop().ok());  // The kill.
  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  {
    // The restart: same port, fresh process-equivalent.
    ServerOptions server_options;
    server_options.port = victim_port;
    auto reborn =
        std::make_unique<ModelHubServer>(env_, root_, server_options);
    ASSERT_TRUE(reborn->Start().ok());
    servers_[victim] = std::move(reborn);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(800));
  stop_traffic.store(true);
  for (auto& t : clients) t.join();

  EXPECT_EQ(failed.load(), 0);
  EXPECT_GT(completed.load(), kClients * 10);

  // The restarted backend must be re-admitted: every breaker closed and
  // nobody draining once the half-open probe has done its round.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!router.AllBackendsHealthy() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(router.AllBackendsHealthy());
  for (const auto& status : router.BackendStatuses()) {
    EXPECT_EQ(status.breaker, CircuitBreaker::State::kClosed)
        << status.name << " breaker "
        << BreakerStateToString(status.breaker);
  }
  EXPECT_TRUE(router.Stop().ok());
}

// ------------------------------------------------------- Observability

TEST_F(RouterTest, TraceContextRelayedThroughFailover) {
  TraceRecorder* recorder = TraceRecorder::Global();
  recorder->SetEnabled(false);
  recorder->Clear();

  FleetTopology topology = StartFleet(/*shards=*/1, /*replicas=*/2);
  RouterOptions options;
  options.max_attempts = 4;
  options.retry_backoff_base_ms = 5;
  options.retry_backoff_max_ms = 20;
  ModelHubRouter router(std::move(topology), options);
  ASSERT_TRUE(router.Start().ok());

  // One replica down: the traced request must fail over and still carry
  // its context to whichever backend finally serves it.
  ASSERT_TRUE(servers_[0]->Stop().ok());

  auto client = ModelHubClient::Connect("127.0.0.1", router.port());
  ASSERT_TRUE(client.ok());
  TraceContext ctx = MakeSampledTraceContext();
  {
    ScopedTraceContext scope(ctx);
    auto params = client->GetSnapshot("served_v1");
    ASSERT_TRUE(params.ok()) << params.status().ToString();
  }

  auto wire = client->GetTraceDump();
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  std::vector<TraceNodeDump> dumps;
  ASSERT_TRUE(ParseTraceDumps(Slice(*wire), &dumps).ok());
  // Router section + the one live backend (the dead one can't answer).
  ASSERT_EQ(dumps.size(), 2u);
  EXPECT_EQ(dumps[0].node.rfind("router@", 0), 0u);
  EXPECT_EQ(dumps[1].node.rfind("modelhubd@", 0), 0u);
  EXPECT_NE(dumps[1].node.find(std::to_string(servers_[1]->port())),
            std::string::npos);

  // The whole chain shares the sampled trace id, and the backend's
  // request span chains to a router.forward span — relayed span ids, not
  // re-rooted ones. (Servers here share the test process, so every
  // section snapshots the same recorder; cross-process identity is
  // covered by the dump-merge unit test and the CI fleet soak.)
  const TraceEvent* server_request = nullptr;
  std::vector<uint64_t> forward_ids;
  for (const TraceEvent& e : dumps[0].events) {
    EXPECT_EQ(e.trace_hi, ctx.trace_hi);
    EXPECT_EQ(e.trace_lo, ctx.trace_lo);
    if (e.name == "server.request") server_request = &e;
    if (e.name == "router.forward") forward_ids.push_back(e.id);
  }
  ASSERT_NE(server_request, nullptr);
  ASSERT_FALSE(forward_ids.empty());
  bool chained = false;
  for (uint64_t id : forward_ids) {
    if (server_request->parent_id == id) chained = true;
  }
  EXPECT_TRUE(chained);

  EXPECT_TRUE(router.Stop().ok());
  recorder->Clear();
}

TEST_F(RouterTest, GetTraceReturnsOneSectionPerNode) {
  TraceRecorder* recorder = TraceRecorder::Global();
  recorder->SetEnabled(false);
  recorder->Clear();

  ModelHubRouter router(StartFleet(/*shards=*/2, /*replicas=*/1));
  ASSERT_TRUE(router.Start().ok());
  auto client = ModelHubClient::Connect("127.0.0.1", router.port());
  ASSERT_TRUE(client.ok());

  auto wire = client->GetTraceDump();
  ASSERT_TRUE(wire.ok());
  std::vector<TraceNodeDump> dumps;
  ASSERT_TRUE(ParseTraceDumps(Slice(*wire), &dumps).ok());
  ASSERT_EQ(dumps.size(), 3u);  // Router + both backends.
  EXPECT_EQ(dumps[0].node.rfind("router@", 0), 0u);
  EXPECT_EQ(dumps[1].node.rfind("modelhubd@", 0), 0u);
  EXPECT_EQ(dumps[2].node.rfind("modelhubd@", 0), 0u);
  EXPECT_NE(dumps[1].node, dumps[2].node);  // Distinct node labels.
  // The merged rendering is well-formed JSON with a row per node.
  const std::string merged = MergeTraceDumps(dumps);
  EXPECT_EQ(merged.front(), '[');
  for (const TraceNodeDump& dump : dumps) {
    EXPECT_NE(merged.find(dump.node), std::string::npos);
  }
  EXPECT_TRUE(router.Stop().ok());
}

TEST_F(RouterTest, GetMetricsLabelsNodesAndDedupsTypes) {
  ModelHubRouter router(StartFleet(/*shards=*/1, /*replicas=*/2));
  ASSERT_TRUE(router.Start().ok());
  auto client = ModelHubClient::Connect("127.0.0.1", router.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Ping().ok());

  auto text = client->Metrics();
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("node=\"router\""), std::string::npos);
  for (size_t i = 0; i < 2; ++i) {
    const std::string label =
        "node=\"127.0.0.1:" + std::to_string(servers_[i]->port()) + "\"";
    EXPECT_NE(text->find(label), std::string::npos) << label;
  }
  // Both backends export the same families; the fleet scrape must type
  // each family exactly once.
  const std::string type_line = "# TYPE server_requests_count counter";
  const size_t first = text->find(type_line);
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text->find(type_line, first + 1), std::string::npos);

  EXPECT_TRUE(router.Stop().ok());
}

}  // namespace
}  // namespace modelhub
