#include "net/frame_server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "common/macros.h"
#include "common/metrics.h"
#include "common/slice.h"
#include "common/trace.h"
#include "net/frame.h"
#include "net/socket.h"

namespace modelhub {
namespace {

// The core is driven with a stub handler: DQL_QUERY sleeps for the number
// of milliseconds in its payload (a request that holds its worker), every
// other opcode echoes "ok".
Status StubHandler(const Frame& request, std::string* out) {
  if (request.opcode == static_cast<uint8_t>(Opcode::kDqlQuery)) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::stoi(request.payload)));
  }
  *out = "ok";
  return Status::OK();
}

std::unique_ptr<FrameServer> StartServer(const FrameServerOptions& options,
                                         const std::string& prefix,
                                         int drain_grace_ms = 0) {
  auto server = std::make_unique<FrameServer>(
      options, prefix, drain_grace_ms,
      [prefix](std::string_view op) {
        return prefix + ".op." + std::string(op) + ".us";
      },
      StubHandler);
  EXPECT_TRUE(server->Start().ok());
  return server;
}

uint64_t CounterValue(const std::string& name) {
  return MetricRegistry::Global()->GetCounter(name)->value();
}

Socket Connect(const FrameServer& server) {
  auto sock =
      Socket::Connect("127.0.0.1", server.port(), Deadline::AfterMs(5000));
  EXPECT_TRUE(sock.ok()) << sock.status().ToString();
  return sock.ok() ? sock.MoveValue() : Socket();
}

/// Reads one reply frame; returns the status the server sent.
Status ReadReply(Socket* sock) {
  Frame reply;
  MH_RETURN_IF_ERROR(ReadFrame(sock, &reply, kDefaultMaxFrameBytes,
                               Deadline::AfterMs(5000)));
  Slice payload(reply.payload);
  Status remote;
  MH_RETURN_IF_ERROR(DecodeResponsePayload(&payload, &remote));
  return remote;
}

Status Call(Socket* sock, Opcode opcode, std::string_view payload = "",
            const FrameTrace* trace = nullptr) {
  MH_RETURN_IF_ERROR(WriteFrame(sock, static_cast<uint8_t>(opcode), payload,
                                Deadline::AfterMs(5000), nullptr, trace));
  return ReadReply(sock);
}

void WaitUntilQueued(const FrameServer& server, size_t queued) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.queued() != queued &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.queued(), queued);
}

class FrameServerTest : public ::testing::Test {
 protected:
  // Counts below are absolute, so every test (and every --gtest_repeat
  // round) starts from a zeroed registry.
  void SetUp() override { MetricRegistry::Global()->ResetAllForTest(); }
};

TEST_F(FrameServerTest, ShedsAtCapacity) {
  FrameServerOptions options;
  options.num_workers = 1;
  options.max_connections = 2;
  options.queue_capacity = 1;
  auto server = StartServer(options, "fs_capacity");

  // An open connection keeps its worker between requests, so `held` owns
  // the only worker, `queued` fills the queue, and a third is shed.
  Socket held = Connect(*server);
  ASSERT_TRUE(Call(&held, Opcode::kPing).ok());
  EXPECT_EQ(server->active(), 1);
  Socket queued = Connect(*server);
  WaitUntilQueued(*server, 1);
  Socket third = Connect(*server);
  const Status shed = ReadReply(&third);
  EXPECT_TRUE(shed.IsUnavailable()) << shed.ToString();
  EXPECT_EQ(shed.message(), "fs_capacity at capacity");
  EXPECT_EQ(CounterValue("fs_capacity.shed.count"), 1u);

  // Hanging up frees the worker for the queued connection.
  held = Socket();
  EXPECT_TRUE(Call(&queued, Opcode::kPing).ok());
  EXPECT_TRUE(server->Stop().ok());
}

TEST_F(FrameServerTest, ShedsConnectionQueuedPastIdleTimeout) {
  FrameServerOptions options;
  options.num_workers = 1;
  options.idle_timeout_ms = 200;
  auto server = StartServer(options, "fs_stale");

  // `busy` holds the only worker (first in its handler, then until it
  // hangs up) for well past the idle timeout while `stale` waits in the
  // queue.
  Socket busy = Connect(*server);
  std::thread holder([&] {
    EXPECT_TRUE(Call(&busy, Opcode::kDqlQuery, "600").ok());
    busy = Socket();
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server->active() != 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Socket stale = Connect(*server);
  const Status shed = ReadReply(&stale);
  holder.join();
  EXPECT_TRUE(shed.IsUnavailable()) << shed.ToString();
  EXPECT_EQ(shed.message(), "queued past idle timeout");
  EXPECT_EQ(CounterValue("fs_stale.shed.count"), 1u);
  EXPECT_TRUE(server->Stop().ok());
}

TEST_F(FrameServerTest, StopRefusesQueuedConnectionsTyped) {
  FrameServerOptions options;
  options.num_workers = 1;
  auto server = StartServer(options, "fs_stop");

  Socket held = Connect(*server);
  ASSERT_TRUE(Call(&held, Opcode::kPing).ok());
  Socket queued = Connect(*server);
  WaitUntilQueued(*server, 1);

  // Stop cancels held's idle read instead of waiting out the 30 s idle
  // timeout, and the never-served queued connection gets a typed refusal.
  const auto before = std::chrono::steady_clock::now();
  EXPECT_TRUE(server->Stop().ok());
  EXPECT_LT(std::chrono::steady_clock::now() - before, std::chrono::seconds(5));
  const Status refused = ReadReply(&queued);
  EXPECT_TRUE(refused.IsUnavailable()) << refused.ToString();
  EXPECT_EQ(refused.message(), "fs_stop draining");
  EXPECT_EQ(CounterValue("fs_stop.shed.count"), 1u);
  EXPECT_FALSE(ReadReply(&held).ok());  // Closed by the server.
  EXPECT_EQ(server->port(), 0);
}

TEST_F(FrameServerTest, DrainGraceAcceptsNewConnectionsThenHalts) {
  FrameServerOptions options;
  auto server = StartServer(options, "fs_grace", /*drain_grace_ms=*/2000);
  Socket held = Connect(*server);
  ASSERT_TRUE(Call(&held, Opcode::kPing).ok());

  server->RequestStop();
  EXPECT_TRUE(server->draining());
  EXPECT_FALSE(server->halting());
  // Inside the grace window a new connection is still accepted and
  // served.
  Socket during = Connect(*server);
  EXPECT_TRUE(Call(&during, Opcode::kPing).ok());
  EXPECT_FALSE(server->halting());

  // Once the window lapses the server halts on its own, and the idle
  // reads of both connections are cancelled: the server closes them long
  // before their 30 s idle timeout.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!server->halting() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(server->halting());
  for (Socket* sock : {&held, &during}) {
    Frame frame;
    bool clean_eof = false;
    const Status read = ReadFrame(sock, &frame, kDefaultMaxFrameBytes,
                                  Deadline::AfterMs(5000), nullptr, &clean_eof);
    EXPECT_FALSE(read.ok());
    EXPECT_TRUE(clean_eof) << read.ToString();
  }
  EXPECT_TRUE(server->Stop().ok());
}

TEST_F(FrameServerTest, SlowRequestRingAndExpiredDeadline) {
  FrameServerOptions options;
  options.slow_request_us = 2000;
  auto server = StartServer(options, "fs_slow");
  Socket sock = Connect(*server);

  // A request whose sender's deadline had already passed, and whose
  // handler takes 10 ms: it is counted as expired and lands in the ring.
  FrameTrace trace;
  trace.trace_hi = 0x11;
  trace.trace_lo = 0x22;
  trace.deadline_expired = true;
  ASSERT_TRUE(Call(&sock, Opcode::kDqlQuery, "10", &trace).ok());

  EXPECT_EQ(CounterValue("fs_slow.deadline.expired.count"), 1u);
  EXPECT_EQ(CounterValue("fs_slow.slow_requests.count"), 1u);
  const std::vector<SlowRequestEntry> slow = server->slow_log().Snapshot();
  ASSERT_EQ(slow.size(), 1u);
  EXPECT_EQ(slow[0].op, "dql_query");
  EXPECT_EQ(slow[0].status, "OK");
  EXPECT_GE(slow[0].latency_us, 10000u);
  EXPECT_EQ(slow[0].trace_hi, 0x11u);
  EXPECT_EQ(slow[0].trace_lo, 0x22u);
  EXPECT_TRUE(slow[0].after_deadline);
  EXPECT_EQ(MetricRegistry::Global()
                ->GetHistogram("fs_slow.op.dql_query.us")
                ->Snapshot()
                .count,
            1u);
  EXPECT_TRUE(server->Stop().ok());
}

TEST_F(FrameServerTest, NamesComeFromPrefixAndBytesInCountTheWire) {
  TraceRecorder* recorder = TraceRecorder::Global();
  recorder->SetEnabled(false);  // Only the wire sampling flag matters.
  recorder->Clear();
  auto server = StartServer(FrameServerOptions{}, "fs_names");
  Socket sock = Connect(*server);

  const uint64_t before = CounterValue("fs_names.bytes.in");
  ASSERT_TRUE(Call(&sock, Opcode::kPing).ok());
  const uint64_t untraced = CounterValue("fs_names.bytes.in") - before;
  FrameTrace trace;
  trace.trace_hi = 7;
  trace.sampled = true;
  trace.deadline_ms = 300000;  // A multi-byte varint.
  ASSERT_TRUE(Call(&sock, Opcode::kPing, "", &trace).ok());
  const uint64_t traced =
      CounterValue("fs_names.bytes.in") - before - untraced;

  const uint64_t plain_frame =
      EncodeFrame(static_cast<uint8_t>(Opcode::kPing), "").size();
  const uint64_t traced_frame =
      EncodeFrame(static_cast<uint8_t>(Opcode::kPing), "", &trace).size();
  EXPECT_EQ(untraced, plain_frame);
  // Exactly the trace-context header more than the untraced PING.
  EXPECT_EQ(traced - untraced, traced_frame - plain_frame);

  EXPECT_EQ(CounterValue("fs_names.accepted.count"), 1u);
  EXPECT_EQ(CounterValue("fs_names.requests.count"), 2u);
  EXPECT_EQ(MetricRegistry::Global()
                ->GetHistogram("fs_names.op.ping.us")
                ->Snapshot()
                .count,
            2u);
  bool span_named = false;
  for (const TraceEvent& e : recorder->Snapshot()) {
    if (e.name == "fs_names.request" && e.trace_hi == 7) span_named = true;
  }
  EXPECT_TRUE(span_named);
  EXPECT_TRUE(server->Stop().ok());
  EXPECT_EQ(CounterValue("fs_names.starts.count"), 1u);
  EXPECT_EQ(CounterValue("fs_names.stops.count"), 1u);
  recorder->Clear();
}

}  // namespace
}  // namespace modelhub
