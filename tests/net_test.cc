// Test suite for the `net` binary RPC serving layer.
//
// Wire protocol: frames and request/response bodies must round-trip
// exactly, and every malformed input — truncated frames, bad magic, future
// versions, bit-flipped checksums, oversized length prefixes, garbage
// bytes, unknown opcodes — must fail as a clean Status (exercised under
// ASan in CI), never a crash or an unbounded allocation.
//
// Server: a NetServer fronting a MatchService must answer exactly what
// MatchService::View() answers at the same epoch — including while an
// ingest thread publishes new epochs under concurrent clients (the
// multi-client stress test, run under TSan in CI) — resolve a pipelined
// burst against one epoch, and enforce its admission limits with clean
// errors. Every load-shedding decision is also observable: the admission
// tests pin the server's obs shed counters, and the kMetrics opcode
// scrapes the wired registry over the wire.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "datagen/financial_gen.h"
#include "matching/baselines.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "serve/match_service.h"
#include "shard/sharded_pipeline.h"

namespace gralmatch {
namespace {

// ---------------------------------------------------------------------------
// Wire-format unit tests
// ---------------------------------------------------------------------------

TEST(NetWireTest, FrameRoundTrip) {
  for (const std::string& body : {std::string(), std::string("payload"),
                                  std::string(4096, '\x7f')}) {
    const std::string frame = EncodeNetFrame(body);
    ASSERT_EQ(frame.size(),
              kNetFrameHeaderSize + body.size() + kNetFrameTrailerSize);
    auto decoded = DecodeNetFrame(frame);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(*decoded, body);
  }
}

TEST(NetWireTest, RequestBodyRoundTrip) {
  for (const NetRequest request :
       {NetRequest::GroupOf(7), NetRequest::Members(123456789),
        NetRequest::Stats(), NetRequest::GroupOf(-1),
        NetRequest::Metrics()}) {
    auto decoded = DecodeNetRequestBody(EncodeNetRequestBody(request));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->op, request.op);
    if (request.op == NetOpcode::kGroupOf ||
        request.op == NetOpcode::kMembers) {
      EXPECT_EQ(decoded->id, request.id);
    }
  }
}

TEST(NetWireTest, RequestBodyRejectsUnknownOpcodeAndTrailingBytes) {
  EXPECT_FALSE(DecodeNetRequestBody("\x2a").ok());
  EXPECT_FALSE(DecodeNetRequestBody("").ok());
  std::string trailing = EncodeNetRequestBody(NetRequest::Stats());
  trailing += '\x00';
  EXPECT_FALSE(DecodeNetRequestBody(trailing).ok());
}

TEST(NetWireTest, ReplyBodyRoundTrip) {
  NetReply group_reply;
  group_reply.op = NetOpcode::kGroupOf;
  group_reply.epoch = 9;
  group_reply.group = 42;
  NetReply members_reply;
  members_reply.op = NetOpcode::kMembers;
  members_reply.epoch = 10;
  members_reply.members = {1, 5, 8};
  NetReply stats_reply;
  stats_reply.op = NetOpcode::kStats;
  stats_reply.epoch = 11;
  stats_reply.stats.epoch = 11;
  stats_reply.stats.num_records = 100;
  stats_reply.stats.num_groups = 40;
  stats_reply.stats.num_matched_groups = 25;
  stats_reply.stats.num_predicted_pairs = 77;
  NetReply metrics_reply;
  metrics_reply.op = NetOpcode::kMetrics;
  metrics_reply.epoch = 12;
  metrics_reply.metrics =
      "# TYPE pipeline_mutations_total counter\npipeline_mutations_total 3\n";
  for (const NetReply& reply :
       {group_reply, members_reply, stats_reply, metrics_reply}) {
    auto decoded = DecodeNetReplyBody(EncodeNetReplyBody(reply));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(decoded->status.ok());
    EXPECT_EQ(decoded->op, reply.op);
    EXPECT_EQ(decoded->epoch, reply.epoch);
    EXPECT_EQ(decoded->group, reply.group);
    EXPECT_EQ(decoded->members, reply.members);
    EXPECT_TRUE(decoded->stats == reply.stats);
    EXPECT_EQ(decoded->metrics, reply.metrics);
  }

  NetReply error_reply;
  error_reply.status = Status::OutOfRange("too much");
  auto decoded = DecodeNetReplyBody(EncodeNetReplyBody(error_reply));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->status, error_reply.status);
}

TEST(NetWireTest, FrameBufferExtractsAPipelinedBurst) {
  NetFrameBuffer frames(1 << 20);
  const std::string a = EncodeNetFrame(EncodeNetRequestBody(NetRequest::GroupOf(1)));
  const std::string b = EncodeNetFrame(EncodeNetRequestBody(NetRequest::Stats()));
  const std::string c = EncodeNetFrame(EncodeNetRequestBody(NetRequest::Members(2)));
  const std::string burst = a + b + c;
  // Deliver the burst split at an arbitrary mid-frame point.
  const size_t split = a.size() + b.size() / 2;
  frames.Append(burst.data(), split);
  bool has_frame = false;
  std::string body;
  ASSERT_TRUE(frames.NextFrame(&has_frame, &body).ok());
  ASSERT_TRUE(has_frame);
  EXPECT_EQ(body, EncodeNetRequestBody(NetRequest::GroupOf(1)));
  ASSERT_TRUE(frames.NextFrame(&has_frame, &body).ok());
  EXPECT_FALSE(has_frame);  // b is only half-delivered
  frames.Append(burst.data() + split, burst.size() - split);
  ASSERT_TRUE(frames.NextFrame(&has_frame, &body).ok());
  ASSERT_TRUE(has_frame);
  EXPECT_EQ(body, EncodeNetRequestBody(NetRequest::Stats()));
  ASSERT_TRUE(frames.NextFrame(&has_frame, &body).ok());
  ASSERT_TRUE(has_frame);
  EXPECT_EQ(body, EncodeNetRequestBody(NetRequest::Members(2)));
  EXPECT_EQ(frames.buffered(), 0u);
}

TEST(NetWireTest, FrameBufferRejectsBadPrefixesBeforeTheBodyArrives) {
  bool has_frame = false;
  std::string body;

  NetFrameBuffer bad_magic(1 << 20);
  std::string frame = EncodeNetFrame("hello");
  frame[0] ^= 0xFF;
  bad_magic.Append(frame.data(), frame.size());
  Status st = bad_magic.NextFrame(&has_frame, &body);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("bad magic"), std::string::npos);

  // A future version is rejected from the 20-byte prefix alone — no body
  // bytes are needed (or trusted).
  NetFrameBuffer future(1 << 20);
  BinaryWriter header;
  header.WriteBytes(kNetFrameMagic, sizeof(kNetFrameMagic));
  header.WriteU32(kNetFrameVersion + 41);
  header.WriteU64(5);
  future.Append(header.buffer().data(), header.buffer().size());
  st = future.NextFrame(&has_frame, &body);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("newer"), std::string::npos);

  // An oversized length prefix is rejected before any allocation sized by
  // it — the receiver never waits for (or reserves) petabytes.
  NetFrameBuffer oversized(1024);
  BinaryWriter big;
  big.WriteBytes(kNetFrameMagic, sizeof(kNetFrameMagic));
  big.WriteU32(kNetFrameVersion);
  big.WriteU64(std::numeric_limits<uint64_t>::max() - 7);
  oversized.Append(big.buffer().data(), big.buffer().size());
  st = oversized.NextFrame(&has_frame, &body);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("exceeds"), std::string::npos);
}

TEST(NetWireTest, TruncatedFrameImagesFailCleanly) {
  const std::string frame =
      EncodeNetFrame(EncodeNetRequestBody(NetRequest::GroupOf(3)));
  for (size_t len = 0; len < frame.size(); ++len) {
    auto decoded = DecodeNetFrame(frame.substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
  }
  // And every single-bit flip of the checksum trailer is caught.
  for (size_t k = frame.size() - kNetFrameTrailerSize; k < frame.size(); ++k) {
    std::string damaged = frame;
    damaged[k] ^= 0x10;
    EXPECT_FALSE(DecodeNetFrame(damaged).ok()) << "flip at " << k;
  }
}

// ---------------------------------------------------------------------------
// Server fixture
// ---------------------------------------------------------------------------

std::vector<Record> FinancialRecords(size_t num_groups) {
  SyntheticConfig config;
  config.seed = 909;
  config.num_groups = num_groups;
  return FinancialGenerator(config).Generate().securities.records.records();
}

ShardedPipelineConfig NetTestConfig(size_t num_threads) {
  ShardedPipelineConfig config;
  config.base.pipeline.cleanup.gamma = 8;
  config.base.pipeline.cleanup.mu = 4;
  config.base.pipeline.pre_cleanup_threshold = 12;
  config.base.pipeline.match_threshold = 0.5;
  config.base.pipeline.num_threads = num_threads;
  return config;
}

/// A service with one published epoch over the financial fixture, plus a
/// server started on an ephemeral loopback port.
class NetServerTest : public ::testing::Test {
 protected:
  void StartServer(const NetServerOptions& options = {}) {
    pipeline_ = std::make_unique<ShardedPipeline>(NetTestConfig(2));
    ASSERT_TRUE(pipeline_->Ingest(FinancialRecords(30), matcher_).ok());
    service_.Publish(pipeline_->Snapshot().ValueOrDie(),
                     pipeline_->records().size());
    auto server = NetServer::Start(&service_, options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = server.MoveValueUnsafe();
  }

  std::unique_ptr<NetClient> Client() {
    auto client = NetClient::Connect(server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return client.MoveValueUnsafe();
  }

  /// The server must still answer on a fresh connection (used after every
  /// poisoned-connection scenario).
  void ExpectStillServing() {
    auto client = Client();
    auto stats = client->Stats();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_TRUE(*stats == service_.Stats());
  }

  /// Tests that assert on obs counters set `options.metrics = &registry_`
  /// before StartServer; the registry must outlive the server.
  obs::MetricsRegistry registry_;
  HeuristicIdMatcher matcher_;
  std::unique_ptr<ShardedPipeline> pipeline_;
  MatchService service_;
  std::unique_ptr<NetServer> server_;
};

TEST_F(NetServerTest, AnswersMatchDirectViewQueries) {
  StartServer();
  auto client = Client();
  const MatchSnapshotPtr view = service_.View();
  for (RecordId r = 0; r < static_cast<RecordId>(view->stats().num_records);
       ++r) {
    auto reply = client->GroupOf(r);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->group, view->GroupOf(r));
    EXPECT_EQ(reply->epoch, view->epoch());
    auto members = client->Members(reply->group);
    ASSERT_TRUE(members.ok()) << members.status().ToString();
    EXPECT_EQ(members->members, view->Members(reply->group));
  }
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(*stats == view->stats());
}

TEST_F(NetServerTest, OutOfRangeIdsAnswerCleanly) {
  StartServer();
  auto client = Client();
  for (const int64_t id :
       {static_cast<int64_t>(-1), static_cast<int64_t>(1) << 40,
        std::numeric_limits<int64_t>::min()}) {
    auto group = client->Call({NetRequest::GroupOf(id)});
    ASSERT_TRUE(group.ok()) << group.status().ToString();
    ASSERT_TRUE((*group)[0].status.ok());
    EXPECT_EQ((*group)[0].group, kNoGroup);
    auto members = client->Members(id);
    ASSERT_TRUE(members.ok()) << members.status().ToString();
    EXPECT_TRUE(members->members.empty());
  }
}

TEST_F(NetServerTest, PipelinedBurstResolvesAgainstOneEpoch) {
  StartServer();
  auto client = Client();
  std::vector<NetRequest> burst;
  for (RecordId r = 0; r < 20; ++r) burst.push_back(NetRequest::GroupOf(r));
  burst.push_back(NetRequest::Stats());
  auto replies = client->Call(burst);
  ASSERT_TRUE(replies.ok()) << replies.status().ToString();
  ASSERT_EQ(replies->size(), burst.size());
  for (const NetReply& reply : *replies) {
    ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
    EXPECT_EQ(reply.epoch, replies->front().epoch);
  }
  const NetServerCounters counters = server_->counters();
  EXPECT_EQ(counters.requests_served, burst.size());
  // The whole burst should have needed far fewer snapshot resolutions than
  // requests (one, when the kernel delivered the burst in one piece).
  EXPECT_LE(counters.batches, counters.requests_served);
}

TEST_F(NetServerTest, UnknownOpcodeIsAPerRequestErrorNotAConnectionLoss) {
  StartServer();
  auto client = Client();
  ASSERT_TRUE(client->SendBytes(EncodeNetFrame("\x2a")).ok());
  auto reply = client->ReadReply();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_FALSE(reply->status.ok());
  EXPECT_NE(reply->status.message().find("opcode"), std::string::npos);
  // The framing stayed in sync, so the same connection keeps working.
  auto stats = client->Stats();
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
}

TEST_F(NetServerTest, BadMagicGetsACleanErrorAndACloseNotACrash) {
  StartServer();
  auto client = Client();
  std::string frame = EncodeNetFrame(EncodeNetRequestBody(NetRequest::Stats()));
  frame[2] ^= 0x40;
  ASSERT_TRUE(client->SendBytes(frame).ok());
  auto reply = client->ReadReply();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_FALSE(reply->status.ok());
  EXPECT_NE(reply->status.message().find("bad magic"), std::string::npos);
  auto closed = client->ReadReply();
  EXPECT_FALSE(closed.ok());  // sync is unrecoverable: connection closed
  ExpectStillServing();
}

TEST_F(NetServerTest, FutureFrameVersionIsRejected) {
  StartServer();
  auto client = Client();
  BinaryWriter frame;
  frame.WriteBytes(kNetFrameMagic, sizeof(kNetFrameMagic));
  frame.WriteU32(kNetFrameVersion + 1);
  frame.WriteString(EncodeNetRequestBody(NetRequest::Stats()));
  frame.WriteU64(Fnv1a64(frame.buffer()));
  ASSERT_TRUE(client->SendBytes(frame.buffer()).ok());
  auto reply = client->ReadReply();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_FALSE(reply->status.ok());
  EXPECT_NE(reply->status.message().find("newer"), std::string::npos);
  ExpectStillServing();
}

TEST_F(NetServerTest, BitFlippedChecksumIsRejected) {
  StartServer();
  auto client = Client();
  std::string frame = EncodeNetFrame(EncodeNetRequestBody(NetRequest::Stats()));
  frame[frame.size() - 3] ^= 0x01;
  ASSERT_TRUE(client->SendBytes(frame).ok());
  auto reply = client->ReadReply();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_FALSE(reply->status.ok());
  EXPECT_NE(reply->status.message().find("checksum"), std::string::npos);
  ExpectStillServing();
}

TEST_F(NetServerTest, OversizedLengthPrefixIsRejectedWithoutAllocation) {
  NetServerOptions options;
  options.max_frame_size = 1024;
  options.metrics = &registry_;
  StartServer(options);
  auto client = Client();
  BinaryWriter header;
  header.WriteBytes(kNetFrameMagic, sizeof(kNetFrameMagic));
  header.WriteU32(kNetFrameVersion);
  header.WriteU64(static_cast<uint64_t>(1) << 60);
  ASSERT_TRUE(client->SendBytes(header.buffer()).ok());
  auto reply = client->ReadReply();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_FALSE(reply->status.ok());
  EXPECT_NE(reply->status.message().find("exceeds"), std::string::npos);
  ExpectStillServing();
  // The rejection is classified as frame-size shedding, not a framing
  // fault: the client spoke the protocol, it just asked for too much.
  EXPECT_EQ(registry_.GetCounter("net_shed_frame_size_total")->Value(), 1u);
  EXPECT_EQ(registry_.GetCounter("net_shed_framing_fatal_total")->Value(), 0u);
}

TEST_F(NetServerTest, GarbageThenValidFrameFailsCleanlyAndServerSurvives) {
  StartServer();
  auto client = Client();
  std::string garbage(64, '\xAB');
  garbage += EncodeNetFrame(EncodeNetRequestBody(NetRequest::Stats()));
  ASSERT_TRUE(client->SendBytes(garbage).ok());
  auto reply = client->ReadReply();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_FALSE(reply->status.ok());  // garbage poisons the stream...
  auto closed = client->ReadReply();
  EXPECT_FALSE(closed.ok());  // ...so the trailing valid frame is never served
  ExpectStillServing();
}

TEST_F(NetServerTest, TruncationSweepAcrossARequestFrameNeverWedgesTheServer) {
  StartServer();
  const std::string frame =
      EncodeNetFrame(EncodeNetRequestBody(NetRequest::GroupOf(1)));
  size_t connects = 0;
  for (size_t len = 1; len < frame.size(); ++len) {
    {
      auto client = Client();
      ASSERT_TRUE(client->SendBytes(frame.substr(0, len)).ok());
      // Dropping the connection mid-frame (client destruction closes the
      // socket) must leave the server intact, whatever the cut point.
    }
    // The kernel completes the handshake before accept() ever runs, and
    // reaping is asynchronous — wait until the server has both admitted
    // and reaped this connection, so the sweep never trips the connection
    // cap it is not testing.
    ++connects;
    while (server_->counters().connections_accepted < connects ||
           server_->active_connections() > 0) {
      std::this_thread::yield();
    }
  }
  ExpectStillServing();
}

TEST_F(NetServerTest, ConnectionsPastTheCapAreRejectedWithACleanError) {
  NetServerOptions options;
  options.max_connections = 1;
  options.metrics = &registry_;
  StartServer(options);
  auto first = Client();
  ASSERT_TRUE(first->Stats().ok());  // the slot is definitely occupied
  auto second = NetClient::Connect(server_->port());
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  auto reply = (*second)->ReadReply();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_FALSE(reply->status.ok());
  EXPECT_NE(reply->status.message().find("connection capacity"),
            std::string::npos);
  EXPECT_GE(server_->counters().connections_rejected, 1u);
  // The obs shed counter tracks the server's own rejection count exactly.
  EXPECT_EQ(registry_.GetCounter("net_shed_connection_cap_total")->Value(),
            server_->counters().connections_rejected);
  // The admitted connection is unaffected.
  EXPECT_TRUE(first->Stats().ok());
}

TEST_F(NetServerTest, RequestsPastTheInFlightCapGetCleanOverloadErrors) {
  NetServerOptions options;
  options.max_in_flight_requests = 1;
  options.metrics = &registry_;
  StartServer(options);
  auto client = Client();
  // A one-send burst large enough that the server drains several frames
  // into one batch; everything past the in-flight cap must come back as a
  // clean per-request error, never be dropped. The kernel may split the
  // burst (each fragment then fits the cap), so retry until a rejection is
  // observed — one attempt nearly always suffices on loopback.
  bool saw_rejection = false;
  for (int attempt = 0; attempt < 20 && !saw_rejection; ++attempt) {
    std::vector<NetRequest> burst(16, NetRequest::Stats());
    auto replies = client->Call(burst);
    ASSERT_TRUE(replies.ok()) << replies.status().ToString();
    ASSERT_EQ(replies->size(), burst.size());
    ASSERT_TRUE(replies->front().status.ok());
    for (const NetReply& reply : *replies) {
      if (reply.status.ok()) continue;
      EXPECT_NE(reply.status.message().find("overloaded"), std::string::npos);
      saw_rejection = true;
    }
  }
  EXPECT_TRUE(saw_rejection);
  EXPECT_GE(server_->counters().requests_rejected, 1u);
  // The obs overload counter tracks the server's rejection count exactly.
  EXPECT_EQ(registry_.GetCounter("net_shed_overload_total")->Value(),
            server_->counters().requests_rejected);
  // An overload error never poisons the connection.
  EXPECT_TRUE(client->Stats().ok());
}

TEST_F(NetServerTest, MetricsScrapeOverTheWireReflectsServedTraffic) {
  NetServerOptions options;
  options.metrics = &registry_;
  StartServer(options);
  auto client = Client();
  ASSERT_TRUE(client->Stats().ok());
  ASSERT_TRUE(client->GroupOf(0).ok());
  auto scrape = client->Metrics();
  ASSERT_TRUE(scrape.ok()) << scrape.status().ToString();
  // The text dump carries the server's RPC instruments; the served-request
  // counter has seen at least the two queries above (the scrape itself is
  // counted only after its reply is built).
  EXPECT_NE(scrape->find("# TYPE net_requests_served_total counter"),
            std::string::npos);
  EXPECT_NE(scrape->find("net_rpc_dispatch_seconds_count"),
            std::string::npos);
  EXPECT_GE(registry_.GetCounter("net_requests_served_total")->Value(), 3u);
  // A garbage connection afterwards lands in the framing-fatal shed
  // counter (it is not a frame-size rejection).
  auto poisoned = Client();
  ASSERT_TRUE(poisoned->SendBytes(std::string(64, '\xAB')).ok());
  auto reply = poisoned->ReadReply();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_FALSE(reply->status.ok());
  ExpectStillServing();
  EXPECT_EQ(registry_.GetCounter("net_shed_framing_fatal_total")->Value(), 1u);
  EXPECT_EQ(registry_.GetCounter("net_shed_frame_size_total")->Value(), 0u);
}

TEST_F(NetServerTest, MetricsScrapeWithoutARegistryIsACleanPerRequestError) {
  StartServer();  // no options.metrics
  auto client = Client();
  auto scrape = client->Metrics();
  EXPECT_FALSE(scrape.ok());
  EXPECT_NE(scrape.status().message().find("not enabled"), std::string::npos);
  // The error is per-request: the connection still serves.
  EXPECT_TRUE(client->Stats().ok());
}

TEST_F(NetServerTest, StopJoinsOpenConnectionsAndRefusesNewOnes) {
  StartServer();
  auto client = Client();
  ASSERT_TRUE(client->Stats().ok());
  const uint16_t port = server_->port();
  server_->Stop();
  auto reply = client->Stats();
  EXPECT_FALSE(reply.ok());
  auto late = NetClient::Connect(port);
  if (late.ok()) {
    // A connect may still succeed in the TIME_WAIT window; it must not be
    // served.
    EXPECT_FALSE((*late)->Stats().ok());
  }
}

TEST(NetServerStandaloneTest, ServesTheEmptyEpochZeroSnapshot) {
  MatchService service;
  auto server = NetServer::Start(&service, NetServerOptions{});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = NetClient::Connect((*server)->port());
  ASSERT_TRUE(client.ok());
  auto stats = (*client)->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->epoch, 0u);
  EXPECT_EQ(stats->num_records, 0u);
  auto group = (*client)->GroupOf(0);
  ASSERT_TRUE(group.ok());
  EXPECT_EQ(group->group, kNoGroup);
}

TEST(NetServerStandaloneTest, ZeroLimitsAreRefusedAtStart) {
  MatchService service;
  NetServerOptions options;
  options.max_connections = 0;
  EXPECT_FALSE(NetServer::Start(&service, options).ok());
  EXPECT_FALSE(NetServer::Start(nullptr, NetServerOptions{}).ok());
}

// ---------------------------------------------------------------------------
// Multi-client stress: concurrent clients against a publishing ingester
// (the TSan target, and the acceptance criterion: every networked answer
// equals the direct View() answer at the same epoch)
// ---------------------------------------------------------------------------

TEST(NetStressTest, ConcurrentClientsMatchDirectViewsWhileIngestPublishes) {
  const std::vector<Record> records = FinancialRecords(40);
  ShardedPipeline pipeline(NetTestConfig(2));
  HeuristicIdMatcher matcher;
  MatchService service;
  NetServerOptions options;
  options.max_connections = 8;
  auto server_or = NetServer::Start(&service, options);
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
  NetServer& server = **server_or;

  // Every published epoch's snapshot, for post-hoc verification of replies
  // by their epoch stamp (epoch 0 is the service's initial empty view).
  std::mutex history_mu;
  std::unordered_map<uint64_t, MatchSnapshotPtr> history;
  history[0] = service.View();

  std::atomic<bool> done{false};
  constexpr size_t kNumClients = 4;
  struct Observation {
    uint64_t epoch;
    RecordId record;
    GroupId group;
    std::vector<RecordId> members;
    ServeStats stats;
  };
  std::vector<std::vector<Observation>> logs(kNumClients);
  // Clients that logged at least one reply, and clients that returned (a
  // failed ASSERT returns early). Ingest may finish before any client is
  // scheduled, so the ingester waits for one reply per client (or for a
  // client to give up) before it stops them.
  std::atomic<size_t> answered{0};
  std::atomic<size_t> exited{0};
  struct CountOnExit {
    std::atomic<size_t>* count;
    ~CountOnExit() { count->fetch_add(1, std::memory_order_release); }
  };
  std::vector<std::thread> clients;
  clients.reserve(kNumClients);
  for (size_t t = 0; t < kNumClients; ++t) {
    clients.emplace_back([&, t] {
      const CountOnExit on_exit{&exited};
      auto client = NetClient::Connect(server.port());
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      uint32_t rng = static_cast<uint32_t>(t) * 2654435761u + 1u;
      while (!done.load(std::memory_order_acquire)) {
        rng = rng * 1664525u + 1013904223u;
        const RecordId r = static_cast<RecordId>(rng % records.size());
        // One burst = one epoch: the GroupOf, its Members, and the Stats
        // must all be mutually consistent.
        auto replies = (*client)->Call(
            {NetRequest::GroupOf(r), NetRequest::Stats()});
        ASSERT_TRUE(replies.ok()) << replies.status().ToString();
        const NetReply& group_reply = (*replies)[0];
        const NetReply& stats_reply = (*replies)[1];
        ASSERT_TRUE(group_reply.status.ok());
        ASSERT_TRUE(stats_reply.status.ok());
        ASSERT_EQ(group_reply.epoch, stats_reply.epoch);
        auto members = (*client)->Members(group_reply.group);
        ASSERT_TRUE(members.ok()) << members.status().ToString();
        Observation obs;
        obs.epoch = group_reply.epoch;
        obs.record = r;
        obs.group = group_reply.group;
        obs.stats = stats_reply.stats;
        if (members->epoch == group_reply.epoch) {
          obs.members = members->members;
        } else {
          obs.members.clear();  // spanned an epoch boundary; skip the check
        }
        logs[t].push_back(std::move(obs));
        if (logs[t].size() == 1) {
          answered.fetch_add(1, std::memory_order_release);
        }
      }
    });
  }

  // The ingest thread publishes an epoch per batch while clients hammer.
  constexpr size_t kBatches = 6;
  const size_t batch_size = (records.size() + kBatches - 1) / kBatches;
  for (size_t b = 0; b < kBatches; ++b) {
    const size_t begin = std::min(b * batch_size, records.size());
    const size_t end = std::min(begin + batch_size, records.size());
    std::vector<Record> batch(records.begin() + static_cast<long>(begin),
                              records.begin() + static_cast<long>(end));
    ASSERT_TRUE(pipeline.Ingest(batch, matcher).ok());
    service.Publish(pipeline.Snapshot().ValueOrDie(),
                    pipeline.records().size());
    const MatchSnapshotPtr published = service.View();
    std::lock_guard<std::mutex> lock(history_mu);
    history[published->epoch()] = published;
  }
  while (answered.load(std::memory_order_acquire) < kNumClients &&
         exited.load(std::memory_order_acquire) == 0) {
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& thread : clients) thread.join();
  server.Stop();

  // Every observed reply must equal the direct View() answer at its epoch.
  size_t verified = 0;
  for (const auto& log : logs) {
    for (const Observation& obs : log) {
      auto it = history.find(obs.epoch);
      ASSERT_NE(it, history.end()) << "reply from unpublished epoch "
                                   << obs.epoch;
      const MatchSnapshot& view = *it->second;
      EXPECT_EQ(obs.group, view.GroupOf(obs.record));
      if (!obs.members.empty()) {
        EXPECT_EQ(obs.members, view.Members(obs.group));
      }
      EXPECT_TRUE(obs.stats == view.stats());
      ++verified;
    }
  }
  EXPECT_GT(verified, 0u);
}

}  // namespace
}  // namespace gralmatch
