// Network plane tests: wire codec hardening, loopback RPC equivalence,
// replication bootstrap + live tailing, drain semantics, and weighted
// per-client QoS.
//
// The equivalence centerpiece mirrors the durability plane's bar: an
// answer served over TCP must be BIT FOR BIT the answer an in-process
// submit() gives at the same epoch — same label arrays, same
// histograms, same counts — and a replica bootstrapped over the wire
// from a kill-9'd writer must reconstruct the exact snapshot
// persist::recover() rebuilds from the directory the writer left
// behind (both are the same checkpoint + WAL replay protocol, one of
// them across a socket).
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/cluster_view.hpp"
#include "engine/query.hpp"
#include "engine/sld_service.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/replication.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "parallel/random.hpp"
#include "persist/bytes.hpp"
#include "persist/checkpoint.hpp"
#include "persist/persist.hpp"
#include "test_util.hpp"

namespace dynsld::net {
namespace {

using namespace std::chrono_literals;
namespace fs = std::filesystem;
using engine::AsOf;
using engine::AtLeastEpoch;
using engine::QueryError;
using engine::QueryErrorCode;
using engine::QueryRequest;
using engine::ResultSet;
using engine::ServiceConfig;
using engine::SizeHistogram;
using engine::SldService;
using engine::ticket_t;

/// A unique scratch directory, recursively removed on destruction.
struct TempDir {
  std::string path;
  TempDir() {
    static std::atomic<int> seq{0};
    path = (fs::temp_directory_path() /
            ("dynsld_net_" + std::to_string(seq.fetch_add(1)) + "_" +
             std::to_string(reinterpret_cast<uintptr_t>(this) & 0xffffffu)))
               .string();
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// Distinct, deterministic edge weights (ties are the documented
/// exactness caveat, so every test workload avoids them).
double unique_weight(uint64_t idx) {
  return static_cast<double>(idx * 2654435761ull % 999983ull) / 999983.0;
}

/// The engine shape all processes in these tests agree on.
ServiceConfig net_config(const std::string& dir = {}) {
  ServiceConfig cfg;
  cfg.num_vertices = 120;
  cfg.num_shards = 3;
  if (!dir.empty()) {
    cfg.persist.dir = dir;
    cfg.persist.checkpoint_every = 4;
  }
  return cfg;
}

/// Deterministic churn: `batches` flushed epochs of unique-weight edges
/// (plus some erases), identical across runs and processes.
void churn(SldService& svc, int batches, uint64_t seed) {
  par::Rng rng(seed);
  std::vector<ticket_t> live;
  uint64_t idx = 1 + seed * 100000;
  for (int b = 0; b < batches; ++b) {
    for (int i = 0; i < 25; ++i) {
      if (!live.empty() && rng.next_double() < 0.25) {
        size_t j = rng.next_bounded(live.size());
        svc.erase(live[j]);
        live[j] = live.back();
        live.pop_back();
      } else {
        auto [u, v] = test::random_distinct_pair(rng, 120);
        live.push_back(svc.insert(u, v, unique_weight(idx++)));
      }
    }
    svc.flush();
  }
}

/// Canonical byte encoding of the snapshot at `epoch` — the bit-for-bit
/// comparator: every shard's dendrogram arrays byte-exact (encode_shard
/// is exposed for exactly this) plus flat label arrays across the tau
/// range. Full SnapshotCodec::encode() bytes are NOT comparable across
/// processes: they embed the epoch's per-process build timings
/// (EpochTrace), which are observability, not state.
std::string snapshot_bytes(const SldService& svc, uint64_t epoch) {
  engine::EpochManager::Snap snap = svc.snapshot_at(epoch);
  persist::ByteWriter w;
  w.u64(snap->epoch());
  for (int k = 0; k < 3; ++k)
    persist::SnapshotCodec::encode_shard(snap->shard(k), w);
  engine::ClusterView view(snap);
  for (double tau : {0.15, 0.35, 0.55, 0.75, 0.95})
    w.pod_vec(view.at(tau)->flat_clustering());
  return w.take();
}

void expect_same_results(const ResultSet& a, const ResultSet& b) {
  EXPECT_EQ(a.epoch, b.epoch);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i)
    EXPECT_EQ(a.results[i], b.results[i]) << "result " << i;
}

// ---- frame codec ------------------------------------------------------

TEST(FrameCodec, RoundTripWholeAndByteByByte) {
  const std::string payload = "the payload \x00\x01\xff bytes";
  for (uint8_t t = uint8_t(MsgType::kHello); t <= uint8_t(MsgType::kWalRecord);
       ++t) {
    std::string frame = encode_frame(MsgType(t), payload);
    ASSERT_EQ(frame.size(), kFrameHeaderBytes + payload.size());
    // Whole buffer at once.
    {
      FrameParser p;
      p.feed(frame.data(), frame.size());
      Frame f;
      ASSERT_EQ(p.next(&f), FrameParser::Status::kFrame);
      EXPECT_EQ(uint8_t(f.type), t);
      EXPECT_EQ(f.payload, payload);
      EXPECT_EQ(p.next(&f), FrameParser::Status::kNeedMore);
    }
    // One byte at a time (worst-case reassembly).
    {
      FrameParser p;
      Frame f;
      for (size_t i = 0; i + 1 < frame.size(); ++i) {
        p.feed(frame.data() + i, 1);
        ASSERT_EQ(p.next(&f), FrameParser::Status::kNeedMore) << "byte " << i;
      }
      p.feed(frame.data() + frame.size() - 1, 1);
      ASSERT_EQ(p.next(&f), FrameParser::Status::kFrame);
      EXPECT_EQ(f.payload, payload);
    }
  }
  // Empty payload frames (kPing) are legal.
  std::string ping = encode_frame(MsgType::kPing, std::string());
  FrameParser p;
  p.feed(ping.data(), ping.size());
  Frame f;
  ASSERT_EQ(p.next(&f), FrameParser::Status::kFrame);
  EXPECT_TRUE(f.payload.empty());
}

TEST(FrameCodec, BackToBackFramesInOneFeed) {
  std::string stream = encode_frame(MsgType::kPing, "a") +
                       encode_frame(MsgType::kQuery, "bb") +
                       encode_frame(MsgType::kResult, "ccc");
  FrameParser p;
  p.feed(stream.data(), stream.size());
  Frame f;
  ASSERT_EQ(p.next(&f), FrameParser::Status::kFrame);
  EXPECT_EQ(f.payload, "a");
  ASSERT_EQ(p.next(&f), FrameParser::Status::kFrame);
  EXPECT_EQ(f.payload, "bb");
  ASSERT_EQ(p.next(&f), FrameParser::Status::kFrame);
  EXPECT_EQ(f.payload, "ccc");
  EXPECT_EQ(p.next(&f), FrameParser::Status::kNeedMore);
}

TEST(FrameCodec, TruncationNeverYieldsAFrame) {
  std::string frame = encode_frame(MsgType::kQuery, "truncate me please");
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    FrameParser p;
    p.feed(frame.data(), cut);
    Frame f;
    EXPECT_EQ(p.next(&f), FrameParser::Status::kNeedMore) << "cut " << cut;
  }
}

TEST(FrameCodec, CorruptionFuzzNeverYieldsAWrongFrame) {
  par::Rng rng = test::test_rng();
  std::string frame = encode_frame(MsgType::kResult, "some payload to guard");
  int rejected = 0;
  for (int iter = 0; iter < 400; ++iter) {
    std::string bad = frame;
    size_t pos = rng.next_bounded(bad.size());
    bad[pos] = static_cast<char>(bad[pos] ^ (1u << rng.next_bounded(8)));
    FrameParser p;
    p.feed(bad.data(), bad.size());
    Frame f;
    switch (p.next(&f)) {
      case FrameParser::Status::kFrame:
        // Only flips the CRC does not cover (reserved header bytes) may
        // still parse — and then content must be untouched.
        EXPECT_EQ(f.type, MsgType::kResult);
        EXPECT_EQ(f.payload, "some payload to guard");
        break;
      case FrameParser::Status::kBad:
        ++rejected;
        break;
      case FrameParser::Status::kNeedMore:
        // A length-field flip can claim a longer payload; starving is
        // the correct answer for a stream that never delivers it.
        break;
    }
  }
  // A corrupted payload byte must actually be caught by the CRC.
  EXPECT_GT(rejected, 0);
  std::string bad = frame;
  bad[kFrameHeaderBytes] ^= 0x40;
  FrameParser p;
  p.feed(bad.data(), bad.size());
  Frame f;
  EXPECT_EQ(p.next(&f), FrameParser::Status::kBad);
}

TEST(FrameCodec, OversizedAndMalformedHeadersAreSticky) {
  // An oversized length claim is rejected from the header alone.
  persist::ByteWriter w;
  w.u32(kProtoMagic);
  w.u8(kProtoVersion);
  w.u8(uint8_t(MsgType::kQuery));
  w.u8(0);
  w.u8(0);
  w.u32(kMaxFrameBytes + 1);
  w.u32(0);
  std::string huge = w.take();
  FrameParser p;
  p.feed(huge.data(), huge.size());
  Frame f;
  EXPECT_EQ(p.next(&f), FrameParser::Status::kBad);
  // kBad is sticky: even a pristine frame afterwards is refused (the
  // stream is poisoned; the connection must drop).
  std::string good = encode_frame(MsgType::kPing, "x");
  p.feed(good.data(), good.size());
  EXPECT_EQ(p.next(&f), FrameParser::Status::kBad);

  // Wrong magic and wrong version are rejected too.
  for (int variant = 0; variant < 2; ++variant) {
    std::string bad = good;
    bad[variant == 0 ? 0 : 4] ^= 0x01;
    FrameParser q;
    q.feed(bad.data(), bad.size());
    EXPECT_EQ(q.next(&f), FrameParser::Status::kBad);
  }
}

// ---- message codecs ---------------------------------------------------

TEST(MessageCodec, HelloRoundTrip) {
  Hello h;
  h.client_id = 0xABCDEF0123456789ull;
  h.weight = 7;
  h.role = kRoleReplica;
  Hello back;
  ASSERT_TRUE(decode_hello(encode_hello(h), &back));
  EXPECT_EQ(back.client_id, h.client_id);
  EXPECT_EQ(back.weight, h.weight);
  EXPECT_EQ(back.role, h.role);

  HelloAck a;
  a.epoch = 123456;
  a.num_vertices = 999;
  a.num_shards = 5;
  HelloAck aback;
  ASSERT_TRUE(decode_hello_ack(encode_hello_ack(a), &aback));
  EXPECT_EQ(aback.epoch, a.epoch);
  EXPECT_EQ(aback.num_vertices, a.num_vertices);
  EXPECT_EQ(aback.num_shards, a.num_shards);

  EXPECT_FALSE(decode_hello("short", &back));
  EXPECT_FALSE(decode_hello_ack("short", &aback));
}

TEST(MessageCodec, QueryRoundTripAllKindsAndConsistencies) {
  const auto now = std::chrono::steady_clock::now();
  QueryRequest req;
  req.queries = {engine::SameClusterQuery{3, 9, 0.25},
                 engine::ClusterSizeQuery{4, 0.5},
                 engine::ClusterReportQuery{5, 0.75},
                 engine::FlatClusteringQuery{0.1},
                 engine::SizeHistogramQuery{0.2},
                 engine::NumClustersQuery{0.3}};
  req.deadline = now + 1500ms;

  for (int mode = 0; mode < 3; ++mode) {
    if (mode == 1) req.consistency = AtLeastEpoch{42};
    if (mode == 2) req.consistency = AsOf{17};
    std::string payload;
    ASSERT_TRUE(encode_query(99, req, now, &payload));
    uint64_t id = 0;
    QueryRequest back;
    ASSERT_TRUE(decode_query(payload, &id, &back, now));
    EXPECT_EQ(id, 99u);
    ASSERT_EQ(back.queries.size(), req.queries.size());
    EXPECT_EQ(std::get<engine::SameClusterQuery>(back.queries[0]).u, 3u);
    EXPECT_EQ(std::get<engine::SameClusterQuery>(back.queries[0]).v, 9u);
    EXPECT_EQ(std::get<engine::ClusterSizeQuery>(back.queries[1]).u, 4u);
    EXPECT_EQ(std::get<engine::ClusterReportQuery>(back.queries[2]).tau, 0.75);
    EXPECT_EQ(std::get<engine::SizeHistogramQuery>(back.queries[4]).tau, 0.2);
    EXPECT_EQ(std::get<engine::NumClustersQuery>(back.queries[5]).tau, 0.3);
    if (mode == 0) EXPECT_TRUE(std::holds_alternative<engine::Latest>(back.consistency));
    if (mode == 1)
      EXPECT_EQ(std::get<AtLeastEpoch>(back.consistency).epoch, 42u);
    if (mode == 2) EXPECT_EQ(std::get<AsOf>(back.consistency).epoch, 17u);
    // The deadline crosses as a relative timeout: equal up to the
    // encoding's millisecond granularity.
    auto dt = back.deadline - req.deadline;
    EXPECT_LT(std::chrono::abs(dt), 5ms);
  }

  // Pinned holds a process-local pointer: not wire-encodable.
  QueryRequest pinned;
  pinned.queries = {engine::NumClustersQuery{0.5}};
  pinned.consistency = engine::Pinned{nullptr};
  std::string payload;
  EXPECT_FALSE(encode_query(1, pinned, now, &payload));

  // Garbage payloads are refused, not misparsed.
  uint64_t id;
  QueryRequest back;
  EXPECT_FALSE(decode_query("nonsense", &id, &back, now));
  EXPECT_FALSE(decode_query(std::string(), &id, &back, now));
}

TEST(MessageCodec, ResultAndErrorRoundTrip) {
  ResultSet rs;
  rs.epoch = 77;
  rs.results = {engine::QueryResult(true), engine::QueryResult(uint64_t(12)),
                engine::QueryResult(std::vector<vertex_id>{1, 5, 9}),
                engine::QueryResult(SizeHistogram{{{1, 4}, {3, 2}}})};
  uint64_t id = 0;
  ResultSet back;
  ASSERT_TRUE(decode_result(encode_result(55, rs), &id, &back));
  EXPECT_EQ(id, 55u);
  expect_same_results(rs, back);

  for (QueryErrorCode code :
       {QueryErrorCode::kDeadlineExceeded, QueryErrorCode::kCancelled,
        QueryErrorCode::kAdmissionRejected, QueryErrorCode::kShutdown,
        QueryErrorCode::kEpochUnavailable}) {
    QueryErrorCode bcode;
    ASSERT_TRUE(decode_error(encode_error(9, code), &id, &bcode));
    EXPECT_EQ(id, 9u);
    EXPECT_EQ(bcode, code);
  }
  EXPECT_FALSE(decode_result("bad", &id, &back));
  QueryErrorCode bcode;
  EXPECT_FALSE(decode_error("bad", &id, &bcode));
}

// ---- loopback RPC -----------------------------------------------------

TEST(Rpc, LoopbackMatchesInProcessBitForBit) {
  SldService svc(net_config());
  churn(svc, 6, /*seed=*/1);
  const uint64_t tip = svc.epoch();
  RpcServer server(svc);
  RpcClient client("127.0.0.1", server.port());
  EXPECT_EQ(client.ack().epoch, tip);
  EXPECT_EQ(client.ack().num_vertices, 120u);
  EXPECT_TRUE(client.ping());

  par::Rng rng = test::test_rng();
  for (int round = 0; round < 8; ++round) {
    double tau = 0.1 + 0.8 * rng.next_double();
    vertex_id u = rng.next_bounded(120), v = rng.next_bounded(120);
    QueryRequest req;
    req.queries = {engine::SameClusterQuery{u, v, tau},
                   engine::ClusterSizeQuery{u, tau},
                   engine::ClusterReportQuery{v, tau},
                   engine::FlatClusteringQuery{tau},
                   engine::SizeHistogramQuery{tau},
                   engine::NumClustersQuery{tau}};
    // Pin both paths to the same epoch so the comparison is exact.
    req.consistency = AsOf{tip};
    QueryRequest wire = req, local = req;
    ResultSet over_wire = client.query(wire);
    ResultSet in_process = svc.submit(std::move(local)).get();
    expect_same_results(over_wire, in_process);
    EXPECT_EQ(over_wire.epoch, tip);
  }
  // Typed errors cross the wire as the same exception an in-process
  // future throws.
  QueryRequest stale;
  stale.queries = {engine::NumClustersQuery{0.5}};
  stale.consistency = AsOf{tip + 1000};
  try {
    client.query(stale);
    FAIL() << "expected QueryError";
  } catch (const QueryError& e) {
    EXPECT_EQ(e.code(), QueryErrorCode::kEpochUnavailable);
  }
}

TEST(Rpc, ConcurrentClientsAllAnswerConsistently) {
  SldService svc(net_config());
  churn(svc, 5, /*seed=*/2);
  const uint64_t tip = svc.epoch();
  RpcServer server(svc);

  QueryRequest oracle_req;
  oracle_req.queries = {engine::NumClustersQuery{0.4},
                        engine::SizeHistogramQuery{0.4}};
  oracle_req.consistency = AsOf{tip};
  ResultSet oracle = svc.submit(std::move(oracle_req)).get();

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      try {
        RpcClient client("127.0.0.1", server.port(),
                         RpcClient::Options{uint64_t(t + 1), 1});
        for (int i = 0; i < 20; ++i) {
          QueryRequest req;
          req.queries = {engine::NumClustersQuery{0.4},
                         engine::SizeHistogramQuery{0.4}};
          req.consistency = AsOf{tip};
          ResultSet rs = client.query(req);
          if (rs.epoch != oracle.epoch || rs.results != oracle.results)
            failures.fetch_add(1);
        }
      } catch (...) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

/// Queries the engine cannot serve are malformed frames: a vertex past
/// num_vertices (its shard lookup would index out of range) and a NaN
/// tau (it breaks the broker's ordered (epoch, tau) grouping). Each
/// drops its own connection through the frame-reject path; another
/// connection keeps getting answers equal to submit().
TEST(Rpc, UnservableQueriesAreRejectedAsMalformedFrames) {
  SldService svc(net_config());
  churn(svc, 4, /*seed=*/12);
  const uint64_t tip = svc.epoch();
  RpcServer server(svc);
  RpcClient healthy("127.0.0.1", server.port());

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<engine::Query> bad = {
      engine::ClusterSizeQuery{120, 0.5},  // vertex == num_vertices
      engine::ClusterReportQuery{0xFFFFFFFFu, 0.5},
      engine::SameClusterQuery{3, 0xFFFFFFFFu, 0.5},
      engine::NumClustersQuery{nan},
      engine::SameClusterQuery{1, 2, nan},
  };
  for (size_t i = 0; i < bad.size(); ++i) {
    SCOPED_TRACE("bad query " + std::to_string(i));
    const uint64_t rejects = svc.stats().net_frame_rejects;
    {
      RpcClient client("127.0.0.1", server.port());
      QueryRequest req;
      // Share the healthy client's (epoch, tau) group, so a query that
      // slipped through would join it.
      req.queries = {engine::NumClustersQuery{0.4}, bad[i]};
      req.consistency = AsOf{tip};
      EXPECT_THROW(client.query(req), std::runtime_error);
    }
    EXPECT_EQ(svc.stats().net_frame_rejects, rejects + 1);

    QueryRequest probe;
    probe.queries = {engine::NumClustersQuery{0.4},
                     engine::ClusterSizeQuery{119, 0.4},
                     engine::SameClusterQuery{0, 119, 0.4},
                     engine::SizeHistogramQuery{0.4}};
    probe.consistency = AsOf{tip};
    QueryRequest local = probe;
    expect_same_results(healthy.query(probe),
                        svc.submit(std::move(local)).get());
  }
}

// ---- drain semantics (the shutdown-wake regression) -------------------

TEST(Broker, AbortWaitersResolvesParkedRequests) {
  SldService svc(net_config());
  churn(svc, 2, /*seed=*/3);
  // Park a waiter on an epoch no writer will ever publish.
  QueryRequest req;
  req.queries = {engine::NumClustersQuery{0.5}};
  req.consistency = AtLeastEpoch{svc.epoch() + 100};
  auto fut = svc.submit(std::move(req));
  ASSERT_EQ(fut.wait_for(100ms), std::future_status::timeout);
  svc.broker().abort_waiters();
  ASSERT_EQ(fut.wait_for(2s), std::future_status::ready);
  try {
    fut.get();
    FAIL() << "expected QueryError";
  } catch (const QueryError& e) {
    EXPECT_EQ(e.code(), QueryErrorCode::kShutdown);
  }
  EXPECT_GE(svc.stats().broker_drain_aborted, 1u);
}

TEST(Rpc, StopDoesNotParkOnIdleEngineWaiters) {
  // The regression: a server drain used to rely on the hub's publish
  // signal alone, so a parked AtLeastEpoch waiter on an idle engine
  // held the drain until its full timeout.
  SldService svc(net_config());
  churn(svc, 2, /*seed=*/4);
  RpcServer::Options opt;
  opt.drain_timeout = 30s;  // a hang would blow way past the assert below
  auto server = std::make_unique<RpcServer>(svc, opt);
  uint16_t port = server->port();

  std::promise<void> got_error;
  std::thread waiter([&] {
    RpcClient client("127.0.0.1", port);
    QueryRequest req;
    req.queries = {engine::NumClustersQuery{0.5}};
    req.consistency = AtLeastEpoch{svc.epoch() + 100};
    try {
      client.query(req);
    } catch (const QueryError& e) {
      EXPECT_EQ(e.code(), QueryErrorCode::kShutdown);
      got_error.set_value();
      return;
    } catch (const std::runtime_error&) {
      // Transport teardown before the error frame flushed also proves
      // the drain did not park; the future was still resolved.
      got_error.set_value();
      return;
    }
    got_error.set_value();
    ADD_FAILURE() << "parked query resolved with a value";
  });

  std::this_thread::sleep_for(200ms);  // let the query park
  auto t0 = std::chrono::steady_clock::now();
  server->stop();
  auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, 10s);
  ASSERT_EQ(got_error.get_future().wait_for(5s), std::future_status::ready);
  waiter.join();
}

// ---- replication ------------------------------------------------------

TEST(Repl, ReplicaBootstrapsTailsAndServesAtLeastEpoch) {
  TempDir dir;
  SldService svc(net_config(dir.path));
  churn(svc, 6, /*seed=*/5);
  RpcServer server(svc);

  Replica::Options ropt;
  ropt.port = server.port();
  ropt.cfg = net_config();
  Replica replica(ropt);
  ASSERT_TRUE(replica.wait_for_epoch(svc.epoch(), 10000ms));
  EXPECT_FALSE(replica.desynced());

  // Bootstrap equivalence at the shared epoch.
  uint64_t tip = svc.epoch();
  EXPECT_EQ(snapshot_bytes(replica.service(), tip), snapshot_bytes(svc, tip));

  // Live tailing: new writer epochs arrive and an AtLeastEpoch query
  // against the LAGGING replica parks until its stream catches up.
  QueryRequest req;
  req.queries = {engine::NumClustersQuery{0.3}};
  req.consistency = AtLeastEpoch{tip + 2};
  auto fut = replica.service().submit(std::move(req));
  ASSERT_EQ(fut.wait_for(100ms), std::future_status::timeout);
  churn(svc, 2, /*seed=*/6);  // writer publishes tip+1, tip+2
  ResultSet rs = fut.get();
  EXPECT_GE(rs.epoch, tip + 2);
  ASSERT_TRUE(replica.wait_for_epoch(svc.epoch(), 10000ms));
  EXPECT_EQ(snapshot_bytes(replica.service(), svc.epoch()),
            snapshot_bytes(svc, svc.epoch()));
}

TEST(Repl, TwoReplicasFanOutAndServeIdenticalAnswers) {
  TempDir dir;
  SldService svc(net_config(dir.path));
  churn(svc, 5, /*seed=*/7);
  RpcServer server(svc);

  Replica::Options ropt;
  ropt.port = server.port();
  ropt.cfg = net_config();
  Replica rep1(ropt), rep2(ropt);
  // Each replica serves its own broker behind its own port.
  RpcServer srv1(rep1.service()), srv2(rep2.service());

  churn(svc, 3, /*seed=*/8);  // more epochs while both tail
  const uint64_t tip = svc.epoch();
  ASSERT_TRUE(rep1.wait_for_epoch(tip, 10000ms));
  ASSERT_TRUE(rep2.wait_for_epoch(tip, 10000ms));

  QueryRequest req;
  req.queries = {engine::FlatClusteringQuery{0.35},
                 engine::SizeHistogramQuery{0.35},
                 engine::NumClustersQuery{0.35}};
  req.consistency = AsOf{tip};
  QueryRequest r0 = req, r1 = req, r2 = req;
  ResultSet direct = svc.submit(std::move(r0)).get();
  RpcClient c1("127.0.0.1", srv1.port()), c2("127.0.0.1", srv2.port());
  ResultSet via1 = c1.query(r1), via2 = c2.query(r2);
  expect_same_results(via1, direct);
  expect_same_results(via2, direct);
  EXPECT_GE(svc.stats().repl_snapshots_served, 2u);
}

// Writer process of Kill9WriterReplicaMatchesRecoverBitForBit: build
// durable state in $DYNSLD_KILL9_DIR, serve it, report (port, tip) on the
// inherited pipe descriptor $DYNSLD_KILL9_FD, then hang until SIGKILL —
// no destructor runs, like a real crash. The parent starts it by
// fork+exec of this test binary, so the writer begins from a fresh
// process image: no fork-join pool threads and no lock state inherited
// from the parent. Disabled, so only that exec runs it.
TEST(Repl, DISABLED_Kill9WriterProcess) {
  const char* dir = std::getenv("DYNSLD_KILL9_DIR");
  const char* fd_env = std::getenv("DYNSLD_KILL9_FD");
  if (!dir || !fd_env) GTEST_SKIP() << "runs only as the writer process";
  const int fd = std::atoi(fd_env);
  SldService svc(net_config(dir));
  churn(svc, 10, /*seed=*/9);
  RpcServer server(svc);
  uint16_t port = server.port();
  uint64_t tip = svc.epoch();
  if (::write(fd, &port, sizeof port) != sizeof port) ::_exit(3);
  if (::write(fd, &tip, sizeof tip) != sizeof tip) ::_exit(3);
  for (;;) ::pause();
}

TEST(Repl, Kill9WriterReplicaMatchesRecoverBitForBit) {
  TempDir dir;
  int pipefd[2];
  ASSERT_EQ(::pipe(pipefd), 0);
  // Everything the exec needs is built before fork: between fork and
  // exec the child makes only async-signal-safe calls.
  std::vector<std::string> env;
  for (char** e = environ; *e; ++e) env.emplace_back(*e);
  env.push_back("DYNSLD_KILL9_DIR=" + dir.path);
  env.push_back("DYNSLD_KILL9_FD=" + std::to_string(pipefd[1]));
  std::vector<char*> envp;
  for (std::string& e : env) envp.push_back(e.data());
  envp.push_back(nullptr);
  std::string arg0 = "test_net",
              arg1 = "--gtest_filter=Repl.DISABLED_Kill9WriterProcess",
              arg2 = "--gtest_also_run_disabled_tests";
  char* argv[] = {arg0.data(), arg1.data(), arg2.data(), nullptr};
  const int devnull = ::open("/dev/null", O_WRONLY);
  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::close(pipefd[0]);
    if (devnull >= 0) ::dup2(devnull, STDOUT_FILENO);  // child's gtest chatter
    ::execve("/proc/self/exe", argv, envp.data());
    ::_exit(127);
  }
  if (devnull >= 0) ::close(devnull);
  ::close(pipefd[1]);
  uint16_t port = 0;
  uint64_t tip = 0;
  ASSERT_EQ(::read(pipefd[0], &port, sizeof port), ssize_t(sizeof port));
  ASSERT_EQ(::read(pipefd[0], &tip, sizeof tip), ssize_t(sizeof tip));
  ::close(pipefd[0]);

  std::string replica_bytes;
  {
    Replica::Options ropt;
    ropt.port = port;
    ropt.cfg = net_config();
    Replica replica(ropt);
    ASSERT_TRUE(replica.wait_for_epoch(tip, 15000ms));
    replica_bytes = snapshot_bytes(replica.service(), tip);
  }

  // kill -9 the writer mid-serve, then rebuild from the directory it
  // left behind. The wire bootstrap and the disk recovery must agree
  // on every byte of the snapshot.
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  ASSERT_EQ(::waitpid(pid, nullptr, 0), pid);

  persist::RecoverResult rec = persist::recover(net_config(dir.path));
  ASSERT_EQ(rec.tip_epoch, tip);
  EXPECT_EQ(snapshot_bytes(*rec.service, tip), replica_bytes);
  EXPECT_FALSE(replica_bytes.empty());
}

TEST(Repl, ReplicaHelloRefusedByNonPersistedServer) {
  SldService svc(net_config());  // no data dir: nothing to stream
  churn(svc, 2, /*seed=*/10);
  RpcServer server(svc);
  Replica::Options ropt;
  ropt.port = server.port();
  ropt.cfg = net_config();
  EXPECT_THROW(Replica replica(ropt), std::runtime_error);
}

// ---- per-client QoS ---------------------------------------------------

TEST(QoS, SaturatingClientCannotStarveALightOne) {
  ServiceConfig cfg = net_config();
  cfg.broker_queue_depth = 8;  // small, so saturation is reachable
  SldService svc(cfg);
  churn(svc, 4, /*seed=*/11);
  RpcServer server(svc);

  const auto deadline_budget = 1500ms;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> heavy_ok{0}, heavy_rejected{0};
  // Four connections of ONE heavy tenant flooding expensive queries.
  std::vector<std::thread> heavy;
  for (int t = 0; t < 4; ++t) {
    heavy.emplace_back([&] {
      RpcClient client("127.0.0.1", server.port(),
                       RpcClient::Options{/*client_id=*/1, /*weight=*/1});
      par::Rng rng = test::test_rng(1000 + uint64_t(
          std::hash<std::thread::id>{}(std::this_thread::get_id())));
      while (!stop.load(std::memory_order_acquire)) {
        QueryRequest req;
        // Distinct taus defeat group sharing: every request is real
        // work.
        req.queries = {engine::FlatClusteringQuery{rng.next_double()},
                       engine::SizeHistogramQuery{rng.next_double()}};
        req.deadline = std::chrono::steady_clock::now() + 500ms;
        try {
          client.query(req);
          heavy_ok.fetch_add(1);
        } catch (const QueryError&) {
          heavy_rejected.fetch_add(1);
        } catch (const std::runtime_error&) {
          return;  // server shutting down under us
        }
      }
    });
  }

  // One light tenant with a 3x weight: every request must land well
  // inside its deadline even while the heavy tenant saturates.
  std::vector<double> light_latencies_ms;
  uint64_t light_errors = 0;
  {
    RpcClient client("127.0.0.1", server.port(),
                     RpcClient::Options{/*client_id=*/2, /*weight=*/3});
    for (int i = 0; i < 40; ++i) {
      QueryRequest req;
      req.queries = {engine::NumClustersQuery{0.45}};
      req.deadline = std::chrono::steady_clock::now() + deadline_budget;
      auto t0 = std::chrono::steady_clock::now();
      try {
        client.query(req);
        light_latencies_ms.push_back(
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count());
      } catch (const QueryError&) {
        ++light_errors;
      }
      std::this_thread::sleep_for(10ms);
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : heavy) th.join();

  // The heavy tenant really did hit its quota share...
  EXPECT_GT(svc.stats().broker_quota_rejects, 0u);
  EXPECT_GT(heavy_ok.load(), 0u);
  // ...and the light tenant never missed: no rejections, no expiries,
  // p99 (here: max of 40 samples) inside the deadline.
  EXPECT_EQ(light_errors, 0u);
  ASSERT_EQ(light_latencies_ms.size(), 40u);
  double worst = *std::max_element(light_latencies_ms.begin(),
                                   light_latencies_ms.end());
  const double budget_ms =
      std::chrono::duration<double, std::milli>(deadline_budget).count();
  EXPECT_LT(worst, budget_ms);
  // Per-client accounting surfaced in EngineObs.
  engine::ClientStats* light = svc.obs().clients.get(2);
  ASSERT_NE(light, nullptr);
  EXPECT_EQ(light->fulfilled.load(), 40u);
  EXPECT_EQ(light->deadline_expired.load(), 0u);
  EXPECT_EQ(light->quota_rejected.load(), 0u);
}

}  // namespace
}  // namespace dynsld::net
