// Randomized differential harness for the serving engine — many
// generated workloads, one oracle (the spirit of scenario-diverse
// benchmark suites: coverage breadth over hand-picked cases).
//
// Each schedule is a seeded interleaving of insert / erase-by-ticket /
// erase-by-endpoints / flush over a parameterized scenario (uneven
// shards, erase-heavy churn, single-shard hotspots, all-cross-edges).
// After every published epoch the harness checks, at several
// thresholds:
//
//   1. a chain of ThresholdView::refreshed views answers bit-for-bit
//      like a freshly resolved view of the same snapshot (labels and
//      histograms as exact vector equality — labels are canonical,
//      i.e. a pure function of the snapshot and the resolution, so a
//      patched array and a from-scratch array must agree exactly and
//      any divergence is a refresh/patch bug, not an ordering
//      artifact); the label queries also run through the typed
//      ThresholdView::run. The chain advances only on a seeded random
//      half of the epochs, so one refresh often spans several epochs —
//      the shape the broker's on-demand refresh produces;
//   2. both match the Kruskal reference partition of the epoch's live
//      edge set, as the schedule's EdgeLedger records it (partition
//      equality, sampled pair/size/report queries);
//   3. refresh bookkeeping: an advanced chain serves exactly the
//      published epoch;
//   4. the same queries submitted through the broker answer like the
//      fresh view.
//
// Seeds are printed on failure (SCOPED_TRACE) for replay; set
// DYNSLD_FUZZ_SEEDS to scale the run (default 1000 schedules across
// the scenarios — CI's TSan leg runs fewer), or DYNSLD_FUZZ_SEED to
// replay one specific seed in every scenario.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "engine/cluster_view.hpp"
#include "engine/query.hpp"
#include "engine/sld_service.hpp"
#include "parallel/random.hpp"
#include "persist/persist.hpp"
#include "test_util.hpp"

namespace dynsld::engine {
namespace {

using test::EdgeLedger;
using test::expect_same_partition;
using test::ref_cluster_size;
using test::ref_histogram;
using test::reference_labels;

struct Scenario {
  const char* name;        // printed in failure traces
  const char* param_label; // gtest parameterized-test suffix (alphanumeric)
  vertex_id n;
  int shards;
  int steps;
  double erase_prob;  // per step: erase a live edge instead of inserting
  double cross_frac;  // per insert: force a cross-shard edge
  int hot_shard;      // >= 0: pin this fraction of intra inserts there
  double hot_frac;
  int flush_every;
};

// Four qualitatively different workloads; ~250 seeds each by default.
constexpr Scenario kScenarios[] = {
    // Stride 13 over 4 shards: the last shard is short (11 vertices),
    // exercising shard-local vertex spaces at every boundary.
    {"uneven_shards", "UnevenShards", 50, 4, 72, 0.30, 0.30, -1, 0.0, 12},
    // Deletion-dominated: replacement scans, annihilation, and empty
    // epochs are the common case.
    {"erase_heavy", "EraseHeavy", 48, 3, 90, 0.55, 0.20, -1, 0.0, 15},
    // One shard of eight takes 90% of the intra traffic: the refresh
    // path should reuse the other seven (counter-checked below).
    {"hotspot", "Hotspot", 64, 8, 72, 0.25, 0.15, 0, 0.9, 12},
    // Every edge crosses shards: the cross table and the blob
    // union-find ARE the clustering; shard dendrograms stay empty.
    {"all_cross", "AllCross", 40, 4, 60, 0.30, 1.0, -1, 0.0, 10},
};

int fuzz_seeds() {
  if (const char* s = std::getenv("DYNSLD_FUZZ_SEEDS")) {
    int v = std::atoi(s);
    if (v > 0) return v;
  }
  return 1000;
}

struct LiveEdge {
  ticket_t ticket;
  vertex_id u, v;
};

/// One seeded schedule through `sc`; every published epoch is verified.
void run_schedule(const Scenario& sc, uint64_t seed) {
  SCOPED_TRACE(std::string("scenario=") + sc.name +
               " seed=" + std::to_string(seed) +
               "  (replay: DYNSLD_FUZZ_SEED=" + std::to_string(seed) + ")");
  ServiceConfig cfg;
  cfg.num_vertices = sc.n;
  cfg.num_shards = sc.shards;
  SldService svc(cfg);
  EdgeLedger ledger;
  // Twin baseline: identical traffic with incremental snapshots OFF, so
  // every dirty shard rebuilds from scratch. Whatever the patching
  // builder produced for an epoch must match the twin's arrays
  // byte-for-byte (SnapshotCodec::encode_shard is the canonical byte
  // view) — this pins the copy-on-write contraction patch on every
  // schedule of every scenario.
  ServiceConfig bcfg = cfg;
  bcfg.incremental_snapshots = false;
  SldService baseline(bcfg);
  // By value: the epoch-0 snapshot this comes from is superseded later.
  const ShardMap map = svc.snapshot()->shard_map();

  par::Rng rng(seed);
  // Three thresholds: two fixed in the interesting band, one seeded.
  const double taus[3] = {0.25, 0.7, 0.05 + 0.9 * rng.next_double()};

  // The refreshed chain, one view per tau. It advances on a seeded
  // coin per epoch, drawn from its own stream so the workload schedule
  // is the same whatever the coin says.
  par::Rng coin(par::hash64(seed ^ 0x5eedc0172ULL));
  std::vector<std::shared_ptr<const ThresholdView>> chain;
  for (double tau : taus)  // initial full resolutions
    chain.push_back(std::make_shared<const ThresholdView>(svc.snapshot(), tau));

  auto pick_insert = [&]() -> std::pair<vertex_id, vertex_id> {
    if (rng.next_double() < sc.cross_frac && sc.shards > 1) {
      // Cross-shard: endpoints with different homes.
      vertex_id u, v;
      do {
        u = static_cast<vertex_id>(rng.next_bounded(sc.n));
        v = static_cast<vertex_id>(rng.next_bounded(sc.n));
      } while (u == v || map.home(u) == map.home(v));
      return {u, v};
    }
    int k = sc.hot_shard >= 0 && rng.next_double() < sc.hot_frac
                ? sc.hot_shard
                : static_cast<int>(rng.next_bounded(sc.shards));
    vertex_id size = map.local_size(k);
    if (size < 2) return test::random_distinct_pair(rng, sc.n);
    return test::random_block_pair(rng, map.base(k), size);
  };

  std::vector<LiveEdge> live;
  for (int step = 0; step < sc.steps; ++step) {
    if (!live.empty() && rng.next_double() < sc.erase_prob) {
      size_t j = rng.next_bounded(live.size());
      if (rng.next_double() < 0.5) {
        ledger.erase(svc, live[j].ticket);
        baseline.erase(live[j].ticket);  // tickets align: same inserts
      } else {
        EXPECT_TRUE(ledger.erase(svc, live[j].u, live[j].v));
        EXPECT_TRUE(baseline.erase(live[j].u, live[j].v));
      }
      live[j] = live.back();
      live.pop_back();
    } else {
      auto [u, v] = pick_insert();
      double w = rng.next_double();
      live.push_back(LiveEdge{ledger.insert(svc, u, v, w), u, v});
      baseline.insert(u, v, w);
    }
    if (step % sc.flush_every != sc.flush_every - 1) continue;

    uint64_t epoch = svc.flush();
    ASSERT_EQ(baseline.flush(), epoch);
    auto snap = svc.snapshot();
    ASSERT_EQ(snap->epoch(), epoch);
    const bool advance = coin.next_double() < 0.5;

    // (0) Patched per-shard snapshots are byte-identical to the twin's
    // from-scratch builds.
    {
      auto bsnap = baseline.snapshot();
      for (int k = 0; k < sc.shards; ++k) {
        persist::ByteWriter pa, pb;
        persist::SnapshotCodec::encode_shard(snap->shard(k), pa);
        persist::SnapshotCodec::encode_shard(bsnap->shard(k), pb);
        ASSERT_EQ(pa.bytes(), pb.bytes())
            << "patched shard diverges from fresh build, shard=" << k
            << " epoch=" << epoch;
      }
    }

    // One freshly resolved view per threshold of this epoch.
    std::vector<std::shared_ptr<const ThresholdView>> fresh_views;
    for (double tau : taus)
      fresh_views.push_back(std::make_shared<const ThresholdView>(snap, tau));
    const std::vector<WeightedEdge> edges = ledger.edges();
    for (size_t ti = 0; ti < std::size(taus); ++ti) {
      const double tau = taus[ti];
      SCOPED_TRACE("epoch=" + std::to_string(epoch) +
                   " tau=" + std::to_string(tau) +
                   " chain_epoch=" + std::to_string(chain[ti]->epoch()));
      auto fresh = fresh_views[ti];
      // On epochs the chain skips, the fresh view stands in for it, so
      // the oracle checks below run on every epoch either way.
      auto tv = fresh;
      if (advance) {
        chain[ti] = ThresholdView::refreshed(chain[ti], snap);
        tv = chain[ti];
        ASSERT_EQ(tv->epoch(), epoch);
        // (1) Refreshed view == fresh view, bit for bit — including
        // the patched flat labels and the reassembled histogram, also
        // via the typed ThresholdView::run.
        ASSERT_EQ(tv->flat_clustering(), fresh->flat_clustering());
        ASSERT_EQ(tv->size_histogram(), fresh->size_histogram());
        ASSERT_EQ(std::get<std::vector<vertex_id>>(
                      tv->run(FlatClusteringQuery{tau})),
                  fresh->flat_clustering());
        ASSERT_EQ(std::get<SizeHistogram>(tv->run(SizeHistogramQuery{tau})),
                  fresh->size_histogram());
      }
      // (2) Both == the Kruskal oracle.
      auto ref = reference_labels(sc.n, edges, tau);
      expect_same_partition(ref, tv->flat_clustering());
      // Canonical-label invariants the patch machinery relies on: a
      // label names a member of its own cluster and is idempotent.
      const std::vector<vertex_id>& lab = tv->flat_clustering();
      for (vertex_id v = 0; v < sc.n; ++v) {
        ASSERT_EQ(ref[lab[v]], ref[v]) << "label not a cluster member, v=" << v;
        ASSERT_EQ(lab[lab[v]], lab[v]) << "label not canonical, v=" << v;
      }
      ASSERT_EQ(tv->size_histogram(), ref_histogram(ref));
      // NumClusters reassembles from per-shard prefix counts + the
      // cross merge; it must agree with the histogram and the oracle.
      ASSERT_EQ(tv->num_clusters(), ref_histogram(ref).num_clusters());
      ASSERT_EQ(fresh->num_clusters(), tv->num_clusters());
      for (int q = 0; q < 12; ++q) {
        auto [s, t] = test::random_distinct_pair(rng, sc.n);
        ASSERT_EQ(tv->same_cluster(s, t), ref[s] == ref[t])
            << "s=" << s << " t=" << t;
        ASSERT_EQ(fresh->same_cluster(s, t), ref[s] == ref[t]);
      }
      vertex_id u = static_cast<vertex_id>(rng.next_bounded(sc.n));
      ASSERT_EQ(tv->cluster_size(u), ref_cluster_size(ref, u));
      // Reports may order members differently across refresh histories;
      // compare as sets.
      auto rep_tv = tv->cluster_report(u);
      auto rep_fresh = fresh->cluster_report(u);
      std::sort(rep_tv.begin(), rep_tv.end());
      std::sort(rep_fresh.begin(), rep_fresh.end());
      ASSERT_EQ(rep_tv, rep_fresh);
      ASSERT_EQ(rep_tv.size(), ref_cluster_size(ref, u));
    }

    // (4) Async plane: a random slice of the same query mix routed
    // through submit() — pinned to this verified epoch — must answer
    // bit-for-bit like the direct pinned views (reports as sorted
    // sets: member order may differ across refresh histories).
    {
      std::vector<Query> slice;
      for (double tau : taus) {
        auto [s, t] = test::random_distinct_pair(rng, sc.n);
        if (rng.next_double() < 0.8) slice.push_back(SameClusterQuery{s, t, tau});
        if (rng.next_double() < 0.8) slice.push_back(ClusterSizeQuery{s, tau});
        if (rng.next_double() < 0.5) slice.push_back(ClusterReportQuery{t, tau});
        if (rng.next_double() < 0.5) slice.push_back(NumClustersQuery{tau});
        if (rng.next_double() < 0.3) slice.push_back(FlatClusteringQuery{tau});
        if (rng.next_double() < 0.3) slice.push_back(SizeHistogramQuery{tau});
      }
      QueryRequest req;
      req.queries = slice;
      req.consistency = Pinned{snap};
      ResultSet rs = svc.submit(std::move(req)).get();
      ASSERT_EQ(rs.epoch, epoch);
      ASSERT_EQ(rs.results.size(), slice.size());
      for (size_t i = 0; i < slice.size(); ++i) {
        SCOPED_TRACE("submit slice i=" + std::to_string(i));
        const size_t ti =
            std::find(std::begin(taus), std::end(taus), query_tau(slice[i])) -
            std::begin(taus);
        QueryResult direct = fresh_views[ti]->run(slice[i]);
        if (std::holds_alternative<ClusterReportQuery>(slice[i])) {
          auto got = std::get<std::vector<vertex_id>>(rs.results[i]);
          auto want = std::get<std::vector<vertex_id>>(direct);
          std::sort(got.begin(), got.end());
          std::sort(want.begin(), want.end());
          ASSERT_EQ(got, want);
        } else {
          ASSERT_TRUE(rs.results[i] == direct);
        }
      }
    }
  }
}

class FuzzEngine : public ::testing::TestWithParam<int> {};

TEST_P(FuzzEngine, DifferentialSchedules) {
  const Scenario& sc = kScenarios[GetParam()];
  if (const char* s = std::getenv("DYNSLD_FUZZ_SEED")) {
    run_schedule(sc, std::strtoull(s, nullptr, 10));
    return;
  }
  int per_scenario =
      std::max(1, fuzz_seeds() / static_cast<int>(std::size(kScenarios)));
  for (int i = 0; i < per_scenario; ++i) {
    // Distinct streams per scenario; the seed printed on failure replays
    // this exact schedule via DYNSLD_FUZZ_SEED.
    uint64_t seed = par::hash64(static_cast<uint64_t>(GetParam()) * 1000003u + i);
    run_schedule(sc, seed);
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "stopping scenario '" << sc.name
                    << "' after first failing seed " << seed;
      return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Scenarios, FuzzEngine,
                         ::testing::Range(0, static_cast<int>(std::size(kScenarios))),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return kScenarios[info.param].param_label;
                         });

/// The hotspot scenario must actually exercise the reuse machinery, not
/// just pass: across a full run, most per-refresh shard work is reuse.
TEST(FuzzEngine, HotspotSchedulesReuseShards) {
  const Scenario& sc = kScenarios[2];
  ASSERT_STREQ(sc.name, "hotspot");
  // A couple of schedules are plenty for the counters to accumulate.
  for (uint64_t seed : {7u, 8u}) run_schedule(sc, seed);
  // Counters are per-service, so re-run one schedule and inspect.
  ServiceConfig cfg;
  cfg.num_vertices = sc.n;
  cfg.num_shards = sc.shards;
  SldService svc(cfg);
  const double tau = 0.5;
  auto tv = std::make_shared<const ThresholdView>(svc.snapshot(), tau);
  par::Rng rng(99);
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 10; ++i) {
      auto [u, v] = test::random_block_pair(rng, 0, 8);  // shard 0 only
      svc.insert(u, v, rng.next_double());
    }
    svc.flush();
    tv = ThresholdView::refreshed(tv, svc.snapshot());
  }
  auto r = svc.stats();
  EXPECT_EQ(tv->epoch(), svc.epoch());
  EXPECT_EQ(r.refresh_views_reused + r.refresh_views_incremental, 8u);
  EXPECT_EQ(r.refresh_shards_reused, 8u * 7u);
  EXPECT_EQ(r.refresh_shards_rebuilt, 8u * 1u);
  EXPECT_EQ(r.refresh_views_full, 0u);
}

/// Skewed churn with flat labels queried every epoch: the label
/// maintenance must take the patch path (not silently rebuild), stay
/// bit-for-bit with fresh materializations, and account itself in the
/// labels_patched/labels_rebuilt counters.
TEST(FuzzEngine, FlatLabelPatchCountersUnderSkewedChurn) {
  ServiceConfig cfg;
  cfg.num_vertices = 64;
  cfg.num_shards = 8;
  SldService svc(cfg);
  par::Rng rng = test::test_rng();
  // A weighted path across the whole range: intra-shard structure in
  // every shard plus sub-tau cross edges at each shard boundary, so the
  // patch has both dirty ranges and group fixups to handle.
  for (vertex_id v = 0; v + 1 < 64; ++v)
    svc.insert(v, v + 1, 0.2 + 0.5 * rng.next_double());
  svc.flush();

  const double tau = 0.5;
  auto tv = std::make_shared<const ThresholdView>(svc.snapshot(), tau);
  tv->flat_clustering();  // initial materialization
  EXPECT_EQ(svc.stats().labels_rebuilt, 1u);

  const int rounds = 6;
  for (int round = 0; round < rounds; ++round) {
    for (int i = 0; i < 6; ++i) {  // all churn inside shard 0
      auto [u, v] = test::random_block_pair(rng, 0, 8);
      svc.insert(u, v, rng.next_double());
    }
    svc.flush();
    tv = ThresholdView::refreshed(tv, svc.snapshot());
    ThresholdView fresh(svc.snapshot(), tau);
    ASSERT_EQ(tv->flat_clustering(), fresh.flat_clustering());
    ASSERT_EQ(tv->size_histogram(), fresh.size_histogram());
  }
  auto r = svc.stats();
  EXPECT_EQ(r.labels_patched, static_cast<uint64_t>(rounds));
  EXPECT_EQ(r.labels_rebuilt, 1u + rounds);  // initial + the fresh oracles
  EXPECT_EQ(r.labels_reused, 0u);
}

/// Concurrent epoch turnover: reader threads submit Latest batches
/// while the background writer publishes, so the broker refreshes its
/// cached views on the dispatcher while the writer builds the next
/// epoch — the publish -> dispatcher edge the TSan CI job watches, and
/// the scheduler-claim-gate composition (both sides may fan out on the
/// fork-join pool).
TEST(FuzzEngine, ConcurrentSubmitVsPublish) {
  const vertex_id n = 96;
  const double taus[2] = {0.3, 0.7};
  ServiceConfig cfg;
  cfg.num_vertices = n;
  cfg.num_shards = 4;
  cfg.flush_threshold = 24;
  cfg.flush_interval = std::chrono::microseconds(100);
  SldService svc(cfg);
  svc.start_writer();

  std::atomic<bool> producing{true};
  std::thread producer([&] {
    par::Rng rng(2026);
    std::vector<ticket_t> live;
    for (int i = 0; i < 4000; ++i) {
      if (!live.empty() && rng.next_double() < 0.35) {
        size_t j = rng.next_bounded(live.size());
        svc.erase(live[j]);
        live[j] = live.back();
        live.pop_back();
      } else {
        auto [u, v] = test::random_distinct_pair(rng, n);
        live.push_back(svc.insert(u, v, rng.next_double()));
      }
      // Let the writer drain every 400 ops, so at least ten epochs
      // publish while the readers run.
      if (i % 400 == 399)
        while (svc.pending_updates() > 0) std::this_thread::yield();
    }
    producing.store(false, std::memory_order_release);
  });

  // Each reader checks invariants that hold at any epoch, and that the
  // epochs its answers come from never go backwards.
  auto reader = [&](uint64_t seed) {
    par::Rng qrng(seed);
    uint64_t batches = 0, last_epoch = 0;
    while (producing.load(std::memory_order_acquire) || batches < 50) {
      QueryRequest req;
      for (double tau : taus) {
        auto [u, v] = test::random_distinct_pair(qrng, n);
        req.queries.push_back(SameClusterQuery{u, u, tau});  // always true
        req.queries.push_back(SameClusterQuery{u, v, tau});
        req.queries.push_back(ClusterSizeQuery{u, tau});
      }
      ResultSet rs = svc.submit(std::move(req)).get();
      ASSERT_GE(rs.epoch, last_epoch);
      last_epoch = rs.epoch;
      for (size_t i = 0; i < rs.results.size(); i += 3) {
        ASSERT_TRUE(std::get<bool>(rs.results[i]));
        ASSERT_GE(std::get<uint64_t>(rs.results[i + 2]), 1u);
      }
      if (++batches > 5000) break;  // liveness guard
    }
  };
  std::thread r1(reader, 7), r2(reader, 8);

  producer.join();
  r1.join();
  r2.join();
  svc.stop_writer();
  // The final epoch, exactly: the cached views refresh on demand to it.
  auto snap = svc.snapshot();
  EXPECT_GE(snap->epoch(), 10u);
  QueryRequest req;
  for (double tau : taus) req.queries.push_back(FlatClusteringQuery{tau});
  ResultSet rs = svc.submit(std::move(req)).get();
  ASSERT_EQ(rs.epoch, snap->epoch());
  for (size_t i = 0; i < std::size(taus); ++i)
    ASSERT_EQ(std::get<std::vector<vertex_id>>(rs.results[i]),
              ThresholdView(snap, taus[i]).flat_clustering());
  EXPECT_GT(svc.stats().refresh_views_reused +
                svc.stats().refresh_views_incremental +
                svc.stats().refresh_views_full,
            0u);
}

// The durability cross-check: run scenario schedules against a
// PERSISTED service, then recover the directory and demand that every
// republished epoch fingerprints identically to the live run — flat
// labels as exact vector equality at multiple thresholds. This rides
// the same workload generators as the differential harness, so the
// recovery path sees uneven shards and all-cross churn, not just the
// tailored workloads in test_persist.cpp.
TEST(FuzzEngine, RecoverAndDiffReplaysSchedulesBitForBit) {
  namespace fs = std::filesystem;
  const double taus[2] = {0.25, 0.7};
  int trial = 0;
  for (const Scenario& sc : {kScenarios[0], kScenarios[3]}) {
    for (uint64_t seed : {11u, 12u, 13u}) {
      SCOPED_TRACE(std::string("scenario=") + sc.name +
                   " seed=" + std::to_string(seed));
      const fs::path dir =
          fs::temp_directory_path() /
          ("dynsld_fuzz_recover_" + std::to_string(trial++));
      fs::remove_all(dir);
      fs::create_directories(dir);

      ServiceConfig cfg;
      cfg.num_vertices = sc.n;
      cfg.num_shards = sc.shards;
      cfg.retain_epochs = 256;  // recovered ring holds the whole replay
      cfg.persist.dir = dir.string();
      cfg.persist.checkpoint_every = 3;

      // Per-epoch label fingerprints of the live run. Weights are
      // drawn DISTINCT (injective index map modulo a prime) — ties
      // would make the dendrogram non-unique and the bit-for-bit
      // comparison ill-posed.
      std::map<uint64_t, std::array<std::vector<vertex_id>, 2>> fps;
      {
        SldService svc(cfg);
        const ShardMap map = svc.snapshot()->shard_map();
        par::Rng rng(seed);
        uint64_t widx = 0;
        auto next_weight = [&] {
          return static_cast<double>((widx++ * 2654435761ull + seed) %
                                     999983ull) /
                 999983.0;
        };
        std::vector<LiveEdge> live;
        for (int step = 0; step < sc.steps; ++step) {
          if (!live.empty() && rng.next_double() < sc.erase_prob) {
            size_t j = rng.next_bounded(live.size());
            if (rng.next_double() < 0.5)
              svc.erase(live[j].ticket);
            else
              EXPECT_TRUE(svc.erase(live[j].u, live[j].v));
            live[j] = live.back();
            live.pop_back();
          } else {
            vertex_id u, v;
            if (rng.next_double() < sc.cross_frac && sc.shards > 1) {
              do {
                u = static_cast<vertex_id>(rng.next_bounded(sc.n));
                v = static_cast<vertex_id>(rng.next_bounded(sc.n));
              } while (u == v || map.home(u) == map.home(v));
            } else {
              std::tie(u, v) = test::random_distinct_pair(rng, sc.n);
            }
            live.push_back(LiveEdge{svc.insert(u, v, next_weight()), u, v});
          }
          if (step % sc.flush_every != sc.flush_every - 1) continue;
          uint64_t before = svc.epoch();
          uint64_t e = svc.flush();
          if (e == before) continue;  // empty batch: no epoch published
          auto snap = svc.snapshot();
          fps[e] = {ThresholdView(snap, taus[0]).flat_clustering(),
                    ThresholdView(snap, taus[1]).flat_clustering()};
        }
      }  // destructor = clean shutdown; the directory is the survivor

      ASSERT_FALSE(fps.empty());
      auto res = persist::recover(cfg);
      ASSERT_TRUE(res.service);
      EXPECT_EQ(res.tip_epoch, fps.rbegin()->first);
      for (const auto& [e, labels] : fps) {
        if (e < res.checkpoint_epoch) continue;  // below the replay base
        SCOPED_TRACE("epoch=" + std::to_string(e));
        auto snap = res.service->snapshot_at(e);
        ASSERT_TRUE(snap);
        EXPECT_EQ(ThresholdView(snap, taus[0]).flat_clustering(), labels[0]);
        EXPECT_EQ(ThresholdView(snap, taus[1]).flat_clustering(), labels[1]);
      }
      res.service.reset();
      fs::remove_all(dir);
    }
  }
}

// The tentpole differential: one big shard under erase-heavy SMALL
// batches must take the contraction patch path — counters prove most
// lifting rounds were reused, not re-run — while staying byte-identical
// to a from-scratch twin and the Kruskal oracle, and the patched bytes
// must survive persist::recover() (whose replay rebuilds through the
// restore path) unchanged.
TEST(FuzzEngine, IncrementalShardPatchEraseHeavySmallBatches) {
  namespace fs = std::filesystem;
  const vertex_id n = 1024;
  const fs::path dir = fs::temp_directory_path() / "dynsld_fuzz_shard_patch";
  fs::remove_all(dir);
  fs::create_directories(dir);

  ServiceConfig cfg;
  cfg.num_vertices = n;
  cfg.num_shards = 1;
  cfg.retain_epochs = 64;
  cfg.persist.dir = dir.string();
  cfg.persist.checkpoint_every = 5;
  ServiceConfig bcfg = cfg;
  bcfg.incremental_snapshots = false;
  bcfg.persist.dir.clear();

  std::map<uint64_t, std::string> shard_bytes;  // epoch -> encoded shard 0
  {
    SldService svc(cfg);
    SldService baseline(bcfg);
    EdgeLedger ledger;
    par::Rng rng(20260808);
    uint64_t widx = 0;
    // Distinct weights (injective map modulo a prime): ties would make
    // the dendrogram depend on the rank tiebreak alone, which is fine
    // for correctness but makes failure triage noisier.
    auto next_weight = [&] {
      return static_cast<double>((widx++ * 2654435761ull + 17) % 999983ull) /
             999983.0;
    };
    std::vector<LiveEdge> live;
    auto ins = [&](vertex_id u, vertex_id v) {
      double w = next_weight();
      live.push_back(LiveEdge{ledger.insert(svc, u, v, w), u, v});
      baseline.insert(u, v, w);
    };
    // Bulk load: a path over the whole shard plus random chords.
    for (vertex_id v = 0; v + 1 < n; ++v) ins(v, v + 1);
    for (int i = 0; i < 256; ++i) {
      auto [u, v] = test::random_distinct_pair(rng, n);
      ins(u, v);
    }
    uint64_t e0 = svc.flush();
    ASSERT_EQ(baseline.flush(), e0);

    for (int round = 0; round < 10; ++round) {
      for (int i = 0; i < 12; ++i) {  // small cut, erase-dominated
        if (!live.empty() && rng.next_double() < 0.7) {
          size_t j = rng.next_bounded(live.size());
          ledger.erase(svc, live[j].ticket);
          baseline.erase(live[j].ticket);
          live[j] = live.back();
          live.pop_back();
        } else {
          auto [u, v] = test::random_distinct_pair(rng, n);
          ins(u, v);
        }
      }
      uint64_t e = svc.flush();
      ASSERT_EQ(baseline.flush(), e);
      auto snap = svc.snapshot();
      auto bsnap = baseline.snapshot();
      persist::ByteWriter pa, pb;
      persist::SnapshotCodec::encode_shard(snap->shard(0), pa);
      persist::SnapshotCodec::encode_shard(bsnap->shard(0), pb);
      ASSERT_EQ(pa.bytes(), pb.bytes()) << "round " << round;
      shard_bytes[e] = pa.bytes();
      for (double tau : {0.3, 0.7}) {
        auto ref = reference_labels(n, ledger.edges(), tau);
        expect_same_partition(ref, ThresholdView(snap, tau).flat_clustering());
      }
    }

    auto r = svc.stats();
    EXPECT_GT(r.shard_snapshots_patched, 0u);
    ASSERT_GT(r.contraction_rounds_total, 0u);
    // Sublinearity in action: a small cut re-runs only the rounds its
    // footprint touches; most lifting rounds are row-copied.
    EXPECT_LT(r.contraction_rounds_rerun, r.contraction_rounds_total);
    // Per-epoch introspection agrees with the aggregate counters.
    const EpochDelta& dl = svc.snapshot()->delta();
    ASSERT_EQ(dl.shard_patch.size(), 1u);
    EXPECT_EQ(dl.shard_patch[0].mode, 1);
    EXPECT_LT(dl.shard_patch[0].rounds_rerun, dl.shard_patch[0].rounds_total);
  }  // clean shutdown; the directory is the survivor

  auto res = persist::recover(cfg);
  ASSERT_TRUE(res.service);
  size_t compared = 0;
  for (const auto& [e, bytes] : shard_bytes) {
    if (e < res.checkpoint_epoch) continue;  // below the replay base
    auto snap = res.service->snapshot_at(e);
    ASSERT_TRUE(snap) << "epoch " << e;
    persist::ByteWriter pr;
    persist::SnapshotCodec::encode_shard(snap->shard(0), pr);
    EXPECT_EQ(pr.bytes(), bytes) << "epoch " << e;
    ++compared;
  }
  EXPECT_GT(compared, 0u);
  res.service.reset();
  fs::remove_all(dir);
}

// ---- stable-slot snapshots: slot-independent answers -------------------

/// Distinct weights (injective index map modulo a prime): ties would
/// let the rank tiebreak — node ids — decide the dendrogram.
struct DistinctWeights {
  uint64_t i = 0;
  uint64_t salt;
  double operator()() {
    return static_cast<double>((i++ * 2654435761ull + salt) % 999983ull) /
           999983.0;
  }
};

/// Every answer kind whose content depends on node order, at two taus:
/// member lists of every 7th vertex, flat labels, size histograms.
ResultSet ask_all(SldService& svc, vertex_id n, Consistency c,
                  vertex_id stride = 7) {
  QueryRequest req;
  req.consistency = c;
  for (double tau : {0.3, 0.7}) {
    req.queries.push_back(FlatClusteringQuery{tau});
    req.queries.push_back(SizeHistogramQuery{tau});
    for (vertex_id v = 0; v < n; v += stride)
      req.queries.push_back(ClusterReportQuery{v, tau});
  }
  return svc.submit(std::move(req)).get();
}

// A replica bootstrapped from a checkpoint re-inserts the live edges
// as one batch, so its dendrogram node ids — its snapshot slots — are
// assigned afresh, unlike the writer's recycled ids. Slots are opaque:
// member lists (in order), flat labels and histograms must still be
// byte-identical at the same epoch. The replica here is
// persist::recover(), the replay path net::Replica shares.
TEST(FuzzEngine, ReplicaSlotsDifferAnswersIdentical) {
  namespace fs = std::filesystem;
  const vertex_id n = 512;
  const fs::path dir = fs::temp_directory_path() / "dynsld_fuzz_replica_slots";
  fs::remove_all(dir);
  fs::create_directories(dir);
  ServiceConfig cfg;
  cfg.num_vertices = n;
  cfg.num_shards = 2;
  cfg.persist.dir = dir.string();
  cfg.persist.checkpoint_every = 6;

  uint64_t tip = 0;
  ResultSet writer_answers;
  std::vector<int32_t> writer_tops;
  {
    SldService svc(cfg);
    par::Rng rng(20261017);
    DistinctWeights w{0, 5};
    std::vector<LiveEdge> live;
    // Heavy churn: erased ids are recycled, so the writer's slot order
    // drifts far from the replica's fresh, insertion-ordered ids.
    for (int round = 0; round < 60; ++round) {
      for (int i = 0; i < 40; ++i) {
        if (live.size() > 300 && rng.next_double() < 0.45) {
          size_t j = rng.next_bounded(live.size());
          svc.erase(live[j].ticket);
          live[j] = live.back();
          live.pop_back();
        } else {
          auto [u, v] = test::random_distinct_pair(rng, n);
          live.push_back(LiveEdge{svc.insert(u, v, w()), u, v});
        }
      }
      svc.flush();
    }
    tip = svc.epoch();
    writer_answers = ask_all(svc, n, Latest{}, 1);
    ASSERT_EQ(writer_answers.epoch, tip);
    auto snap = svc.snapshot();
    for (vertex_id v = 0; v < n; ++v)
      writer_tops.push_back(snap->shard(snap->shard_map().home(v)).top_of(v, 0.7));
  }

  auto res = persist::recover(cfg);
  ASSERT_TRUE(res.service);
  ASSERT_EQ(res.tip_epoch, tip);
  ASSERT_GT(res.checkpoint_epoch, 0u);
  ResultSet replica_answers = ask_all(*res.service, n, AsOf{tip}, 1);
  ASSERT_EQ(replica_answers.epoch, tip);
  EXPECT_EQ(replica_answers.results, writer_answers.results);
  // The premise: the same clusters sit under different slots.
  auto snap = res.service->snapshot();
  size_t moved = 0;
  for (vertex_id v = 0; v < n; ++v)
    moved += snap->shard(snap->shard_map().home(v)).top_of(v, 0.7) !=
             writer_tops[v];
  EXPECT_GT(moved, 0u);
  res.service.reset();
  fs::remove_all(dir);
}

// A sorted-weight path is the deepest dendrogram (h = n - 2 hops): a
// small edit near the bottom moves the depth of everything above it,
// so its contraction rounds' active sets pass half the shard and
// whole rounds re-run. Patched in small batches, it must stay
// byte-identical to the from-scratch twin.
TEST(FuzzEngine, DeepChainPatchesMatchFreshBuilds) {
  const vertex_id n = 512;
  ServiceConfig cfg;
  cfg.num_vertices = n;
  cfg.num_shards = 1;
  ServiceConfig bcfg = cfg;
  bcfg.incremental_snapshots = false;
  SldService svc(cfg), baseline(bcfg);
  EdgeLedger ledger;

  // Path edge (v, v+1) weighs about (v+1)/n: Kruskal merges the path
  // left to right, one chain node per vertex.
  std::vector<ticket_t> path(n - 1);
  for (vertex_id v = 0; v + 1 < n; ++v) {
    const double w = (v + 1.0) / n;
    path[v] = ledger.insert(svc, v, v + 1, w);
    baseline.insert(v, v + 1, w);
  }
  ASSERT_EQ(svc.flush(), baseline.flush());

  par::Rng rng(7);
  for (int round = 0; round < 40; ++round) {
    // Re-weight two path edges: each moves one node along the chain.
    for (int i = 0; i < 2; ++i) {
      const vertex_id v = static_cast<vertex_id>(rng.next_bounded(n - 1));
      ledger.erase(svc, path[v]);
      baseline.erase(path[v]);
      const double w = (v + 1.0 + 0.5 * (rng.next_double() - 0.5)) / n;
      path[v] = ledger.insert(svc, v, v + 1, w);
      baseline.insert(v, v + 1, w);
    }
    const uint64_t e = svc.flush();
    ASSERT_EQ(baseline.flush(), e);
    auto snap = svc.snapshot();
    persist::ByteWriter pa, pb;
    persist::SnapshotCodec::encode_shard(snap->shard(0), pa);
    persist::SnapshotCodec::encode_shard(baseline.snapshot()->shard(0), pb);
    ASSERT_EQ(pa.bytes(), pb.bytes()) << "round " << round;
    for (double tau : {0.25, 0.75}) {
      auto ref = reference_labels(n, ledger.edges(), tau);
      expect_same_partition(ref, ThresholdView(snap, tau).flat_clustering());
    }
  }
  const EngineStats::Report r = svc.stats();
  EXPECT_GT(r.shard_snapshots_patched, 20u);
  EXPECT_GT(r.contraction_rounds_rerun, 0u);
}

// Decoded checkpoints carry the canonical rank-ordered form, so a
// rehydrated snapshot's slots are rank positions — a third slot
// assignment, next to the writer's node ids. An AsOf answer served
// from it must equal the answer the live engine gave at that epoch.
TEST(FuzzEngine, RehydratedAsOfMatchesLiveAnswers) {
  namespace fs = std::filesystem;
  const vertex_id n = 768;
  const fs::path dir = fs::temp_directory_path() / "dynsld_fuzz_rehydrate";
  fs::remove_all(dir);
  fs::create_directories(dir);
  ServiceConfig cfg;
  cfg.num_vertices = n;
  cfg.num_shards = 3;
  cfg.retain_epochs = 2;
  cfg.persist.dir = dir.string();
  cfg.persist.checkpoint_every = 5;
  {
    SldService svc(cfg);
    par::Rng rng(99);
    DistinctWeights w{0, 3};
    std::vector<ticket_t> live;
    auto churn = [&] {
      for (int i = 0; i < 30; ++i) {
        if (!live.empty() && rng.next_double() < 0.35) {
          size_t j = rng.next_bounded(live.size());
          svc.erase(live[j]);
          live[j] = live.back();
          live.pop_back();
        } else {
          auto [u, v] = test::random_distinct_pair(rng, n);
          live.push_back(svc.insert(u, v, w()));
        }
      }
      svc.flush();
    };
    while (svc.epoch() < 10) churn();  // epoch 10 is checkpointed
    ASSERT_EQ(svc.epoch(), 10u);
    ResultSet live_answers = ask_all(svc, n, Latest{});
    QueryRequest point;
    for (vertex_id v = 0; v + 1 < n; v += 5) {
      point.queries.push_back(SameClusterQuery{v, v + 1, 0.5});
      point.queries.push_back(ClusterSizeQuery{v, 0.5});
    }
    point.queries.push_back(NumClustersQuery{0.5});
    QueryRequest point_again = point;
    ResultSet live_points = svc.submit(std::move(point)).get();

    for (int i = 0; i < 4; ++i) churn();  // epoch 10 leaves the ring
    ASSERT_FALSE(svc.snapshot_at(10));
    const uint64_t rehydrated0 = svc.stats().asof_rehydrated;
    ResultSet old_answers = ask_all(svc, n, AsOf{10});
    point_again.consistency = AsOf{10};
    ResultSet old_points = svc.submit(std::move(point_again)).get();
    // Served by decoding the epoch-10 checkpoint (then from its cache).
    EXPECT_GE(svc.stats().asof_rehydrated - rehydrated0, 1u);
    ASSERT_EQ(old_answers.epoch, 10u);
    EXPECT_EQ(old_answers.results, live_answers.results);
    EXPECT_EQ(old_points.results, live_points.results);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace dynsld::engine
