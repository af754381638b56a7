// Engine tests: epoch snapshots, update coalescing, sharded routing,
// and the concurrent-reader stress test. The ground truth throughout is
// the static Kruskal construction (build_kruskal) over an epoch's
// captured edge set: single-linkage clusters at threshold tau are the
// connected components of the sub-tau edges, so partitions derived from
// the reference dendrogram must match every engine answer exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "dendrogram/static_sld.hpp"
#include "engine/cluster_view.hpp"
#include "engine/mutation_queue.hpp"
#include "engine/query.hpp"
#include "engine/replay.hpp"
#include "engine/sld_service.hpp"
#include "engine/snapshot.hpp"
#include "engine/subscription.hpp"
#include "msf/dynamic_msf.hpp"
#include "parallel/random.hpp"
#include "persist/checkpoint.hpp"
#include "test_util.hpp"

namespace dynsld::engine {
namespace {

// Kruskal-reference oracles shared with the fuzz harness
// (test_fuzz_engine.cpp) live in test_util.hpp.
using test::expect_same_partition;
using test::ref_cluster_size;
using test::ref_histogram;
using test::reference_labels;

TEST(DendrogramSnapshot, MatchesLiveQueriesOnRandomForest) {
  const vertex_id n = 60;
  par::Rng rng(7);
  DynamicClustering dc(n);
  std::vector<uint32_t> handles;
  for (int i = 0; i < 150; ++i) {
    vertex_id u = rng.next_bounded(n), v;
    do {
      v = rng.next_bounded(n);
    } while (v == u);
    handles.push_back(dc.insert_edge(u, v, rng.next_double()));
    if (i % 5 == 0 && !handles.empty()) {
      uint32_t h = handles[rng.next_bounded(handles.size())];
      if (dc.edge_alive(h)) dc.erase_edge(h);
    }
  }
  // The snapshot's primitives (top_of, slot_count, members_of,
  // flat_labels) against the live DynSLD: a vertex with no top node is
  // a singleton, otherwise its cluster is the top slot's.
  constexpr int32_t kNoSlot = DendrogramSnapshot::kNoSlot;
  auto snap = DendrogramSnapshot::build(dc.sld());
  for (double tau : {0.0, 0.05, 0.2, 0.4, 0.6, 0.85, 1.0}) {
    auto live = dc.sld().flat_clustering(tau);
    auto frozen = snap->flat_labels(tau).label;
    expect_same_partition(live, frozen);
    for (vertex_id u = 0; u < n; ++u) {
      const int32_t top = snap->top_of(u, tau);
      const uint64_t size = top == kNoSlot ? 1 : snap->slot_count(top);
      EXPECT_EQ(size, dc.sld().cluster_size(u, tau))
          << "u=" << u << " tau=" << tau;
      std::vector<vertex_id> rep;
      if (top == kNoSlot) {
        rep.push_back(u);
      } else {
        snap->members_of(top, rep);
      }
      EXPECT_EQ(rep.size(), size);
    }
    for (int q = 0; q < 200; ++q) {
      vertex_id s = rng.next_bounded(n), t = rng.next_bounded(n);
      const int32_t top_s = snap->top_of(s, tau);
      const bool same =
          s == t || (top_s != kNoSlot && top_s == snap->top_of(t, tau));
      EXPECT_EQ(same, dc.sld().same_cluster(s, t, tau));
    }
  }
}

TEST(MutationQueue, CoalescesInsertErasePairs) {
  EngineStats stats;
  MutationQueue q(&stats);
  ticket_t a = q.enqueue_insert(0, 1, 0.5);
  ticket_t b = q.enqueue_insert(1, 2, 0.25);
  EXPECT_EQ(q.pending(), 2u);
  // Erasing a pending insert annihilates in the queue.
  EXPECT_FALSE(q.enqueue_erase(a));
  EXPECT_EQ(q.pending(), 1u);
  auto d = q.drain();
  ASSERT_EQ(d.inserts.size(), 1u);
  EXPECT_EQ(d.inserts[0].ticket, b);
  EXPECT_TRUE(d.erases.empty());
  EXPECT_EQ(stats.coalesced_pairs.load(), 1u);

  // An applied ticket's erase is queued; a duplicate is dropped.
  EXPECT_TRUE(q.enqueue_erase(b));
  EXPECT_FALSE(q.enqueue_erase(b));
  d = q.drain();
  ASSERT_EQ(d.erases.size(), 1u);
  EXPECT_EQ(d.erases[0].ticket, b);
  // The queued erase carries its ledger-resolved endpoints.
  EXPECT_EQ(d.erases[0].u, 1u);
  EXPECT_EQ(d.erases[0].v, 2u);
  EXPECT_EQ(stats.duplicate_erases.load(), 1u);
}

/// Ticket-ledger edge cases: annihilation must leave the drained batch
/// empty, a double erase must queue once, and re-insert-after-erase
/// inside one batch drains both ops.
TEST(MutationQueue, AnnihilationLeavesDirtySetEmpty) {
  EngineStats stats;
  MutationQueue q(&stats);

  // Erase-by-endpoints of a not-yet-flushed insert: annihilates in the
  // queue; the drained batch is empty.
  q.enqueue_insert(1, 2, 0.5);
  EXPECT_TRUE(q.enqueue_erase(vertex_id{1}, vertex_id{2}));
  auto d = q.drain();
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(stats.coalesced_pairs.load(), 1u);

  // Same via ticket, cross-shard edge: still nothing reaches the
  // shards or the cross table.
  ticket_t t = q.enqueue_insert(3, 25, 0.7);
  q.enqueue_erase(t);
  d = q.drain();
  EXPECT_TRUE(d.empty());
}

TEST(MutationQueue, DoubleEraseMarksDirtyOnce) {
  EngineStats stats;
  MutationQueue q(&stats);
  ticket_t t = q.enqueue_insert(21, 22, 0.4);  // shard 1
  (void)q.drain();                             // "applied"
  EXPECT_TRUE(q.enqueue_erase(t));
  EXPECT_FALSE(q.enqueue_erase(t));                           // duplicate ticket
  EXPECT_FALSE(q.enqueue_erase(vertex_id{21}, vertex_id{22}));  // ledger gone
  auto d = q.drain();
  ASSERT_EQ(d.erases.size(), 1u);
  EXPECT_EQ(d.erases[0].u, 21u);
  // Counter triple: the real erase and its ticket-duplicate both count
  // as enqueued erase traffic; the endpoint-ledger miss enqueued
  // NOTHING, so it must not inflate either of those — it gets its own
  // counter (a miss used to bump erases_enqueued AND duplicate_erases).
  EXPECT_EQ(stats.erases_enqueued.load(), 2u);
  EXPECT_EQ(stats.duplicate_erases.load(), 1u);
  EXPECT_EQ(stats.erase_ledger_misses.load(), 1u);
}

TEST(MutationQueue, LedgerMissCountsOnlyTheMissCounter) {
  EngineStats stats;
  MutationQueue q(&stats);
  // No insertion of (3, 4) ever happened: pure miss.
  EXPECT_FALSE(q.enqueue_erase(vertex_id{3}, vertex_id{4}));
  EXPECT_EQ(stats.erases_enqueued.load(), 0u);
  EXPECT_EQ(stats.duplicate_erases.load(), 0u);
  EXPECT_EQ(stats.erase_ledger_misses.load(), 1u);
  // A hit right after still counts normally.
  ticket_t t = q.enqueue_insert(3, 4, 0.5);
  (void)q.drain();
  EXPECT_TRUE(q.enqueue_erase(vertex_id{3}, vertex_id{4}));
  EXPECT_EQ(stats.erases_enqueued.load(), 1u);
  EXPECT_EQ(stats.erase_ledger_misses.load(), 1u);
  (void)t;
}

/// Patch-viability fallback: a batch that guts more than half a shard
/// fails the exact re-check at materialization and falls back to a full
/// rebuild (counted, and visible per-shard in the epoch delta); the
/// next small batch patches again.
TEST(ShardRouter, PatchViabilityFallbackOnLargeCut) {
  ServiceConfig cfg;
  cfg.num_vertices = 32;
  cfg.num_shards = 1;
  SldService svc(cfg);
  par::Rng rng = test::test_rng();
  std::vector<ticket_t> ts;
  for (vertex_id v = 0; v + 1 < 32; ++v)
    ts.push_back(svc.insert(v, v + 1, rng.next_double()));
  svc.flush();

  for (size_t i = 0; i < 20; ++i) svc.erase(ts[i]);  // > half the shard
  svc.flush();
  auto r = svc.stats();
  EXPECT_GE(r.shard_patch_fallbacks, 1u);
  {
    const EpochDelta& dl = svc.snapshot()->delta();
    ASSERT_EQ(dl.shard_patch.size(), 1u);
    EXPECT_EQ(dl.shard_patch[0].mode, 0);
    EXPECT_EQ(dl.shard_patch[0].fallback, 1);
  }

  svc.insert(0, 31, 0.9);  // small follow-up batch
  svc.flush();
  EXPECT_GT(svc.stats().shard_snapshots_patched, 0u);
  {
    const EpochDelta& dl = svc.snapshot()->delta();
    ASSERT_EQ(dl.shard_patch.size(), 1u);
    EXPECT_EQ(dl.shard_patch[0].mode, 1);
    EXPECT_EQ(dl.shard_patch[0].fallback, 0);
  }
}

TEST(MutationQueue, ReinsertAfterEraseInOneBatch) {
  MutationQueue q;
  ticket_t old_t = q.enqueue_insert(5, 6, 0.9);
  (void)q.drain();  // applied in an earlier epoch

  // One batch: erase the applied copy, then insert a replacement.
  EXPECT_TRUE(q.enqueue_erase(vertex_id{5}, vertex_id{6}));
  ticket_t new_t = q.enqueue_insert(5, 6, 0.2);
  auto d = q.drain();
  ASSERT_EQ(d.inserts.size(), 1u);
  ASSERT_EQ(d.erases.size(), 1u);
  EXPECT_EQ(d.erases[0].ticket, old_t);
  EXPECT_EQ(d.inserts[0].ticket, new_t);
  // The replacement is the live (5, 6) copy now.
  EXPECT_TRUE(q.enqueue_erase(vertex_id{6}, vertex_id{5}));
  EXPECT_FALSE(q.enqueue_erase(vertex_id{5}, vertex_id{6}));
}

/// Service-level annihilation: a churn-only batch publishes no epoch,
/// so subscribers are not notified and nothing refreshes.
TEST(SldService, AnnihilatedBatchPublishesNoEpoch) {
  ServiceConfig cfg;
  cfg.num_vertices = 16;
  SldService svc(cfg);
  int notified = 0;
  SubscribedView sub(svc, [&](uint64_t) { ++notified; });
  uint64_t before = svc.epoch();
  ticket_t t = svc.insert(2, 3, 0.5);
  svc.erase(t);
  EXPECT_EQ(svc.flush(), before);  // empty batch: same epoch
  EXPECT_EQ(notified, 0);
  EXPECT_FALSE(sub.stale());
  EXPECT_EQ(svc.stats().subs_notified, 0u);
}

TEST(MutationQueue, PreservesInsertOrder) {
  MutationQueue q;
  for (int i = 0; i < 10; ++i)
    q.enqueue_insert(static_cast<vertex_id>(i), static_cast<vertex_id>(i + 1),
                     i * 0.1);
  auto d = q.drain();
  ASSERT_EQ(d.inserts.size(), 10u);
  for (int i = 1; i < 10; ++i)
    EXPECT_LT(d.inserts[i - 1].ticket, d.inserts[i].ticket);
}

/// Single-shard service vs the Kruskal reference across random flush
/// points (insert/erase mix with cycles, swaps, and replacements).
TEST(SldService, MatchesReferenceAcrossEpochs) {
  const vertex_id n = 48;
  ServiceConfig cfg;
  cfg.num_vertices = n;
  cfg.num_shards = 1;
  cfg.capture_edges = true;
  SldService svc(cfg);
  par::Rng rng(2025);
  std::vector<ticket_t> live;
  for (int step = 0; step < 400; ++step) {
    if (!live.empty() && rng.next_double() < 0.3) {
      size_t j = rng.next_bounded(live.size());
      svc.erase(live[j]);
      live[j] = live.back();
      live.pop_back();
    } else {
      vertex_id u = rng.next_bounded(n), v;
      do {
        v = rng.next_bounded(n);
      } while (v == u);
      live.push_back(svc.insert(u, v, rng.next_double()));
    }
    if (rng.next_double() < 0.15) {
      svc.flush();
      auto snap = svc.snapshot();
      for (double tau : {0.1, 0.35, 0.7}) {
        ThresholdView tv(snap, tau);
        auto ref = reference_labels(n, snap->captured_edges(), tau);
        expect_same_partition(ref, tv.flat_clustering());
        for (int q = 0; q < 30; ++q) {
          vertex_id s = rng.next_bounded(n), t = rng.next_bounded(n);
          EXPECT_EQ(tv.same_cluster(s, t), ref[s] == ref[t]);
        }
        vertex_id u = rng.next_bounded(n);
        EXPECT_EQ(tv.cluster_size(u), ref_cluster_size(ref, u));
      }
    }
  }
}

/// Sharded service (intra + cross edges) vs the same reference.
TEST(SldService, ShardedMatchesReference) {
  const vertex_id n = 60;
  ServiceConfig cfg;
  cfg.num_vertices = n;
  cfg.num_shards = 3;
  cfg.capture_edges = true;
  SldService svc(cfg);
  EXPECT_EQ(svc.num_shards(), 3);
  par::Rng rng(99);
  std::vector<ticket_t> live;
  for (int step = 0; step < 500; ++step) {
    if (!live.empty() && rng.next_double() < 0.3) {
      size_t j = rng.next_bounded(live.size());
      svc.erase(live[j]);
      live[j] = live.back();
      live.pop_back();
    } else {
      // 70% intra-block (block = 20 = shard stride), 30% cross.
      vertex_id u = rng.next_bounded(n), v;
      if (rng.next_double() < 0.7) {
        vertex_id base = (u / 20) * 20;
        do {
          v = base + rng.next_bounded(20);
        } while (v == u);
      } else {
        do {
          v = rng.next_bounded(n);
        } while (v == u);
      }
      live.push_back(svc.insert(u, v, rng.next_double()));
    }
    if (step % 40 == 39) {
      svc.flush();
      auto snap = svc.snapshot();
      for (double tau : {0.15, 0.5, 0.9}) {
        ThresholdView tv(snap, tau);
        auto ref = reference_labels(n, snap->captured_edges(), tau);
        expect_same_partition(ref, tv.flat_clustering());
        for (int q = 0; q < 40; ++q) {
          vertex_id s = rng.next_bounded(n), t = rng.next_bounded(n);
          EXPECT_EQ(tv.same_cluster(s, t), ref[s] == ref[t])
              << "s=" << s << " t=" << t << " tau=" << tau;
        }
        for (int q = 0; q < 10; ++q) {
          vertex_id u = rng.next_bounded(n);
          EXPECT_EQ(tv.cluster_size(u), ref_cluster_size(ref, u));
          auto rep = tv.cluster_report(u);
          EXPECT_EQ(rep.size(), ref_cluster_size(ref, u));
        }
      }
    }
  }
  auto r = svc.stats();
  EXPECT_GT(r.cross_ops, 0u);
}

/// An epoch reuses the per-shard snapshots of shards it did not touch.
TEST(SldService, UntouchedShardSnapshotsAreReused) {
  ServiceConfig cfg;
  cfg.num_vertices = 40;  // stride 20: shard 0 = [0,20), shard 1 = [20,40)
  cfg.num_shards = 2;
  SldService svc(cfg);
  svc.insert(1, 2, 0.3);
  svc.flush();
  auto before = svc.snapshot();
  svc.insert(21, 22, 0.4);  // touches only shard 1
  svc.flush();
  auto after = svc.snapshot();
  EXPECT_EQ(&before->shard(0), &after->shard(0));  // pointer-identical reuse
  EXPECT_NE(&before->shard(1), &after->shard(1));
  EXPECT_GT(svc.stats().shard_snapshots_reused, 0u);
}

TEST(SldService, CoalescedChurnNeverReachesShards) {
  ServiceConfig cfg;
  cfg.num_vertices = 10;
  SldService svc(cfg);
  for (int i = 0; i < 100; ++i) {
    ticket_t t = svc.insert(0, 1 + (i % 5), 0.5);
    svc.erase(t);  // annihilates in the queue
  }
  svc.flush();
  auto r = svc.stats();
  EXPECT_EQ(r.coalesced_pairs, 100u);
  EXPECT_EQ(r.ops_applied, 0u);
  EXPECT_EQ(svc.snapshot()->num_tree_edges(), 0u);
}

/// The acceptance stress test: N reader threads issue threshold /
/// cluster-size / flat-clustering queries against epoch snapshots while
/// a writer streams coalesced batches through flush(); every answer is
/// checked against the Kruskal reference of that epoch's captured edge
/// set. Snapshot consistency means a reader's answers agree with the
/// reference even when many epochs are published mid-query-loop.
TEST(SldService, StressReadersVsWriterMatchKruskalReference) {
  const vertex_id n = 80;
  const int kReaders = 4;
  ServiceConfig cfg;
  cfg.num_vertices = n;
  cfg.num_shards = 2;
  cfg.capture_edges = true;
  SldService svc(cfg);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> checks{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      par::Rng rng(1234 + r);
      // Per-epoch reference cache (epochs repeat across iterations).
      std::map<uint64_t, std::map<double, std::vector<vertex_id>>> cache;
      while (!done.load(std::memory_order_acquire)) {
        auto snap = svc.snapshot();
        double tau = (1 + rng.next_bounded(9)) * 0.1;
        ThresholdView tv(snap, tau);
        auto& ref = cache[snap->epoch()][tau];
        if (ref.empty())
          ref = reference_labels(n, snap->captured_edges(), tau);
        vertex_id s = rng.next_bounded(n), t = rng.next_bounded(n);
        ASSERT_EQ(tv.same_cluster(s, t), ref[s] == ref[t])
            << "epoch " << snap->epoch() << " tau " << tau;
        ASSERT_EQ(tv.cluster_size(s), ref_cluster_size(ref, s));
        expect_same_partition(ref, tv.flat_clustering());
        checks.fetch_add(1, std::memory_order_relaxed);
        if (cache.size() > 8) cache.erase(cache.begin());
      }
    });
  }

  // Writer: streaming churn in batches.
  par::Rng rng(4321);
  std::vector<ticket_t> live;
  uint64_t epochs = 0;
  for (int batch = 0; batch < 60; ++batch) {
    for (int i = 0; i < 12; ++i) {
      if (!live.empty() && rng.next_double() < 0.35) {
        size_t j = rng.next_bounded(live.size());
        svc.erase(live[j]);
        live[j] = live.back();
        live.pop_back();
      } else {
        vertex_id u = rng.next_bounded(n), v;
        do {
          v = rng.next_bounded(n);
        } while (v == u);
        live.push_back(svc.insert(u, v, rng.next_double()));
      }
    }
    epochs = svc.flush();
    if (batch % 10 == 0) std::this_thread::yield();
  }
  // Let readers observe the final epoch for a moment.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  done.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  EXPECT_GE(epochs, 50u);
  EXPECT_GT(checks.load(), 0u);
  auto r = svc.stats();
  EXPECT_GE(r.epochs_published, 60u);
}

/// Randomized typed query batches on a multi-shard service, including
/// duplicate-tau grouping, cross-checked against the per-epoch Kruskal
/// reference. Vertex n-1 stays edge-free so singleton clusters are
/// always part of the mix.
TEST(ClusterView, BatchMatchesReferenceOnShardedService) {
  const vertex_id n = 61;  // vertex 60 never touched: permanent singleton
  ServiceConfig cfg;
  cfg.num_vertices = n;
  cfg.num_shards = 3;
  cfg.capture_edges = true;
  SldService svc(cfg);
  par::Rng rng(314);
  std::vector<ticket_t> live;
  for (int step = 0; step < 360; ++step) {
    if (!live.empty() && rng.next_double() < 0.3) {
      size_t j = rng.next_bounded(live.size());
      svc.erase(live[j]);
      live[j] = live.back();
      live.pop_back();
    } else {
      vertex_id u = rng.next_bounded(n - 1), v;
      do {
        v = rng.next_bounded(n - 1);
      } while (v == u);
      live.push_back(svc.insert(u, v, rng.next_double()));
    }
    if (step % 60 != 59) continue;
    svc.flush();
    ClusterView view = svc.view();
    const auto& captured = view.snapshot().captured_edges();

    // Mixed batch over duplicate taus (three distinct thresholds).
    const std::vector<double> taus = {0.25, 0.6, 0.6, 0.9, 0.25, 0.6};
    std::vector<Query> batch;
    std::map<double, std::vector<vertex_id>> ref;
    for (double tau : taus) {
      if (!ref.count(tau)) ref[tau] = reference_labels(n, captured, tau);
      vertex_id u = rng.next_bounded(n), v = rng.next_bounded(n);
      batch.push_back(SameClusterQuery{u, v, tau});
      batch.push_back(ClusterSizeQuery{u, tau});
      batch.push_back(ClusterReportQuery{60, tau});  // singleton report
      batch.push_back(ClusterReportQuery{v, tau});
      batch.push_back(FlatClusteringQuery{tau});
      batch.push_back(SizeHistogramQuery{tau});
    }
    uint64_t views_before = svc.stats().views_built;
    std::vector<QueryResult> results = view.run(batch);
    // Duplicate taus share one resolution: three distinct thresholds,
    // three ThresholdView builds.
    EXPECT_EQ(svc.stats().views_built - views_before, 3u);

    ASSERT_EQ(results.size(), batch.size());
    size_t i = 0;
    for (double tau : taus) {
      const auto& labels = ref[tau];
      const auto& sc = std::get<SameClusterQuery>(batch[i]);
      EXPECT_EQ(std::get<bool>(results[i]),
                labels[sc.u] == labels[sc.v])
          << "tau=" << tau;
      ++i;
      const auto& cs = std::get<ClusterSizeQuery>(batch[i]);
      EXPECT_EQ(std::get<uint64_t>(results[i]), ref_cluster_size(labels, cs.u));
      ++i;
      auto singleton = std::get<std::vector<vertex_id>>(results[i]);
      EXPECT_EQ(singleton, std::vector<vertex_id>{60});
      ++i;
      const auto& cr = std::get<ClusterReportQuery>(batch[i]);
      auto members = std::get<std::vector<vertex_id>>(results[i]);
      EXPECT_EQ(members.size(), ref_cluster_size(labels, cr.u));
      bool contains_u = false;
      for (vertex_id m : members) {
        EXPECT_EQ(labels[m], labels[cr.u]);
        contains_u |= m == cr.u;
      }
      EXPECT_TRUE(contains_u);
      ++i;
      expect_same_partition(labels,
                            std::get<std::vector<vertex_id>>(results[i]));
      ++i;
      EXPECT_EQ(std::get<SizeHistogram>(results[i]), ref_histogram(labels));
      ++i;
    }
  }
  EXPECT_GT(svc.stats().cross_ops, 0u);
  EXPECT_GT(svc.stats().batch_runs, 0u);
}

/// Acceptance: N mixed queries at one tau through a ThresholdView cost
/// exactly one cross-shard union-find build, and at() memoizes.
TEST(ClusterView, ThresholdViewResolvesCrossMergeOnce) {
  const vertex_id n = 40;  // 2 shards, stride 20
  ServiceConfig cfg;
  cfg.num_vertices = n;
  cfg.num_shards = 2;
  SldService svc(cfg);
  par::Rng rng(77);
  for (int i = 0; i < 60; ++i) {  // intra edges in both shards
    vertex_id base = (i % 2) * 20;
    vertex_id u = base + rng.next_bounded(20), v;
    do {
      v = base + rng.next_bounded(20);
    } while (v == u);
    svc.insert(u, v, rng.next_double() * 0.5);
  }
  for (int i = 0; i < 10; ++i)  // sub-tau cross edges
    svc.insert(rng.next_bounded(20), 20 + rng.next_bounded(20),
               0.1 + 0.4 * rng.next_double());
  svc.flush();

  ClusterView view = svc.view();
  uint64_t uf_before = svc.stats().cross_uf_builds;
  auto tv = view.at(0.6);
  for (int q = 0; q < 200; ++q) {
    vertex_id u = rng.next_bounded(n), v = rng.next_bounded(n);
    tv->same_cluster(u, v);
    tv->cluster_size(u);
    if (q % 20 == 0) {
      tv->cluster_report(v);
      tv->flat_clustering();
    }
  }
  EXPECT_EQ(svc.stats().cross_uf_builds - uf_before, 1u);
  EXPECT_GT(tv->num_cross_groups(), 0u);
  EXPECT_EQ(view.at(0.6).get(), tv.get());  // memoized, same resolution

  // One view per call pays one resolution per call — the view plane's
  // amortization is real, not bookkeeping.
  uf_before = svc.stats().cross_uf_builds;
  auto snap = svc.snapshot();
  ThresholdView(snap, 0.6).same_cluster(0, 21);
  ThresholdView(snap, 0.6).cluster_size(0);
  EXPECT_EQ(svc.stats().cross_uf_builds - uf_before, 2u);
}

/// Epoch-0 views: everything is a singleton; the batch API still
/// answers coherently (empty service, no cross edges, no tree edges).
TEST(ClusterView, EpochZeroAllSingletons) {
  const vertex_id n = 12;
  ServiceConfig cfg;
  cfg.num_vertices = n;
  cfg.num_shards = 4;
  SldService svc(cfg);
  ClusterView view = svc.view();
  EXPECT_EQ(view.epoch(), 0u);
  auto tv = view.at(0.5);
  EXPECT_TRUE(tv->same_cluster(3, 3));
  EXPECT_FALSE(tv->same_cluster(3, 4));
  EXPECT_EQ(tv->cluster_size(7), 1u);
  EXPECT_EQ(tv->cluster_report(7), std::vector<vertex_id>{7});
  auto labels = tv->flat_clustering();
  ASSERT_EQ(labels.size(), n);
  for (vertex_id v = 0; v < n; ++v) EXPECT_EQ(labels[v], v);
  SizeHistogram h = tv->size_histogram();
  ASSERT_EQ(h.bins.size(), 1u);
  EXPECT_EQ(h.bins[0], (std::pair<uint64_t, uint64_t>{1, n}));
  EXPECT_EQ(h.num_clusters(), n);
}

/// Erase-by-endpoints: the queue's (u, v) ledger resolves tickets for
/// callers that don't retain them — pre-flush (annihilation), across
/// flushes, reversed endpoints, multi-edges, and unknown pairs.
TEST(SldService, EraseByEndpoints) {
  ServiceConfig cfg;
  cfg.num_vertices = 20;
  SldService svc(cfg);

  // Pre-flush: annihilates in the queue, never reaches shards.
  svc.insert(1, 2, 0.5);
  EXPECT_TRUE(svc.erase(vertex_id{1}, vertex_id{2}));
  svc.flush();
  EXPECT_EQ(svc.stats().coalesced_pairs, 1u);
  EXPECT_EQ(svc.stats().ops_applied, 0u);

  // Across a flush, with reversed endpoints.
  svc.insert(3, 4, 0.2);
  svc.flush();
  EXPECT_TRUE(svc.same_cluster(3, 4, 0.5));
  EXPECT_TRUE(svc.erase(vertex_id{4}, vertex_id{3}));
  svc.flush();
  EXPECT_FALSE(svc.same_cluster(3, 4, 0.5));

  // Unknown pair / already-erased pair.
  EXPECT_FALSE(svc.erase(vertex_id{5}, vertex_id{6}));
  EXPECT_FALSE(svc.erase(vertex_id{3}, vertex_id{4}));

  // Multi-edge: one endpoint-erase per copy, most recent first.
  svc.insert(7, 8, 0.1);
  svc.insert(7, 8, 0.3);
  svc.flush();
  EXPECT_TRUE(svc.erase(vertex_id{7}, vertex_id{8}));
  EXPECT_TRUE(svc.erase(vertex_id{7}, vertex_id{8}));
  EXPECT_FALSE(svc.erase(vertex_id{7}, vertex_id{8}));
  svc.flush();
  EXPECT_FALSE(svc.same_cluster(7, 8, 1.0));

  // A ticket-erase also clears the ledger entry.
  ticket_t t = svc.insert(9, 10, 0.4);
  svc.erase(t);
  EXPECT_FALSE(svc.erase(vertex_id{9}, vertex_id{10}));
}

/// Shard-local vertex spaces: per-shard snapshots are sized to the
/// shard's own range (uneven last shard included), and sharded answers
/// still match the reference exactly.
TEST(SldService, ShardLocalSpacesUnevenRanges) {
  const vertex_id n = 50;
  ServiceConfig cfg;
  cfg.num_vertices = n;
  cfg.num_shards = 4;  // stride 13: ranges 13, 13, 13, 11
  cfg.capture_edges = true;
  SldService svc(cfg);
  par::Rng rng(424);
  for (int i = 0; i < 220; ++i) {
    vertex_id u = rng.next_bounded(n), v;
    do {
      v = rng.next_bounded(n);
    } while (v == u);
    svc.insert(u, v, rng.next_double());
  }
  svc.flush();
  auto snap = svc.snapshot();
  ASSERT_EQ(snap->shard_map().stride, 13u);
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(snap->shard(k).num_vertices(), snap->shard_map().local_size(k));
    EXPECT_EQ(snap->shard(k).base(), snap->shard_map().base(k));
  }
  EXPECT_EQ(snap->shard(3).num_vertices(), 11u);
  for (double tau : {0.2, 0.55, 0.85}) {
    ThresholdView tv(snap, tau);
    auto ref = reference_labels(n, snap->captured_edges(), tau);
    expect_same_partition(ref, tv.flat_clustering());
    for (int q = 0; q < 60; ++q) {
      vertex_id s = rng.next_bounded(n), t = rng.next_bounded(n);
      EXPECT_EQ(tv.same_cluster(s, t), ref[s] == ref[t])
          << "s=" << s << " t=" << t << " tau=" << tau;
    }
    for (int q = 0; q < 15; ++q) {
      vertex_id u = rng.next_bounded(n);
      EXPECT_EQ(tv.cluster_size(u), ref_cluster_size(ref, u));
      EXPECT_EQ(tv.cluster_report(u).size(), ref_cluster_size(ref, u));
    }
  }
}

/// Background writer thread: epochs advance without explicit flushes.
TEST(SldService, BackgroundWriterPublishesEpochs) {
  ServiceConfig cfg;
  cfg.num_vertices = 32;
  cfg.flush_threshold = 8;
  cfg.flush_interval = std::chrono::microseconds(100);
  SldService svc(cfg);
  svc.start_writer();
  par::Rng rng(5);
  for (int i = 0; i < 64; ++i) {
    vertex_id u = rng.next_bounded(32), v;
    do {
      v = rng.next_bounded(32);
    } while (v == u);
    svc.insert(u, v, rng.next_double());
  }
  // The writer thread should pick these up on its own.
  for (int spin = 0; spin < 200 && svc.pending_updates() > 0; ++spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  svc.stop_writer();
  EXPECT_EQ(svc.pending_updates(), 0u);
  EXPECT_GE(svc.epoch(), 1u);
  EXPECT_GT(svc.snapshot()->num_tree_edges(), 0u);
}

namespace {

/// Seed an 8-shard service (stride 8) with intra edges in every shard
/// plus sub-tau cross edges whose endpoints span all shards, so a
/// refresh at tau exercises the incremental path.
void seed_eight_shards(SldService& svc, par::Rng& rng) {
  for (int k = 0; k < 8; ++k) {
    for (int i = 0; i < 14; ++i) {
      auto [u, v] = test::random_block_pair(rng, static_cast<vertex_id>(k) * 8, 8);
      svc.insert(u, v, rng.next_double() * 0.5);
    }
  }
  for (int k = 0; k < 8; ++k) {  // one sub-tau cross endpoint per shard
    vertex_id u = static_cast<vertex_id>(k) * 8 + rng.next_bounded(8);
    vertex_id v = static_cast<vertex_id>((k + 3) % 8) * 8 + rng.next_bounded(8);
    svc.insert(u, v, 0.1 + 0.3 * rng.next_double());
  }
  svc.flush();
}

}  // namespace

/// The acceptance scenario: with 1 of 8 shards dirty per flush, a
/// subscription refresh reuses the 7 clean shards (counter-verified)
/// and answers bit-for-bit like a freshly built view.
TEST(SubscribedView, HotShardRefreshReusesCleanShards) {
  const vertex_id n = 64;
  ServiceConfig cfg;
  cfg.num_vertices = n;
  cfg.num_shards = 8;
  cfg.capture_edges = true;
  SldService svc(cfg);
  par::Rng rng = test::test_rng();
  seed_eight_shards(svc, rng);

  const double tau = 0.6;
  SubscribedView sub(svc);
  sub.at(tau);  // initial full resolution

  for (int round = 0; round < 6; ++round) {
    // Churn confined to shard 0: intra edges over vertices [0, 8).
    for (int i = 0; i < 10; ++i) {
      auto [u, v] = test::random_block_pair(rng, 0, 8);
      svc.insert(u, v, rng.next_double());
    }
    svc.flush();
    EXPECT_TRUE(sub.stale());
    // The published delta records the flush's footprint: shard 0
    // rebuilt, the rest untouched, no cross churn.
    {
      const EpochDelta& d = svc.snapshot()->delta();
      EXPECT_EQ(d.num_rebuilt(), 1);
      EXPECT_EQ(d.shard_rebuilt[0], 1);
      EXPECT_FALSE(d.cross_changed());
      EXPECT_EQ(d.cross_inserted + d.cross_erased, 0u);
    }
    auto before = svc.stats();
    ASSERT_TRUE(sub.refresh());
    auto after = svc.stats();
    EXPECT_EQ(after.refresh_shards_reused - before.refresh_shards_reused, 7u);
    EXPECT_EQ(after.refresh_shards_rebuilt - before.refresh_shards_rebuilt, 1u);
    EXPECT_EQ(after.refresh_views_full, before.refresh_views_full);
    // Shard 0 hosts a cross endpoint, so the refresh is incremental,
    // not a wholesale reuse.
    EXPECT_EQ(after.cross_uf_incremental - before.cross_uf_incremental, 1u);

    // Bit-for-bit against a freshly resolved view, and against the
    // Kruskal oracle.
    auto snap = svc.snapshot();
    ASSERT_EQ(sub.epoch(), snap->epoch());
    auto tv = sub.at(tau);
    auto fresh = ClusterView(snap).at(tau);
    EXPECT_EQ(tv->flat_clustering(), fresh->flat_clustering());
    EXPECT_EQ(tv->size_histogram(), fresh->size_histogram());
    auto ref = reference_labels(n, snap->captured_edges(), tau);
    expect_same_partition(ref, tv->flat_clustering());
    for (int q = 0; q < 40; ++q) {
      auto [s, t] = test::random_distinct_pair(rng, n);
      EXPECT_EQ(tv->same_cluster(s, t), ref[s] == ref[t]) << "s=" << s << " t=" << t;
      EXPECT_EQ(tv->cluster_size(s), ref_cluster_size(ref, s));
    }
  }
}

/// Cross-edge churn strictly above the threshold keeps the sub-tau
/// prefix intact: the single-step delta proves it and the refresh stays
/// incremental; churn at or below tau forces the full re-resolve.
TEST(SubscribedView, CrossDeltaGatesFullResolve) {
  const vertex_id n = 64;
  ServiceConfig cfg;
  cfg.num_vertices = n;
  cfg.num_shards = 8;
  cfg.capture_edges = true;
  SldService svc(cfg);
  par::Rng rng = test::test_rng();
  seed_eight_shards(svc, rng);

  const double tau = 0.6;
  SubscribedView sub(svc);
  sub.at(tau);

  // A cross edge above tau: the delta's cross_min_w exceeds tau, so the
  // resolution survives (no full rebuild).
  svc.insert(2, 50, 0.9);
  svc.flush();
  EXPECT_GT(svc.snapshot()->delta().cross_min_w, tau);
  auto before = svc.stats();
  ASSERT_TRUE(sub.refresh());
  auto after = svc.stats();
  EXPECT_EQ(after.refresh_views_full, before.refresh_views_full);
  EXPECT_EQ(after.refresh_views_reused +
                after.refresh_views_incremental -
                before.refresh_views_reused - before.refresh_views_incremental,
            1u);

  // A cross edge below tau changes the prefix: full re-resolve.
  svc.insert(3, 40, 0.2);
  svc.flush();
  before = svc.stats();
  ASSERT_TRUE(sub.refresh());
  after = svc.stats();
  EXPECT_EQ(after.refresh_views_full - before.refresh_views_full, 1u);

  // Either way the refreshed view matches a fresh one exactly.
  auto snap = svc.snapshot();
  auto fresh = ClusterView(snap).at(tau);
  EXPECT_EQ(sub.at(tau)->flat_clustering(), fresh->flat_clustering());
  auto ref = reference_labels(n, snap->captured_edges(), tau);
  expect_same_partition(ref, sub.at(tau)->flat_clustering());
}

/// Register/refresh/unregister lifecycle: publishes bump the pending
/// epoch and fire the hook; refresh catches up (also across several
/// skipped epochs); destruction unregisters.
TEST(SubscribedView, LifecycleAndNotifications) {
  ServiceConfig cfg;
  cfg.num_vertices = 40;
  cfg.num_shards = 2;
  SldService svc(cfg);
  EXPECT_EQ(svc.subscriptions().size(), 0u);
  {
    std::vector<uint64_t> hook_epochs;
    SubscribedView sub(svc, [&](uint64_t e) { hook_epochs.push_back(e); });
    EXPECT_EQ(svc.subscriptions().size(), 1u);
    EXPECT_EQ(sub.epoch(), 0u);
    EXPECT_FALSE(sub.stale());
    EXPECT_FALSE(sub.refresh());  // nothing published yet

    svc.insert(1, 2, 0.3);
    svc.flush();
    svc.insert(21, 22, 0.4);
    svc.flush();  // two epochs behind now
    EXPECT_TRUE(sub.stale());
    EXPECT_EQ(sub.pending_epoch(), 2u);
    ASSERT_EQ(hook_epochs.size(), 2u);
    EXPECT_TRUE(sub.refresh());
    EXPECT_EQ(sub.epoch(), 2u);
    EXPECT_FALSE(sub.stale());
    EXPECT_FALSE(sub.refresh());  // idempotent

    // Batch API serves the subscription's pinned epoch.
    std::vector<Query> batch = {SameClusterQuery{1, 2, 0.5},
                                ClusterSizeQuery{21, 0.5}};
    auto results = sub.run(batch);
    EXPECT_TRUE(std::get<bool>(results[0]));
    EXPECT_EQ(std::get<uint64_t>(results[1]), 2u);
  }
  EXPECT_EQ(svc.subscriptions().size(), 0u);  // unregistered
  svc.insert(5, 6, 0.1);
  svc.flush();  // notifies nobody, crashes nothing
  EXPECT_EQ(svc.stats().subs_notified, 2u);
}

/// Replay driver smoke test: the sliding-window trace ends with the
/// same clustering whether driven through the service or re-derived
/// from the captured edge set.
TEST(Replay, SlidingWindowTraceMatchesReference) {
  Trace tr = Trace::sliding_window(/*window=*/40, /*steps=*/4, /*per_step=*/10,
                                   /*connect_radius=*/0.8, /*seed=*/11);
  ServiceConfig cfg;
  cfg.num_vertices = tr.num_vertices;
  cfg.capture_edges = true;
  SldService svc(cfg);
  ReplayOptions opt;
  opt.reader_threads = 2;
  opt.tau = 0.35;
  opt.ops_per_flush = 16;
  ReplayReport rep = replay(tr, svc, opt);
  EXPECT_EQ(rep.ops_applied, tr.ops.size());
  EXPECT_GT(rep.epochs_published, 0u);
  auto snap = svc.snapshot();
  auto ref = reference_labels(tr.num_vertices, snap->captured_edges(), 0.35);
  expect_same_partition(ref, ThresholdView(snap, 0.35).flat_clustering());
}

// ---- stable-slot, chunk-shared snapshots ------------------------------

/// Canonical codec bytes of one shard snapshot.
std::string shard_bytes(const DendrogramSnapshot& d) {
  persist::ByteWriter w;
  persist::SnapshotCodec::encode_shard(d, w);
  return w.bytes();
}

/// Block-local churn on one shard: `ops` inserts/erases (40% erases)
/// inside 64-vertex blocks, then a flush.
struct BlockChurn {
  SldService& svc;
  vertex_id n;
  par::Rng rng;
  std::vector<ticket_t> live;

  void step(int ops) {
    for (int i = 0; i < ops; ++i) {
      if (!live.empty() && rng.next_double() < 0.4) {
        size_t j = rng.next_bounded(live.size());
        svc.erase(live[j]);
        live[j] = live.back();
        live.pop_back();
      } else {
        const vertex_id block = 64 * static_cast<vertex_id>(
                                         rng.next_bounded(n / 64));
        auto [u, v] = test::random_block_pair(rng, block, 64);
        live.push_back(svc.insert(u, v, rng.next_double()));
      }
    }
    svc.flush();
  }
};

// Consecutive epochs share snapshot chunks, so a patch must never write
// through a chunk an older epoch still holds: eight epochs pinned
// through the AsOf retention ring keep their exact codec bytes and
// answers while 50 more small-batch flushes patch the shard on top.
TEST(DendrogramSnapshot, RetainedEpochsStayImmutableUnderPatching) {
  const vertex_id n = 2048;
  const double tau = 0.45;
  ServiceConfig cfg;
  cfg.num_vertices = n;
  cfg.num_shards = 1;
  SldService svc(cfg);
  BlockChurn churn{svc, n, test::test_rng(), {}};
  churn.step(2500);  // bulk load

  struct PinnedEpoch {
    uint64_t epoch;
    EpochManager::Snap snap;
    std::string bytes;
    ResultSet answers;
  };
  auto ask = [&](Consistency c) {
    QueryRequest req;
    req.consistency = c;
    req.queries = {FlatClusteringQuery{tau}, SizeHistogramQuery{tau},
                   NumClustersQuery{tau}};
    for (vertex_id v = 0; v < n; v += 97)
      req.queries.push_back(ClusterReportQuery{v, tau});
    return svc.submit(std::move(req)).get();
  };
  std::vector<PinnedEpoch> pinned;
  for (int e = 0; e < 8; ++e) {
    churn.step(16);
    PinnedEpoch p;
    p.epoch = svc.epoch();
    p.snap = svc.snapshot_at(p.epoch);
    ASSERT_TRUE(p.snap);
    p.bytes = shard_bytes(p.snap->shard(0));
    p.answers = ask(AsOf{p.epoch});
    ASSERT_EQ(p.answers.epoch, p.epoch);
    pinned.push_back(std::move(p));
  }

  const uint64_t patched0 = svc.stats().shard_snapshots_patched;
  for (int f = 0; f < 50; ++f) churn.step(16);
  EXPECT_GE(svc.stats().shard_snapshots_patched - patched0, 45u);

  for (const PinnedEpoch& p : pinned) {
    SCOPED_TRACE("epoch " + std::to_string(p.epoch));
    EXPECT_EQ(shard_bytes(p.snap->shard(0)), p.bytes);
    // The same answers, recomputed now from the pinned snapshot.
    ResultSet again = ask(Pinned{p.snap});
    EXPECT_EQ(again.results, p.answers.results);
  }
}

// The patch copies chunk tables and clones only what it writes: on a
// 4,096-vertex shard, 16-op batches leave at least half of the shard's
// chunks shared with the previous epoch on every flush.
TEST(DendrogramSnapshot, SmallBatchesShareMostChunks) {
  const vertex_id n = 4096;
  ServiceConfig cfg;
  cfg.num_vertices = n;
  cfg.num_shards = 1;
  SldService svc(cfg);
  BlockChurn churn{svc, n, test::test_rng(), {}};
  churn.step(4000);  // bulk load
  churn.step(16);    // first patch on top of the fresh build
  for (int f = 0; f < 40; ++f) {
    const EngineStats::Report before = svc.stats();
    churn.step(16);
    const EngineStats::Report after = svc.stats();
    ASSERT_EQ(after.shard_snapshots_patched - before.shard_snapshots_patched,
              1u)
        << "flush " << f;
    const uint64_t cloned = after.shard_chunks_cloned - before.shard_chunks_cloned;
    const uint64_t shared = after.shard_chunks_shared - before.shard_chunks_shared;
    EXPECT_GT(cloned, 0u) << "flush " << f;
    EXPECT_GE(shared, cloned) << "flush " << f;
  }
}

}  // namespace
}  // namespace dynsld::engine
