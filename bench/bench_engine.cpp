// E-ENGINE: the concurrent SLD serving engine.
//
//   1. Concurrent serving: a writer streams sliding-window batches
//      through the service while R reader threads query epoch
//      snapshots. Readers hold a ThresholdView per epoch (amortized
//      read path) vs re-resolving per call; the ratio column is the
//      amortization win.
//   2. Shard scaling: block-local churn with a small cross-shard
//      fraction, S = 1..8 shards; per-shard sub-batches apply in
//      parallel on the fork-join pool.
//   3. Coalescing: short-lived edges annihilate in the mutation queue
//      and never reach the shards.
//   4. View amortization: N mixed queries at one tau through one
//      ThresholdView per call vs one shared ThresholdView vs one batched
//      ClusterView::run() — one cross-shard merge resolution amortized
//      over the whole batch.
//   5. Subscription refresh: skewed traffic keeps hammering one shard
//      of eight; a SubscribedView refreshing per epoch (incremental:
//      clean shards' endpoint tops reused, blob union-find re-run) vs
//      a fresh view()+at(tau) (full resolution) per epoch.
//   6. Flat-label maintenance: same skewed traffic; the refreshed
//      view's flat_clustering() patches the previous epoch's label
//      array (dirty shard ranges + cross groups) vs the fresh view's
//      full relabel — the labels_patched/labels_rebuilt counters prove
//      which path ran.
//   7. Broker cross-client batching: N concurrent clients issue single
//      queries at a shared tau across churning epochs — per-caller
//      fresh views (every client pays its own resolution per epoch) vs
//      the sync run() wrapper vs pipelined submit() futures. The
//      resolution counters prove one cross-UF per (epoch, tau) group
//      fleet-wide on the broker paths; p50/p99 fulfillment latency is
//      reported for both broker modes.
//   8. Durability: one churny schedule replayed under no persistence /
//      WAL with fsync off / every-8 / every-1 (the flush-path tax per
//      policy), recovery wall time for WAL-only replay vs checkpoint +
//      tail over the same history, and AsOf{epoch} query latency per
//      serving tier (retention ring, cold checkpoint rehydration,
//      rehydration LRU) against the Latest baseline.
//   9. Incremental flush: per-flush latency of the contraction-round
//      patch (retained per-shard state, chunk-shared stable-slot snapshots)
//      vs the from-scratch rebuild across a batch-size x shard-size
//      sweep; the rounds_rerun/rounds_total counters prove which
//      lifting rounds were reused, and oversized batches show the
//      viability gate falling back to rebuilds.
//  10. Wire serving: the same single-query request stream through an
//      in-process submit() vs across a loopback RpcServer (the delta
//      is pure plumbing: frame codec + TCP + poll loop + completion
//      pipe), then read throughput against the writer alone vs fanned
//      out across the writer plus two wire-bootstrapped read replicas.
//
//   $ ./bench_engine [--smoke]     (--smoke: tiny sizes, CI rot check)
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "engine/replay.hpp"
#include "engine/sld_service.hpp"
#include "engine/subscription.hpp"
#include "net/client.hpp"
#include "net/replication.hpp"
#include "net/server.hpp"
#include "parallel/par.hpp"
#include "parallel/random.hpp"
#include "persist/persist.hpp"

using namespace dynsld;
using namespace dynsld::engine;

static double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

static void concurrent_serving(bool smoke) {
  bench::header("E-ENGINE-1", "readers sustain queries during batch flushes");
  Trace tr = Trace::sliding_window(/*window=*/smoke ? 120 : 600,
                                   /*steps=*/smoke ? 6 : 30,
                                   /*per_step=*/smoke ? 30 : 120,
                                   /*connect_radius=*/0.45,
                                   /*seed=*/42);
  bench::row("%-28s %8zu vertices, %zu ops (%zu inserts)", "sliding-window trace:",
             (size_t)tr.num_vertices, tr.ops.size(), tr.num_inserts());
  bench::row("%8s %12s %14s %14s %8s %10s", "readers", "updates/s",
             "q/s percall", "q/s amortized", "ratio", "epochs");
  for (int readers : smoke ? std::vector<int>{0, 2} : std::vector<int>{0, 1, 2, 4, 8}) {
    ReplayReport per_call, amortized;
    // With no readers the two modes are identical writer-only runs, so
    // a single replay covers the row.
    for (bool amortize : readers == 0 ? std::vector<bool>{true}
                                      : std::vector<bool>{false, true}) {
      ServiceConfig cfg;
      cfg.num_vertices = tr.num_vertices;
      SldService svc(cfg);
      ReplayOptions opt;
      opt.reader_threads = readers;
      opt.tau = 0.3;
      opt.ops_per_flush = 128;
      opt.amortize_views = amortize;
      (amortize ? amortized : per_call) = replay(tr, svc, opt);
    }
    if (readers == 0) {
      bench::row("%8d %12.0f %14s %14s %8s %10llu", readers,
                 amortized.updates_per_s, "-", "-", "-",
                 (unsigned long long)amortized.epochs_published);
      bench::json_log().metric("E-ENGINE-1", "updates_per_s_r0",
                               amortized.updates_per_s, "updates/s");
    } else {
      bench::row("%8d %12.0f %14.0f %14.0f %7.1fx %10llu", readers,
                 amortized.updates_per_s, per_call.queries_per_s,
                 amortized.queries_per_s,
                 per_call.queries_per_s > 0
                     ? amortized.queries_per_s / per_call.queries_per_s
                     : 0.0,
                 (unsigned long long)amortized.epochs_published);
      std::string rs = std::to_string(readers);
      bench::json_log().metric("E-ENGINE-1", "updates_per_s_r" + rs,
                               amortized.updates_per_s, "updates/s");
      bench::json_log().metric("E-ENGINE-1", "qps_amortized_r" + rs,
                               amortized.queries_per_s, "q/s");
    }
  }
}

static void shard_scaling(bool smoke) {
  bench::header("E-ENGINE-2", "sharded flushes: independent blocks in parallel");
  const int groups = 8, block = smoke ? 128 : 512,
            ops = smoke ? 4000 : 40000;
  Trace tr = Trace::blocks(groups, block, ops, /*cross_fraction=*/0.03,
                           /*seed=*/7);
  bench::row("%-28s %d blocks x %d vertices, %zu ops", "block-churn trace:",
             groups, block, tr.ops.size());
  bench::row("%8s %12s %10s %14s %12s", "shards", "updates/s", "epochs",
             "cross_ops", "wall_ms");
  for (int shards : {1, 2, 4, 8}) {
    ServiceConfig cfg;
    cfg.num_vertices = tr.num_vertices;
    cfg.num_shards = shards;
    SldService svc(cfg);
    ReplayOptions opt;
    opt.ops_per_flush = 256;
    ReplayReport rep = replay(tr, svc, opt);
    bench::row("%8d %12.0f %10llu %14llu %12.2f", shards, rep.updates_per_s,
               (unsigned long long)rep.epochs_published,
               (unsigned long long)svc.stats().cross_ops, rep.wall_ms);
    std::string ss = std::to_string(shards);
    bench::json_log().metric("E-ENGINE-2", "updates_per_s_s" + ss,
                             rep.updates_per_s, "updates/s");
    bench::json_log().metric("E-ENGINE-2", "wall_ms_s" + ss, rep.wall_ms,
                             "ms");
    if (shards == 8) {
      // Per-stage flush percentiles for the trajectory, straight from
      // the engine's histograms (the obs subsystem measuring itself —
      // the replay above drove the full drain/apply/build/publish
      // pipeline through them).
      auto m = svc.obs().registry.scrape();
      for (const char* stage : {"drain", "apply", "shards", "cross"}) {
        const auto* h = m.histogram(std::string("flush.") + stage);
        if (!h || h->count == 0) continue;
        bench::json_log().metric("E-ENGINE-2",
                                 std::string("flush_") + stage + "_p50_us",
                                 h->p50() / 1e3, "us");
        bench::json_log().metric("E-ENGINE-2",
                                 std::string("flush_") + stage + "_p99_us",
                                 h->p99() / 1e3, "us");
      }
    }
  }
}

static void coalescing(bool smoke) {
  bench::header("E-ENGINE-3", "update coalescing: churn dies in the queue");
  const vertex_id n = 4096;
  bench::row("%12s %12s %12s %14s", "churn_frac", "enqueued", "applied",
             "coalesced_%");
  for (double churn : {0.0, 0.5, 0.9}) {
    ServiceConfig cfg;
    cfg.num_vertices = n;
    SldService svc(cfg);
    par::Rng rng(13);
    const int ops = smoke ? 2000 : 20000;
    std::vector<ticket_t> live;
    for (int i = 0; i < ops; ++i) {
      vertex_id u = rng.next_bounded(n), v;
      do {
        v = rng.next_bounded(n);
      } while (v == u);
      ticket_t t = svc.insert(u, v, rng.next_double());
      if (rng.next_double() < churn) {
        svc.erase(t);  // short-lived: annihilates pre-flush
      } else {
        live.push_back(t);
      }
      if (i % 512 == 511) svc.flush();
    }
    svc.flush();
    auto r = svc.stats();
    uint64_t enq = r.inserts_enqueued + r.erases_enqueued;
    double pct = enq ? 100.0 * (enq - r.ops_applied) / enq : 0.0;
    bench::row("%12.1f %12llu %12llu %13.1f%%", churn,
               (unsigned long long)enq, (unsigned long long)r.ops_applied,
               pct);
    bench::json_log().metric(
        "E-ENGINE-3",
        "coalesced_pct_c" + std::to_string(static_cast<int>(churn * 100)),
        pct, "%");
  }
}

static void view_amortization(bool smoke) {
  bench::header("E-ENGINE-4",
                "ThresholdView/run(): one merge resolution, many queries");
  // 4-shard service with enough sub-tau cross edges that every per-call
  // query pays a fresh cross-shard union-find resolution.
  const int shards = 4, block = smoke ? 256 : 1024;
  const vertex_id n = static_cast<vertex_id>(shards) * block;
  ServiceConfig cfg;
  cfg.num_vertices = n;
  cfg.num_shards = shards;
  SldService svc(cfg);
  par::Rng rng(2027);
  const int edges = smoke ? 2000 : 12000;
  for (int i = 0; i < edges; ++i) {
    vertex_id u, v;
    if (rng.next_double() < 0.15) {  // cross-shard
      u = rng.next_bounded(n);
      do {
        v = rng.next_bounded(n);
      } while (v / block == u / block);
    } else {
      int g = static_cast<int>(rng.next_bounded(shards));
      u = static_cast<vertex_id>(g) * block + rng.next_bounded(block);
      do {
        v = static_cast<vertex_id>(g) * block + rng.next_bounded(block);
      } while (v == u);
    }
    svc.insert(u, v, rng.next_double());
  }
  svc.flush();

  const double tau = 0.35;
  const int q = smoke ? 2000 : 20000;
  std::vector<Query> queries;
  queries.reserve(q);
  par::Rng qrng(5);
  for (int i = 0; i < q; ++i) {
    vertex_id u = qrng.next_bounded(n), v = qrng.next_bounded(n);
    switch (qrng.next_bounded(3)) {
      case 0:
        queries.push_back(SameClusterQuery{u, v, tau});
        break;
      case 1:
        queries.push_back(ClusterSizeQuery{u, tau});
        break;
      default:
        queries.push_back(ClusterReportQuery{u, tau});
        break;
    }
  }

  auto snap = svc.snapshot();
  double t0 = now_ms();
  for (const Query& query : queries) {
    if (const auto* sc = std::get_if<SameClusterQuery>(&query))
      ThresholdView(snap, tau).same_cluster(sc->u, sc->v);
    else if (const auto* cs = std::get_if<ClusterSizeQuery>(&query))
      ThresholdView(snap, tau).cluster_size(cs->u);
    else if (const auto* cr = std::get_if<ClusterReportQuery>(&query))
      ThresholdView(snap, tau).cluster_report(cr->u);
  }
  double per_call_ms = now_ms() - t0;

  ClusterView view = svc.view();
  auto before = svc.stats();
  t0 = now_ms();
  auto tv = view.at(tau);
  for (const Query& query : queries) tv->run(query);
  double view_ms = now_ms() - t0;
  auto after = svc.stats();

  t0 = now_ms();
  auto results = svc.run(queries);
  double batch_ms = now_ms() - t0;

  bench::row("%-24s %8zu queries @tau=%.2f, %zu cross edges", "mixed workload:",
             queries.size(), tau, svc.snapshot()->cross().size());
  bench::row("%-24s %10.2f ms  (%12.0f q/s)", "one view per call:",
             per_call_ms, 1e3 * q / per_call_ms);
  bench::row("%-24s %10.2f ms  (%12.0f q/s)  %.1fx", "one ThresholdView:",
             view_ms, 1e3 * q / view_ms, per_call_ms / view_ms);
  bench::row("%-24s %10.2f ms  (%12.0f q/s)  %.1fx", "batched run():",
             batch_ms, 1e3 * q / batch_ms, per_call_ms / batch_ms);
  bench::row("%-24s %llu cross-uf builds for %d view queries (per-call: 1 each)",
             "merge resolutions:",
             (unsigned long long)(after.cross_uf_builds - before.cross_uf_builds),
             q);
  bench::json_log().metric("E-ENGINE-4", "per_call_ms", per_call_ms, "ms");
  bench::json_log().metric("E-ENGINE-4", "view_ms", view_ms, "ms");
  bench::json_log().metric("E-ENGINE-4", "batch_ms", batch_ms, "ms");
  bench::json_log().metric("E-ENGINE-4", "view_speedup",
                           view_ms > 0 ? per_call_ms / view_ms : 0.0, "x");
  (void)results;
}

static void subscription_refresh(bool smoke) {
  bench::header("E-ENGINE-5",
                "subscription refresh vs fresh view (1 of 8 shards dirty)");
  const int shards = 8, block = smoke ? 256 : 2048;
  const vertex_id n = static_cast<vertex_id>(shards) * block;
  const double tau = 0.6;
  ServiceConfig cfg;
  cfg.num_vertices = n;
  cfg.num_shards = shards;
  SldService svc(cfg);
  par::Rng rng(31);

  // Dense intra-shard structure everywhere + sub-tau cross edges whose
  // endpoints span all shards, so the resolution is nontrivial and the
  // hot shard hosts cross endpoints (incremental path, not wholesale).
  for (int k = 0; k < shards; ++k) {
    vertex_id base = static_cast<vertex_id>(k) * block;
    for (int i = 0; i < 3 * block; ++i) {
      vertex_id u = base + rng.next_bounded(block), v;
      do {
        v = base + rng.next_bounded(block);
      } while (v == u);
      svc.insert(u, v, rng.next_double());
    }
  }
  const int cross = smoke ? 800 : 6000;
  for (int i = 0; i < cross; ++i) {
    vertex_id u = rng.next_bounded(n), v;
    do {
      v = rng.next_bounded(n);
    } while (v / block == u / block);
    svc.insert(u, v, rng.next_double());
  }
  svc.flush();

  SubscribedView sub(svc);
  sub.at(tau);  // initial full resolution (not timed)

  const int rounds = smoke ? 30 : 100, churn = smoke ? 64 : 256;
  std::vector<ticket_t> hot_live;
  double fresh_ms = 0, sub_ms = 0;
  size_t sanity = 0;
  auto before = svc.stats();
  for (int r = 0; r < rounds; ++r) {
    // Skewed traffic: every op lands inside shard 0.
    for (int i = 0; i < churn; ++i) {
      if (!hot_live.empty() && rng.next_double() < 0.4) {
        size_t j = rng.next_bounded(hot_live.size());
        svc.erase(hot_live[j]);
        hot_live[j] = hot_live.back();
        hot_live.pop_back();
      } else {
        vertex_id u = rng.next_bounded(block), v;
        do {
          v = rng.next_bounded(block);
        } while (v == u);
        hot_live.push_back(svc.insert(u, v, rng.next_double()));
      }
    }
    svc.flush();

    double t0 = now_ms();
    ClusterView fresh = svc.view();
    auto ftv = fresh.at(tau);  // full resolution every epoch (poll-and-rebuild)
    fresh_ms += now_ms() - t0;

    t0 = now_ms();
    sub.refresh();  // incremental: 7 of 8 shards' tops reused
    sub_ms += now_ms() - t0;

    sanity += sub.at(tau)->num_cross_groups() == ftv->num_cross_groups();
  }
  auto after = svc.stats();

  bench::row("%-26s %d shards x %d vertices, %zu cross edges, %d epochs",
             "skewed-churn workload:", shards, block,
             (size_t)svc.snapshot()->cross().size(), rounds);
  bench::row("%-26s %10.3f ms/epoch", "fresh view()+at(tau):",
             fresh_ms / rounds);
  bench::row("%-26s %10.3f ms/epoch  %.1fx", "subscription refresh:",
             sub_ms / rounds, sub_ms > 0 ? fresh_ms / sub_ms : 0.0);
  bench::row("%-26s %.1f reused / %.1f rebuilt per refresh; %llu incremental, "
             "%llu full",
             "shards per refresh:",
             static_cast<double>(after.refresh_shards_reused -
                                 before.refresh_shards_reused) /
                 rounds,
             static_cast<double>(after.refresh_shards_rebuilt -
                                 before.refresh_shards_rebuilt) /
                 rounds,
             (unsigned long long)(after.cross_uf_incremental -
                                  before.cross_uf_incremental),
             (unsigned long long)(after.refresh_views_full -
                                  before.refresh_views_full));
  bench::json_log().metric("E-ENGINE-5", "fresh_ms_per_epoch",
                           fresh_ms / rounds, "ms");
  bench::json_log().metric("E-ENGINE-5", "refresh_ms_per_epoch",
                           sub_ms / rounds, "ms");
  bench::json_log().metric("E-ENGINE-5", "refresh_speedup",
                           sub_ms > 0 ? fresh_ms / sub_ms : 0.0, "x");
  if (sanity != static_cast<size_t>(rounds))
    bench::row("WARNING: refresh/fresh divergence in %zu rounds",
               rounds - sanity);
}

static void label_maintenance(bool smoke) {
  bench::header("E-ENGINE-6",
                "flat labels: patched on refresh vs full relabel (1 of 8 "
                "shards dirty)");
  const int shards = 8, block = smoke ? 256 : 8192;
  const vertex_id n = static_cast<vertex_id>(shards) * block;
  const double tau = 0.6;
  ServiceConfig cfg;
  cfg.num_vertices = n;
  cfg.num_shards = shards;
  SldService svc(cfg);
  par::Rng rng(47);

  // Dense intra-shard structure plus sub-tau cross edges spanning all
  // shards: the label pass has real per-shard work to skip and real
  // cross-group fixups to redo.
  for (int k = 0; k < shards; ++k) {
    vertex_id base = static_cast<vertex_id>(k) * block;
    for (int i = 0; i < 3 * block; ++i) {
      vertex_id u = base + rng.next_bounded(block), v;
      do {
        v = base + rng.next_bounded(block);
      } while (v == u);
      svc.insert(u, v, rng.next_double());
    }
  }
  const int cross = smoke ? 800 : 6000;
  for (int i = 0; i < cross; ++i) {
    vertex_id u = rng.next_bounded(n), v;
    do {
      v = rng.next_bounded(n);
    } while (v / block == u / block);
    svc.insert(u, v, rng.next_double());
  }
  svc.flush();

  SubscribedView sub(svc);
  sub.at(tau)->flat_clustering();  // initial full materialization (not timed)

  const int rounds = smoke ? 30 : 100, churn = smoke ? 64 : 256;
  std::vector<ticket_t> hot_live;
  double full_ms = 0, patched_ms = 0;
  size_t sanity = 0;
  auto before = svc.stats();
  for (int r = 0; r < rounds; ++r) {
    for (int i = 0; i < churn; ++i) {  // every op lands inside shard 0
      if (!hot_live.empty() && rng.next_double() < 0.4) {
        size_t j = rng.next_bounded(hot_live.size());
        svc.erase(hot_live[j]);
        hot_live[j] = hot_live.back();
        hot_live.pop_back();
      } else {
        vertex_id u = rng.next_bounded(block), v;
        do {
          v = rng.next_bounded(block);
        } while (v == u);
        hot_live.push_back(svc.insert(u, v, rng.next_double()));
      }
    }
    svc.flush();

    // Both sides resolve their view first; only the lazy label
    // materialization is timed (the resolution delta is E-ENGINE-5).
    ClusterView fresh = svc.view();
    auto ftv = fresh.at(tau);
    double t0 = now_ms();
    const auto& full = ftv->flat_clustering();  // global relabel
    full_ms += now_ms() - t0;

    sub.refresh();
    auto stv = sub.at(tau);
    t0 = now_ms();
    const auto& patched = stv->flat_clustering();  // copy + patch
    patched_ms += now_ms() - t0;

    sanity += full == patched && ftv->size_histogram() == stv->size_histogram();
  }
  auto after = svc.stats();

  bench::row("%-26s %d shards x %d vertices, %zu cross edges, %d epochs",
             "skewed-churn workload:", shards, block,
             (size_t)svc.snapshot()->cross().size(), rounds);
  bench::row("%-26s %10.3f ms/epoch", "full relabel (fresh):",
             full_ms / rounds);
  bench::row("%-26s %10.3f ms/epoch  %.1fx", "patched labels (refresh):",
             patched_ms / rounds, patched_ms > 0 ? full_ms / patched_ms : 0.0);
  bench::row("%-26s %llu rebuilt / %llu patched / %llu reused",
             "label materializations:",
             (unsigned long long)(after.labels_rebuilt - before.labels_rebuilt),
             (unsigned long long)(after.labels_patched - before.labels_patched),
             (unsigned long long)(after.labels_reused - before.labels_reused));
  bench::json_log().metric("E-ENGINE-6", "full_relabel_ms_per_epoch",
                           full_ms / rounds, "ms");
  bench::json_log().metric("E-ENGINE-6", "patched_ms_per_epoch",
                           patched_ms / rounds, "ms");
  bench::json_log().metric("E-ENGINE-6", "patch_speedup",
                           patched_ms > 0 ? full_ms / patched_ms : 0.0, "x");
  if (sanity != static_cast<size_t>(rounds))
    bench::row("WARNING: patched/full label divergence in %zu rounds",
               rounds - sanity);
}

static void broker_cross_client(bool smoke) {
  bench::header("E-ENGINE-7",
                "broker: cross-client batching at a shared tau across epochs");
  const int shards = 4, block = smoke ? 256 : 1024;
  const vertex_id n = static_cast<vertex_id>(shards) * block;
  const double tau = 0.35;
  const int clients = smoke ? 4 : 8;
  const int rounds = smoke ? 8 : 30;
  const int per_round = smoke ? 60 : 400;  // queries per client per round

  enum Mode { kPerCaller, kSyncRun, kAsyncSubmit };
  struct Row {
    double wall_ms = 0, qps = 0, res_per_round = 0, reqs_per_group = 0;
    double p50_us = 0, p99_us = 0;
    // Engine-side fulfillment latency (broker.fulfill histogram:
    // admission to promise resolution), vs the client-side p50/p99
    // above which include future-reap scheduling.
    double fulfill_p50_us = 0, fulfill_p99_us = 0;
  };

  auto run_mode = [&](Mode mode) {
    ServiceConfig cfg;
    cfg.num_vertices = n;
    cfg.num_shards = shards;
    SldService svc(cfg);
    par::Rng rng(2027);
    // E-ENGINE-4's workload shape: dense intra structure + 15% cross
    // edges, so every resolution at tau has a real cross merge to pay.
    const int edges = smoke ? 2000 : 12000;
    for (int i = 0; i < edges; ++i) {
      vertex_id u, v;
      if (rng.next_double() < 0.15) {
        u = rng.next_bounded(n);
        do {
          v = rng.next_bounded(n);
        } while (v / block == u / block);
      } else {
        int g = static_cast<int>(rng.next_bounded(shards));
        u = static_cast<vertex_id>(g) * block + rng.next_bounded(block);
        do {
          v = static_cast<vertex_id>(g) * block + rng.next_bounded(block);
        } while (v == u);
      }
      svc.insert(u, v, rng.next_double());
    }
    svc.flush();

    std::vector<double> lats;
    lats.reserve(static_cast<size_t>(clients) * rounds * per_round);
    std::mutex lat_mu;
    auto before = svc.stats();
    double t0 = now_ms();
    for (int round = 0; round < rounds; ++round) {
      // Skewed churn inside shard 0, one flush -> one new epoch.
      for (int i = 0; i < 64; ++i) {
        vertex_id u = rng.next_bounded(block), v;
        do {
          v = rng.next_bounded(block);
        } while (v == u);
        svc.insert(u, v, rng.next_double());
      }
      svc.flush();

      std::vector<std::thread> cs;
      cs.reserve(clients);
      for (int c = 0; c < clients; ++c) {
        cs.emplace_back([&, c, round] {
          par::Rng qr(static_cast<uint64_t>(round) * 131 + c);
          std::vector<double> local;
          local.reserve(per_round);
          if (mode == kPerCaller) {
            // The pre-broker pattern: this client's own fresh view per
            // epoch — N clients, N resolutions, zero sharing.
            auto tv = svc.view().at(tau);
            for (int i = 0; i < per_round; ++i) {
              double s = now_ms();
              tv->cluster_size(qr.next_bounded(n));
              local.push_back(now_ms() - s);
            }
          } else if (mode == kSyncRun) {
            for (int i = 0; i < per_round; ++i) {
              Query q = ClusterSizeQuery{
                  static_cast<vertex_id>(qr.next_bounded(n)), tau};
              double s = now_ms();
              svc.run(std::span<const Query>(&q, 1));
              local.push_back(now_ms() - s);
            }
          } else {
            // Pipelined submits, bounded window: latency recorded when
            // the oldest future is reaped (≈ fulfillment under load).
            std::deque<std::pair<std::future<ResultSet>, double>> window;
            auto reap = [&] {
              auto [fut, s] = std::move(window.front());
              window.pop_front();
              fut.get();
              local.push_back(now_ms() - s);
            };
            for (int i = 0; i < per_round; ++i) {
              QueryRequest req;
              req.queries = {ClusterSizeQuery{
                  static_cast<vertex_id>(qr.next_bounded(n)), tau}};
              double s = now_ms();
              window.emplace_back(svc.submit(std::move(req)), s);
              if (window.size() >= 32) reap();
            }
            while (!window.empty()) reap();
          }
          std::lock_guard<std::mutex> lk(lat_mu);
          lats.insert(lats.end(), local.begin(), local.end());
        });
      }
      for (auto& t : cs) t.join();
    }
    double wall = now_ms() - t0;
    auto after = svc.stats();

    Row row;
    row.wall_ms = wall;
    row.qps = 1e3 * clients * per_round * rounds / wall;
    uint64_t res = (after.cross_uf_builds - before.cross_uf_builds) +
                   (after.cross_uf_incremental - before.cross_uf_incremental);
    row.res_per_round = static_cast<double>(res) / rounds;
    uint64_t groups = after.broker_groups - before.broker_groups;
    row.reqs_per_group =
        groups ? static_cast<double>(after.broker_group_requests -
                                     before.broker_group_requests) /
                     groups
               : 0.0;
    std::sort(lats.begin(), lats.end());
    if (!lats.empty()) {
      row.p50_us = 1e3 * lats[lats.size() / 2];
      row.p99_us = 1e3 * lats[lats.size() * 99 / 100];
    }
    auto scrape = svc.obs().registry.scrape();
    if (const auto* h = scrape.histogram("broker.fulfill"); h && h->count) {
      row.fulfill_p50_us = h->p50() / 1e3;
      row.fulfill_p99_us = h->p99() / 1e3;
    }
    return row;
  };

  Row per_caller = run_mode(kPerCaller);
  Row sync_run = run_mode(kSyncRun);
  Row async = run_mode(kAsyncSubmit);

  bench::row("%-22s %d clients x %d q x %d epochs @tau=%.2f, %d shards",
             "shared-tau workload:", clients, per_round, rounds, tau, shards);
  bench::row("%-22s %9s %12s %10s %11s %9s %9s", "mode", "wall_ms", "q/s",
             "res/epoch", "reqs/group", "p50_us", "p99_us");
  bench::row("%-22s %9.1f %12.0f %10.1f %11s %9.2f %9.2f",
             "per-caller views:", per_caller.wall_ms, per_caller.qps,
             per_caller.res_per_round, "-", per_caller.p50_us,
             per_caller.p99_us);
  bench::row("%-22s %9.1f %12.0f %10.1f %11.1f %9.2f %9.2f",
             "sync run() wrapper:", sync_run.wall_ms, sync_run.qps,
             sync_run.res_per_round, sync_run.reqs_per_group, sync_run.p50_us,
             sync_run.p99_us);
  bench::row("%-22s %9.1f %12.0f %10.1f %11.1f %9.2f %9.2f",
             "pipelined submit():", async.wall_ms, async.qps,
             async.res_per_round, async.reqs_per_group, async.p50_us,
             async.p99_us);
  bench::row("%-22s per-caller pays ~%d resolutions/epoch; the broker pays "
             "~1 per (epoch, tau) group fleet-wide",
             "amortization:", clients);
  bench::row("%-22s sync p50/p99 %0.2f/%0.2f us, async p50/p99 %0.2f/%0.2f "
             "us (broker.fulfill histogram)",
             "engine-side latency:", sync_run.fulfill_p50_us,
             sync_run.fulfill_p99_us, async.fulfill_p50_us,
             async.fulfill_p99_us);
  bench::json_log().metric("E-ENGINE-7", "qps_per_caller", per_caller.qps,
                           "q/s");
  bench::json_log().metric("E-ENGINE-7", "qps_sync", sync_run.qps, "q/s");
  bench::json_log().metric("E-ENGINE-7", "qps_async", async.qps, "q/s");
  bench::json_log().metric("E-ENGINE-7", "res_per_epoch_async",
                           async.res_per_round, "count");
  bench::json_log().metric("E-ENGINE-7", "reqs_per_group_async",
                           async.reqs_per_group, "count");
  bench::json_log().metric("E-ENGINE-7", "client_p50_us", async.p50_us, "us");
  bench::json_log().metric("E-ENGINE-7", "client_p99_us", async.p99_us, "us");
  bench::json_log().metric("E-ENGINE-7", "broker_fulfill_p50_us",
                           async.fulfill_p50_us, "us");
  bench::json_log().metric("E-ENGINE-7", "broker_fulfill_p99_us",
                           async.fulfill_p99_us, "us");
  if (per_caller.res_per_round < clients * 0.9)
    bench::row("WARNING: per-caller baseline resolved fewer views than "
               "expected (%.1f/epoch)", per_caller.res_per_round);
  if (sync_run.res_per_round > 2.5 || async.res_per_round > 2.5)
    bench::row("WARNING: broker resolved more than expected per epoch "
               "(sync %.1f, async %.1f)",
               sync_run.res_per_round, async.res_per_round);
}

static void durability(bool smoke) {
  bench::header("E-ENGINE-8",
                "durability: WAL tax per fsync policy, recovery, AsOf");
  namespace fs = std::filesystem;
  const vertex_id n = smoke ? 256 : 4096;
  const int shards = 4;
  const int epochs = smoke ? 24 : 120;
  const int batch = smoke ? 64 : 512;

  // One deterministic churny schedule, replayed identically under each
  // persistence configuration (distinct weights keep replay exact).
  auto drive = [&](SldService& svc) {
    par::Rng rng(7);
    uint64_t widx = 0;
    std::vector<ticket_t> live;
    for (int e = 0; e < epochs; ++e) {
      for (int i = 0; i < batch; ++i) {
        if (!live.empty() && rng.next_double() < 0.3) {
          size_t j = rng.next_bounded(live.size());
          svc.erase(live[j]);
          live[j] = live.back();
          live.pop_back();
        } else {
          vertex_id u = static_cast<vertex_id>(rng.next_bounded(n));
          vertex_id v = static_cast<vertex_id>(rng.next_bounded(n - 1));
          if (v >= u) ++v;
          live.push_back(svc.insert(
              u, v,
              static_cast<double>(widx * 2654435761ull % 999983ull) /
                  999983.0));
          ++widx;
        }
      }
      svc.flush();
    }
  };

  struct Variant {
    const char* label;
    const char* metric;  // json suffix
    bool persist;
    persist::FsyncPolicy policy;
    uint64_t every_n;
  };
  const Variant variants[] = {
      {"no persistence", "nopersist", false, persist::FsyncPolicy::kOff, 0},
      {"WAL, fsync off", "fsync_off", true, persist::FsyncPolicy::kOff, 0},
      {"WAL, fsync every 8", "fsync_every8", true,
       persist::FsyncPolicy::kEveryN, 8},
      {"WAL, fsync every 1", "fsync_every1", true,
       persist::FsyncPolicy::kEveryN, 1},
  };

  bench::row("%-22s %12s %14s %10s %10s", "flush path", "wall ms",
             "updates/s", "ms/epoch", "WAL MB");
  const fs::path base =
      fs::temp_directory_path() /
      ("dynsld_bench_persist_" +
       std::to_string(static_cast<unsigned long long>(::getpid())));
  double baseline_ms = 0;
  for (const Variant& var : variants) {
    const fs::path dir = base / var.metric;
    fs::remove_all(dir);
    ServiceConfig cfg;
    cfg.num_vertices = n;
    cfg.num_shards = shards;
    if (var.persist) {
      cfg.persist.dir = dir.string();
      cfg.persist.fsync_policy = var.policy;
      cfg.persist.fsync_every_n = var.every_n;
      cfg.persist.checkpoint_every = 1u << 30;  // isolate the WAL tax
    }
    bench::Timer t;
    uint64_t wal_bytes = 0;
    {
      SldService svc(cfg);
      drive(svc);
      wal_bytes = svc.stats().wal_bytes;
    }
    double ms = t.ms();
    if (!var.persist) baseline_ms = ms;
    bench::row("%-22s %12.1f %14.0f %10.2f %10.2f", var.label, ms,
               epochs * static_cast<double>(batch) / (ms / 1000.0),
               ms / epochs, wal_bytes / 1e6);
    bench::json_log().metric("E-ENGINE-8",
                             std::string("flush_ms_per_epoch_") + var.metric,
                             ms / epochs, "ms");
    if (var.persist && baseline_ms > 0)
      bench::json_log().metric("E-ENGINE-8",
                               std::string("wal_overhead_pct_") + var.metric,
                               (ms - baseline_ms) / baseline_ms * 100.0, "%");
  }

  // Recovery: WAL-only replay vs checkpoint + short tail, same history.
  for (bool ckpt : {false, true}) {
    const fs::path dir = base / (ckpt ? "recover_ckpt" : "recover_wal");
    fs::remove_all(dir);
    ServiceConfig cfg;
    cfg.num_vertices = n;
    cfg.num_shards = shards;
    cfg.persist.dir = dir.string();
    cfg.persist.checkpoint_every = ckpt ? 16 : (1u << 30);
    {
      SldService svc(cfg);
      drive(svc);
    }
    bench::Timer t;
    auto res = persist::recover(cfg);
    double ms = t.ms();
    bench::row("%-22s %12.1f ms to epoch %llu (%llu records replayed)",
               ckpt ? "recover ckpt+tail:" : "recover WAL-only:", ms,
               static_cast<unsigned long long>(res.tip_epoch),
               static_cast<unsigned long long>(res.records_replayed));
    bench::json_log().metric(
        "E-ENGINE-8", ckpt ? "recover_ckpt_ms" : "recover_walonly_ms", ms,
        "ms");
    if (!ckpt)
      bench::json_log().metric("E-ENGINE-8", "recover_replayed",
                               static_cast<double>(res.records_replayed),
                               "count");
  }

  // AsOf vs Latest: the price of time travel per serving tier.
  {
    const fs::path dir = base / "asof";
    fs::remove_all(dir);
    ServiceConfig cfg;
    cfg.num_vertices = n;
    cfg.num_shards = shards;
    cfg.retain_epochs = 8;
    cfg.persist.dir = dir.string();
    cfg.persist.checkpoint_every = 16;
    SldService svc(cfg);
    drive(svc);
    const uint64_t tip = svc.epoch();
    const uint64_t ring_epoch = tip - 4;          // in the retention ring
    const uint64_t cold_epoch = (tip / 16) * 16;  // checkpointed, off-ring
    const int reps = smoke ? 50 : 400;
    auto timed = [&](const char* label, const char* metric, auto consistency,
                     int iters) {
      bench::Timer t;
      for (int i = 0; i < iters; ++i) {
        QueryRequest req;
        req.queries = {NumClustersQuery{0.5}};
        req.consistency = consistency;
        (void)svc.submit(std::move(req)).get();
      }
      double us = t.us() / iters;
      bench::row("%-22s %12.2f us/query", label, us);
      bench::json_log().metric("E-ENGINE-8", metric, us, "us");
      return us;
    };
    timed("query Latest:", "latest_us", Latest{}, reps);
    timed("query AsOf (ring):", "asof_ring_us", AsOf{ring_epoch}, reps);
    // First touch decodes the checkpoint; repeats hit the LRU.
    timed("AsOf rehydrate cold:", "asof_rehydrate_first_us", AsOf{cold_epoch},
          1);
    timed("AsOf rehydrate LRU:", "asof_rehydrate_cached_us", AsOf{cold_epoch},
          reps);
  }
  std::error_code ec;
  fs::remove_all(base, ec);
}

static void incremental_flush(bool smoke) {
  bench::header("E-ENGINE-9",
                "incremental shard flush: contraction patch vs full rebuild");
  auto pct = [](std::vector<double> v, double q) {
    std::sort(v.begin(), v.end());
    return v[std::min(v.size() - 1,
                      static_cast<size_t>(q * static_cast<double>(v.size())))];
  };
  // Enough flushes per config that the p50 reflects the engine rather
  // than scheduling noise on small hosts (the slow tail is one-sided).
  const int rounds = smoke ? 32 : 48;
  bench::row("%8s %6s | %10s %10s | %10s %10s | %8s %10s %8s", "shard n",
             "batch", "rb p50 us", "rb p99 us", "pt p50 us", "pt p99 us",
             "speedup", "rounds", "patched");
  for (vertex_id n : smoke ? std::vector<vertex_id>{1024, 8192}
                           : std::vector<vertex_id>{1024, 2048, 8192}) {
    for (int batch : smoke ? std::vector<int>{8, 16, 64}
                           : std::vector<int>{8, 16, 64, 256}) {
      // Index 0 = full rebuild every flush, 1 = incremental patch.
      // The headline numbers are the per-shard snapshot materialization
      // stage (the flush.shard_build / flush.shard_patch histograms the
      // router records into) — that is the stage this path optimizes.
      // Whole-flush wall time is dominated by the MSF apply stage
      // (erase replacement searches) and is emitted as secondary JSON
      // metrics for context.
      std::vector<double> wall[2];
      double stage50[2] = {0, 0}, stage99[2] = {0, 0};
      uint64_t rr = 0, rt = 0, patched = 0, fallbacks = 0;
      {
        // Twin services, identical op streams, flushes interleaved per
        // round: external disturbances (this is a latency benchmark on
        // a shared host) then contaminate both sides' histograms about
        // equally instead of landing on whichever variant happened to
        // be running, so the p50 ratio is stable run-to-run.
        std::unique_ptr<SldService> svcs[2];
        for (int inc = 0; inc < 2; ++inc) {
          ServiceConfig cfg;
          cfg.num_vertices = n;
          cfg.num_shards = 1;
          cfg.incremental_snapshots = inc == 1;
          svcs[inc] = std::make_unique<SldService>(cfg);
        }
        par::Rng rng(99);
        uint64_t widx = 0;
        auto wgen = [&] {
          return static_cast<double>((widx++ * 2654435761ull + 3) %
                                     999983ull) /
                 999983.0;
        };
        auto rand_pair = [&] {
          vertex_id u = static_cast<vertex_id>(rng.next_bounded(n));
          vertex_id v = static_cast<vertex_id>(rng.next_bounded(n - 1));
          if (v >= u) ++v;
          return std::pair<vertex_id, vertex_id>{u, v};
        };
        // Bulk load: a path over the shard plus n/4 random chords, so
        // the dendrogram is one big component with internal structure.
        // Tickets are service-local, but the identical op streams keep
        // the two live lists index-aligned.
        std::vector<ticket_t> live[2];
        auto ins = [&](vertex_id u, vertex_id v) {
          const double w = wgen();
          live[0].push_back(svcs[0]->insert(u, v, w));
          live[1].push_back(svcs[1]->insert(u, v, w));
        };
        for (vertex_id v = 0; v + 1 < n; ++v) ins(v, v + 1);
        for (vertex_id i = 0; i < n / 4; ++i) {
          auto [u, v] = rand_pair();
          ins(u, v);
        }
        svcs[0]->flush();
        svcs[1]->flush();
        for (int r = 0; r < rounds; ++r) {
          for (int i = 0; i < batch; ++i) {
            if (!live[0].empty() && rng.next_double() < 0.5) {
              size_t j = rng.next_bounded(live[0].size());
              for (int inc = 0; inc < 2; ++inc) {
                svcs[inc]->erase(live[inc][j]);
                live[inc][j] = live[inc].back();
                live[inc].pop_back();
              }
            } else {
              auto [u, v] = rand_pair();
              ins(u, v);
            }
          }
          for (int inc = 0; inc < 2; ++inc) {
            bench::Timer t;
            svcs[inc]->flush();
            wall[inc].push_back(t.us());
          }
        }
        // The rebuild service records every materialization into
        // flush.shard_build; the incremental one records patched ones
        // into flush.shard_patch (its bulk load and any fallbacks land
        // in shard_build, so the patch histogram is pure).
        for (int inc = 0; inc < 2; ++inc) {
          auto hs = (inc ? svcs[inc]->obs().flush_shard_patch
                         : svcs[inc]->obs().flush_shard_build)
                        ->snapshot();
          stage50[inc] = hs.p50() / 1000.0;
          stage99[inc] = hs.p99() / 1000.0;
        }
        auto st = svcs[1]->stats();
        rr = st.contraction_rounds_rerun;
        rt = st.contraction_rounds_total;
        patched = st.shard_snapshots_patched;
        fallbacks = st.shard_patch_fallbacks;
      }
      const double rb50 = stage50[0], rb99 = stage99[0];
      const double pt50 = stage50[1], pt99 = stage99[1];
      const double speedup = pt50 > 0 ? rb50 / pt50 : 0.0;
      const double wall_rb50 = pct(wall[0], 0.5);
      const double wall_pt50 = pct(wall[1], 0.5);
      char rounds_col[32];
      std::snprintf(rounds_col, sizeof rounds_col, "%llu/%llu",
                    static_cast<unsigned long long>(rr),
                    static_cast<unsigned long long>(rt));
      char patched_col[32];
      std::snprintf(patched_col, sizeof patched_col, "%llu(%lluF)",
                    static_cast<unsigned long long>(patched),
                    static_cast<unsigned long long>(fallbacks));
      bench::row("%8u %6d | %10.1f %10.1f | %10.1f %10.1f | %7.2fx %10s %8s",
                 n, batch, rb50, rb99, pt50, pt99, speedup, rounds_col,
                 patched_col);
      const std::string key =
          "_n" + std::to_string(n) + "_b" + std::to_string(batch);
      bench::json_log().metric("E-ENGINE-9", "flush_p50_us_rebuild" + key,
                               rb50, "us");
      bench::json_log().metric("E-ENGINE-9", "flush_p99_us_rebuild" + key,
                               rb99, "us");
      bench::json_log().metric("E-ENGINE-9", "flush_p50_us_patch" + key, pt50,
                               "us");
      bench::json_log().metric("E-ENGINE-9", "flush_p99_us_patch" + key, pt99,
                               "us");
      bench::json_log().metric("E-ENGINE-9", "speedup" + key, speedup, "x");
      bench::json_log().metric("E-ENGINE-9", "wall_flush_p50_us_rebuild" + key,
                               wall_rb50, "us");
      bench::json_log().metric("E-ENGINE-9", "wall_flush_p50_us_patch" + key,
                               wall_pt50, "us");
      if (rt)
        bench::json_log().metric(
            "E-ENGINE-9", "rounds_rerun_pct" + key,
            100.0 * static_cast<double>(rr) / static_cast<double>(rt), "%");
    }
  }
}

static void wire_serving(bool smoke) {
  bench::header("E-ENGINE-10",
                "wire serving: RPC round trip vs submit(), replica fan-out");
  namespace fs = std::filesystem;
  auto pct = [](std::vector<double> v, double q) {
    std::sort(v.begin(), v.end());
    return v[std::min(v.size() - 1,
                      static_cast<size_t>(q * static_cast<double>(v.size())))];
  };
  const fs::path dir =
      fs::temp_directory_path() /
      ("dynsld_bench_net_" +
       std::to_string(static_cast<unsigned long long>(::getpid())));
  std::error_code ec;
  fs::remove_all(dir, ec);
  {
    const vertex_id n = smoke ? 256 : 2048;
    const int shards = 4;
    ServiceConfig cfg;
    cfg.num_vertices = n;
    cfg.num_shards = shards;
    cfg.persist.dir = dir.string();  // replicas feed off the WAL stream
    cfg.persist.checkpoint_every = 16;
    SldService svc(cfg);
    {
      par::Rng rng(11);
      uint64_t widx = 0;
      std::vector<ticket_t> live;
      const int epochs = smoke ? 12 : 48, batch = smoke ? 64 : 256;
      for (int e = 0; e < epochs; ++e) {
        for (int i = 0; i < batch; ++i) {
          if (!live.empty() && rng.next_double() < 0.3) {
            size_t j = rng.next_bounded(live.size());
            svc.erase(live[j]);
            live[j] = live.back();
            live.pop_back();
          } else {
            vertex_id u = static_cast<vertex_id>(rng.next_bounded(n));
            vertex_id v = static_cast<vertex_id>(rng.next_bounded(n - 1));
            if (v >= u) ++v;
            live.push_back(svc.insert(
                u, v,
                static_cast<double>(widx * 2654435761ull % 999983ull) /
                    999983.0));
            ++widx;
          }
        }
        svc.flush();
      }
    }
    net::RpcServer server(svc);  // ephemeral loopback port

    // Round trip: the identical single-query request stream, submitted
    // in-process vs across the wire by a blocking client. Both paths go
    // through the same broker, so the p50 delta is pure plumbing.
    const double taus[] = {0.15, 0.35, 0.55, 0.75, 0.95};
    auto request = [&](int i) {
      QueryRequest req;
      req.queries.push_back(NumClustersQuery{taus[i % 5]});
      return req;
    };
    const int reps = smoke ? 300 : 3000;
    std::vector<double> in_us, wire_us;
    in_us.reserve(reps);
    wire_us.reserve(reps);
    for (int i = 0; i < reps; ++i) {
      bench::Timer t;
      (void)svc.submit(request(i)).get();
      in_us.push_back(t.us());
    }
    {
      net::RpcClient cli("127.0.0.1", server.port());
      for (int i = 0; i < reps; ++i) {
        bench::Timer t;
        (void)cli.query(request(i));
        wire_us.push_back(t.us());
      }
    }
    const double in50 = pct(in_us, 0.5), in99 = pct(in_us, 0.99);
    const double wr50 = pct(wire_us, 0.5), wr99 = pct(wire_us, 0.99);
    bench::row("%-22s %10s %10s", "round trip", "p50 us", "p99 us");
    bench::row("%-22s %10.1f %10.1f", "in-process submit()", in50, in99);
    bench::row("%-22s %10.1f %10.1f", "loopback wire", wr50, wr99);
    bench::json_log().metric("E-ENGINE-10", "inproc_p50_us", in50, "us");
    bench::json_log().metric("E-ENGINE-10", "inproc_p99_us", in99, "us");
    bench::json_log().metric("E-ENGINE-10", "wire_p50_us", wr50, "us");
    bench::json_log().metric("E-ENGINE-10", "wire_p99_us", wr99, "us");
    bench::json_log().metric("E-ENGINE-10", "wire_overhead_p50_x",
                             in50 > 0 ? wr50 / in50 : 0.0, "x");

    // Fan-out: two replicas bootstrap over the wire and serve their own
    // ports; the same client fleet then drives a fixed query count at
    // the writer alone vs round-robined across all three servers.
    net::Replica::Options ro;
    ro.port = server.port();
    ro.cfg.num_vertices = n;
    ro.cfg.num_shards = shards;
    net::Replica rep1(ro), rep2(ro);
    const uint64_t tip = svc.epoch();
    if (!rep1.wait_for_epoch(tip, std::chrono::seconds(30)) ||
        !rep2.wait_for_epoch(tip, std::chrono::seconds(30))) {
      std::printf("  replica bootstrap timed out; skipping fan-out\n");
      return;
    }
    net::RpcServer rsrv1(rep1.service());
    net::RpcServer rsrv2(rep2.service());
    const int threads = smoke ? 4 : 8;
    const int per_thread = smoke ? 150 : 600;
    // A distinct tau per query defeats the broker's (epoch, tau) group
    // cache, so every query pays a real resolution — the throughput
    // ratio then measures serving capacity, not cache hits. All three
    // servers share this host's cores (the replicas are in-process), so
    // the fan-out ratio reflects host parallelism: ~1x on a single-core
    // runner, approaching 3x only when cores are free to take the extra
    // brokers' work.
    auto tput_request = [&](int i) {
      QueryRequest req;
      req.queries.push_back(SizeHistogramQuery{
          static_cast<double>(static_cast<uint64_t>(i) * 2654435761ull %
                              999983ull) /
          999983.0});
      return req;
    };
    auto run = [&](std::vector<uint16_t> ports) {
      std::vector<std::thread> ts;
      bench::Timer t;
      for (int c = 0; c < threads; ++c)
        ts.emplace_back([&, c] {
          net::RpcClient cli("127.0.0.1", ports[c % ports.size()]);
          for (int i = 0; i < per_thread; ++i)
            (void)cli.query(tput_request(c * per_thread + i));
        });
      for (auto& th : ts) th.join();
      return threads * per_thread / (t.ms() / 1000.0);
    };
    const double qps_single = run({server.port()});
    const double qps_fanout = run({server.port(), rsrv1.port(), rsrv2.port()});
    bench::row("%-22s %12.0f q/s", "1 server", qps_single);
    bench::row("%-22s %12.0f q/s  (%0.2fx)", "writer + 2 replicas",
               qps_fanout, qps_single > 0 ? qps_fanout / qps_single : 0.0);
    bench::json_log().metric("E-ENGINE-10", "qps_single_server", qps_single,
                             "q/s");
    bench::json_log().metric("E-ENGINE-10", "qps_fanout3", qps_fanout, "q/s");
    bench::json_log().metric("E-ENGINE-10", "fanout_speedup",
                             qps_single > 0 ? qps_fanout / qps_single : 0.0,
                             "x");
  }
  fs::remove_all(dir, ec);
}

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  bench::parse_json_arg(argc, argv, "engine", smoke, par::num_workers());
  std::printf("workers: %d%s\n", par::num_workers(), smoke ? " (smoke)" : "");
  concurrent_serving(smoke);
  shard_scaling(smoke);
  coalescing(smoke);
  view_amortization(smoke);
  subscription_refresh(smoke);
  label_maintenance(smoke);
  broker_cross_client(smoke);
  durability(smoke);
  incremental_flush(smoke);
  wire_serving(smoke);
  bench::json_log().write();
  return 0;
}
