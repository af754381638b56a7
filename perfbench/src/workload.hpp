// Shared plumbing of the three workloads: run options, load-generator
// timing and CPU placement, the Kruskal oracle, the query mix, flush
// recording from the outside (benchmark spans around flush() plus the
// EpochTrace the library publishes), engine counter deltas, and the
// shape descriptors every run prints.
#pragma once

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/query.hpp"
#include "engine/sld_service.hpp"
#include "engine/stats.hpp"
#include "measure.hpp"
#include "parallel/stats.hpp"

namespace perfbench {

using dynsld::vertex_id;
using dynsld::engine::ticket_t;
namespace eng = dynsld::engine;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  int pool_threads = 0;  // DYNSLD_NUM_THREADS as seen by the process
};

/// One pass of a workload. `traced` adds the benchmark-side spans and
/// the span-derived per-layer metrics; counters are read either way.
struct Pass {
  const Options& opt;
  bool traced;
  Report rep;
  /// One span log per load thread (index = thread), written out at the
  /// end of a traced pass. Sized before the threads start.
  std::vector<SpanLog> logs = std::vector<SpanLog>(4);
  /// Non-empty when the open-loop generator could not keep its
  /// schedule: the run is invalid and reports no latencies.
  std::string invalid;

  Pass(const Options& o, bool t) : opt(o), traced(t) {}
  SpanLog& log(size_t thread) { return logs.at(thread); }
};

struct Edge {
  vertex_id u, v;
  double w;
};

// ---- load generator plumbing ---------------------------------------

/// Sleep until `due` (now_ns() clock), then spin the last stretch, so an
/// open-loop schedule is not late by the kernel's timer slack.
inline void wait_until(uint64_t due) {
  constexpr uint64_t kSpinNs = 50'000;
  const uint64_t now = now_ns();
  if (now + kSpinNs < due)
    std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - kSpinNs));
  while (now_ns() < due) {
  }
}

/// CPU placement. With at least 4 CPUs, the engine (and every thread it
/// creates, which inherit the placement) runs on all CPUs but the last
/// and the load generator's own threads on the last one, so generator
/// wake-ups do not queue behind engine work and vice versa. The main
/// thread calls pin_engine() before building anything; generator
/// threads call pin_generator() first thing. Returns whether it pinned.
inline bool pin(bool generator) {
  cpu_set_t all;
  CPU_ZERO(&all);
  if (sched_getaffinity(0, sizeof all, &all) != 0) return false;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &all)) cpus.push_back(c);
  if (cpus.size() < 4) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (generator) {
    CPU_SET(cpus.back(), &set);
  } else {
    for (size_t i = 0; i + 1 < cpus.size(); ++i) CPU_SET(cpus[i], &set);
  }
  return sched_setaffinity(0, sizeof set, &set) == 0;
}
inline bool pin_engine() { return pin(false); }
inline bool pin_generator() { return pin(true); }

/// Number of setups a run performs; setup_s is their median.
inline constexpr int kSetupReps = 5;

inline double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t k = v.size();
  return k == 0 ? 0.0 : (k % 2 ? v[k / 2] : 0.5 * (v[k / 2 - 1] + v[k / 2]));
}

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- oracle ---------------------------------------------------------

/// Kruskal reference over the generator's own live-edge set: the
/// clustering at every ladder threshold (w <= tau merges, matching the
/// library's threshold semantics), the MSF size, and the maximum
/// dendrogram height h — the longest root-to-leaf chain of merges.
class Oracle {
 public:
  Oracle(vertex_id n, std::vector<Edge> live, std::vector<double> taus)
      : taus_(std::move(taus)) {
    std::sort(live.begin(), live.end(),
              [](const Edge& a, const Edge& b) { return a.w < b.w; });
    std::vector<vertex_id> parent(n);
    std::vector<uint32_t> height(n, 0);  // dendrogram height per UF root
    for (vertex_id v = 0; v < n; ++v) parent[v] = v;
    auto find = [&](vertex_id x) {
      while (parent[x] != x) x = parent[x] = parent[parent[x]];
      return x;
    };
    size_t next = 0;
    for (double tau : taus_) {
      for (; next < live.size() && live[next].w <= tau; ++next)
        unite(live[next], find, parent, height);
      std::vector<vertex_id> label(n);
      std::vector<uint64_t> size(n, 0);
      for (vertex_id v = 0; v < n; ++v) ++size[label[v] = find(v)];
      std::map<uint64_t, uint64_t> bins;
      uint64_t k = 0;
      for (vertex_id v = 0; v < n; ++v)
        if (size[v]) ++bins[size[v]], ++k;
      eng::SizeHistogram h;
      h.bins.assign(bins.begin(), bins.end());
      levels_.push_back({std::move(label), std::move(size), std::move(h), k});
    }
    for (; next < live.size(); ++next) unite(live[next], find, parent, height);
  }

  size_t num_taus() const { return taus_.size(); }
  double tau(size_t i) const { return taus_[i]; }
  uint64_t msf_edges() const { return msf_edges_; }
  uint32_t height() const { return max_height_; }

  /// Index of `tau` in the ladder (queries only use ladder thresholds).
  size_t tau_index(double tau) const {
    return static_cast<size_t>(std::find(taus_.begin(), taus_.end(), tau) -
                               taus_.begin());
  }

  /// Does `r` answer `q` correctly at the final state?
  bool check(const eng::Query& q, const eng::QueryResult& r) const {
    const Level& L = levels_[tau_index(eng::query_tau(q))];
    if (auto* s = std::get_if<eng::SameClusterQuery>(&q))
      return holds<bool>(r, L.label[s->u] == L.label[s->v]);
    if (auto* s = std::get_if<eng::ClusterSizeQuery>(&q))
      return holds<uint64_t>(r, L.size[L.label[s->u]]);
    if (std::holds_alternative<eng::NumClustersQuery>(q))
      return holds<uint64_t>(r, L.clusters);
    if (std::holds_alternative<eng::SizeHistogramQuery>(q))
      return holds<eng::SizeHistogram>(r, L.hist);
    if (std::holds_alternative<eng::FlatClusteringQuery>(q)) {
      auto* lab = std::get_if<std::vector<vertex_id>>(&r);
      return lab && same_partition(*lab, L.label);
    }
    return false;
  }

  /// Two label arrays describe the same partition (labels may differ).
  static bool same_partition(const std::vector<vertex_id>& a,
                             const std::vector<vertex_id>& b) {
    if (a.size() != b.size()) return false;
    std::map<vertex_id, vertex_id> ab, ba;
    for (size_t i = 0; i < a.size(); ++i) {
      auto [x, fx] = ab.try_emplace(a[i], b[i]);
      auto [y, fy] = ba.try_emplace(b[i], a[i]);
      if (x->second != b[i] || y->second != a[i]) return false;
    }
    return true;
  }

 private:
  struct Level {
    std::vector<vertex_id> label;
    std::vector<uint64_t> size;
    eng::SizeHistogram hist;
    uint64_t clusters;
  };

  template <class T, class V>
  static bool holds(const eng::QueryResult& r, const V& want) {
    auto* p = std::get_if<T>(&r);
    return p && *p == want;
  }

  template <class Find>
  void unite(const Edge& e, Find& find, std::vector<vertex_id>& parent,
             std::vector<uint32_t>& height) {
    vertex_id a = find(e.u), b = find(e.v);
    if (a == b) return;
    // The merge is a new dendrogram node above both clusters' tops.
    const uint32_t h = std::max(height[a], height[b]) + 1;
    parent[b] = a;
    height[a] = h;
    max_height_ = std::max(max_height_, h);
    ++msf_edges_;
  }

  std::vector<double> taus_;
  std::vector<Level> levels_;
  uint64_t msf_edges_ = 0;
  uint32_t max_height_ = 0;
};

// ---- query mix ------------------------------------------------------

/// Point-query mix over a tau ladder: shares of SameCluster /
/// ClusterSize / NumClusters / SizeHistogram (the rest).
struct QueryMix {
  double same = 0.45, size = 0.35, count = 0.15;
  std::vector<double> taus;
  vertex_id n = 0;
  vertex_id block = 64;  // SameCluster partners are block-local half the time

  eng::Query draw(Rng& rng) const {
    const double tau = taus[rng.below(taus.size())];
    const double x = rng.uniform();
    const vertex_id u = static_cast<vertex_id>(rng.below(n));
    if (x < same) {
      vertex_id v = rng.uniform() < 0.5
                        ? (u / block) * block +
                              static_cast<vertex_id>(rng.below(block))
                        : static_cast<vertex_id>(rng.below(n));
      return eng::SameClusterQuery{u, v, tau};
    }
    if (x < same + size) return eng::ClusterSizeQuery{u, tau};
    if (x < same + size + count) return eng::NumClustersQuery{tau};
    return eng::SizeHistogramQuery{tau};
  }
};

// ---- flush recording --------------------------------------------------

/// Per-flush stage samples, read from the outside: a benchmark span
/// around flush() and, as its children, the stages of the EpochTrace
/// the library froze into the epoch it published. The flush span's
/// self time is the flush cost outside the library's trace (publish,
/// notify, WAL append, replication tap).
struct FlushLog {
  Samples wall_ms, drain_ms, apply_ms, shards_ms, cross_ms, outside_ms;
  uint64_t flushes = 0, patch_path = 0;

  void record(const eng::SldService& svc, uint64_t epoch, uint64_t t0,
              uint64_t t1, SpanLog* log) {
    auto snap = svc.snapshot();
    if (snap->epoch() != epoch) return;  // nothing published
    ++flushes;
    const auto& d = snap->delta();
    bool all_patched = d.num_rebuilt() > 0;
    for (size_t k = 0; k < d.shard_rebuilt.size(); ++k)
      if (d.shard_rebuilt[k] && d.shard_patch[k].mode != 1) all_patched = false;
    patch_path += all_patched;
    const auto& tr = snap->trace();
    wall_ms.add((t1 - t0) / 1e6, t1);
    drain_ms.add(tr.drain_ns / 1e6, t1);
    apply_ms.add(tr.apply_ns / 1e6, t1);
    shards_ms.add(tr.shards_ns / 1e6, t1);
    cross_ms.add(tr.cross_ns / 1e6, t1);
    if (log) {
      // The stages run back to back inside flush(); lay them out in
      // order from the span's start (their covered length is exact).
      const uint32_t id = log->add("flush", t0, t1, 0, epoch);
      uint64_t at = t0;
      const std::pair<const char*, uint64_t> stages[] = {
          {"flush.drain", tr.drain_ns},
          {"flush.apply", tr.apply_ns},
          {"flush.shards", tr.shards_ns},
          {"flush.cross", tr.cross_ns}};
      for (auto [name, ns] : stages) {
        log->add(name, at, std::min(at + ns, t1), id, epoch);
        at += ns;
      }
      outside_ms.add(log->self_ns(id) / 1e6, t1);
    }
  }

  /// Stage percentiles are per-layer figures of the traced pass; the
  /// patch-path share is a shape descriptor printed with every run.
  void report(Pass& p) const {
    Report& r = p.rep;
    r.share("shape.patch_flush_share", double(patch_path), double(flushes));
    if (!p.traced) return;
    r.timing("flush.wall_ms.p50", wall_ms, 0.50, 1, "ms", false);
    r.timing("flush.wall_ms.p99", wall_ms, 0.99, 1, "ms", false);
    r.timing("flush.drain_ms.p50", drain_ms, 0.50, 1, "ms", false);
    r.timing("flush.apply_ms.p50", apply_ms, 0.50, 1, "ms", false);
    r.timing("flush.apply_ms.p99", apply_ms, 0.99, 1, "ms", false);
    r.timing("flush.shards_ms.p50", shards_ms, 0.50, 1, "ms", false);
    r.timing("flush.shards_ms.p99", shards_ms, 0.99, 1, "ms", false);
    r.timing("flush.cross_ms.p99", cross_ms, 0.99, 1, "ms", false);
    r.timing("flush.outside_trace_ms.p50", outside_ms, 0.50, 1, "ms", false);
  }

  /// Mean stage split: the means add up exactly to the mean wall time
  /// (the outside-trace remainder closes the sum).
  void print_split(const char* workload) const {
    std::printf(
        "split %s flush means (ms): wall %.4f = drain %.4f + apply %.4f + "
        "shards %.4f + cross %.4f + outside %.4f  (flushes=%llu)\n",
        workload, wall_ms.mean(), drain_ms.mean(), apply_ms.mean(),
        shards_ms.mean(), cross_ms.mean(),
        wall_ms.mean() - drain_ms.mean() - apply_ms.mean() -
            shards_ms.mean() - cross_ms.mean(),
        static_cast<unsigned long long>(flushes));
  }
};

// ---- counters -------------------------------------------------------

/// Engine counter delta over a phase.
inline eng::EngineStats::Report diff(const eng::EngineStats::Report& a,
                                     const eng::EngineStats::Report& b) {
  eng::EngineStats::Report d;
#define PERFBENCH_DIFF(name) d.name = b.name - a.name;
  DYNSLD_ENGINE_COUNTERS(PERFBENCH_DIFF)
#undef PERFBENCH_DIFF
  return d;
}

struct DynsldCounters {
  uint64_t pointer_writes, spine_nodes, connectivity, pws, index_ops;
  static DynsldCounters read() {
    auto& c = dynsld::stats::counters();
    return {c.pointer_writes.load(), c.spine_nodes_touched.load(),
            c.connectivity_queries.load(), c.pws_queries.load(),
            c.index_links.load() + c.index_cuts.load()};
  }
};

/// Per-layer metrics read from the engine's counters over the measured
/// phase. `d` is the writer's delta and `rd` the delta of the engine
/// the readers query (the same engine except on window, where readers
/// use the replica); `ops_applied` counts every update applied in this
/// process during the phase (the dynsld counters are process-wide, so a
/// replica's applies are in the base too).
inline void report_counters(Pass& p, const eng::EngineStats::Report& d,
                            const eng::EngineStats::Report& rd,
                            const DynsldCounters& c0,
                            const DynsldCounters& c1, uint64_t ops_applied) {
  Report& r = p.rep;
  const double enq = double(d.inserts_enqueued + d.erases_enqueued);
  r.share("mq.coalesced_share", 2.0 * double(d.coalesced_pairs), enq);
  r.share("router.cross_share", double(d.cross_ops), double(d.ops_applied));
  const double ops = double(ops_applied);
  r.share("dynsld.pointer_writes_per_update",
          double(c1.pointer_writes - c0.pointer_writes), ops, "count");
  r.share("dynsld.spine_nodes_per_update",
          double(c1.spine_nodes - c0.spine_nodes), ops, "count");
  r.share("dynsld.connectivity_queries_per_update",
          double(c1.connectivity - c0.connectivity), ops, "count");
  r.share("dynsld.pws_queries_per_update", double(c1.pws - c0.pws), ops,
          "count");
  r.share("dynsld.index_ops_per_update", double(c1.index_ops - c0.index_ops),
          ops, "count");
  r.share("snapshot.patched_share", double(d.shard_snapshots_patched),
          double(d.shard_snapshots_built));
  r.set("snapshot.fallbacks", double(d.shard_patch_fallbacks), "count");
  r.share("contraction.rerun_share", double(d.contraction_rounds_rerun),
          double(d.contraction_rounds_total));
  r.share("contraction.nodes_patched_per_flush",
          double(d.contraction_nodes_patched), double(d.flushes), "count");
  r.share("broker.group_size", double(rd.broker_group_requests),
          double(rd.broker_groups), "count");
  r.share("broker.resolutions_per_epoch", double(rd.views_built),
          double(rd.epochs_published), "count");
  r.set("broker.epoch_waits", double(rd.broker_epoch_waits), "count");
  r.set("broker.rejects",
        double(rd.broker_admission_rejects + rd.broker_quota_rejects), "count");
  r.share("view.cross_uf_full_share", double(rd.cross_uf_builds),
          double(rd.cross_uf_builds + rd.cross_uf_incremental));
  r.share("view.refresh_full_share", double(rd.refresh_views_full),
          double(rd.refresh_views_reused + rd.refresh_views_incremental +
                 rd.refresh_views_full));
  r.share("labels.patched_share", double(rd.labels_patched),
          double(rd.labels_rebuilt + rd.labels_patched + rd.labels_reused));
  r.set("net.frame_rejects", double(d.net_frame_rejects), "count");
  r.share("wal.bytes_per_update", double(d.wal_bytes), enq, "B");
  r.share("wal.fsyncs_per_epoch", double(d.wal_fsyncs),
          double(d.epochs_published), "count");
  r.set("ckpt.count", double(d.checkpoints_written), "count");
}

/// Shape descriptors every run prints, so later claims about inputs
/// "with property X" can cite the measured share.
struct Shape {
  vertex_id n = 0;
  uint64_t live_edges = 0, cross_live = 0, erases = 0, updates = 0;
  const Oracle* oracle = nullptr;
  double ops_per_flush = 0;

  void report(Report& r) const {
    r.set("shape.n", double(n), "count");
    r.set("shape.live_edges", double(live_edges), "count");
    r.set("shape.msf_edges", double(oracle->msf_edges()), "count");
    r.share("shape.cross_edge_share", double(cross_live), double(live_edges));
    r.set("shape.h", double(oracle->height()), "count");
    r.set("shape.ops_per_flush", ops_per_flush, "count");
    r.share("shape.erase_share", double(erases), double(updates));
  }
};

/// Open-loop health: a run whose generator could not keep its schedule
/// is invalid — its latencies describe a different offered load.
struct Lateness {
  Samples ms;
  double last_ms = 0;
  void add(uint64_t due_ns, uint64_t at_ns) {
    last_ms = at_ns > due_ns ? (at_ns - due_ns) / 1e6 : 0.0;
    ms.add(last_ms, at_ns);
  }
};

/// How far an open-loop schedule may lag (at its p99 and at its last
/// send) before the run counts as not having sustained its offered
/// rate. A flush that writes a checkpoint stalls the window writer for
/// tens of ms, which it then catches up; a growing backlog does not.
inline constexpr double kMaxLatenessMs = 100.0;

}  // namespace perfbench
