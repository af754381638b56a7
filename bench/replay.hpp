// Workload replay driver: recorded update traces plus a harness that
// replays them against an SldService under concurrent reader threads.
// Benchmarks drive this instead of hand-rolling loops (the examples
// keep inline loops on purpose — they demonstrate the raw ticket API).
// It is benchmark code, not library code: CMake compiles it into
// bench_engine and into test_engine, which checks a replayed trace
// against the Kruskal reference.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/sld_service.hpp"
#include "graph/types.hpp"

namespace dynsld::engine {

/// One recorded update in a replayable trace.
struct TraceOp {
  enum Kind : uint8_t { kInsert, kErase } kind;
  // kInsert: the edge. kErase: `ref` is the index of the trace op whose
  // insertion this erase kills (ticket binding happens at replay time).
  vertex_id u = 0, v = 0;
  double w = 0.0;
  uint32_t ref = 0;
};

/// A recorded update stream plus generators for the benchmark
/// workloads.
struct Trace {
  vertex_id num_vertices = 0;
  std::vector<TraceOp> ops;

  /// Number of kInsert ops (for reporting).
  size_t num_inserts() const;

  /// Sliding-window similarity stream (the intro's motivating
  /// workload): `window` live points in 3 drifting blobs; each step
  /// retires the oldest `per_step` points (erasing their edges) and
  /// admits as many new ones (inserting edges to all live points within
  /// the connect radius).
  static Trace sliding_window(int window, int steps, int per_step,
                              double connect_radius, uint64_t seed);

  /// Shard-friendly stream: `groups` independent vertex blocks of size
  /// `block`, random intra-block insert/erase churn, plus a fraction of
  /// cross-block edges. Aligning blocks with shard ranges makes this
  /// the scaling workload for the sharded backend.
  static Trace blocks(int groups, int block, int churn_ops,
                      double cross_fraction, uint64_t seed);
};

/// Knobs for one replay() run.
struct ReplayOptions {
  int reader_threads = 0;
  double tau = 0.5;          // threshold the readers query at
  size_t ops_per_flush = 64; // writer flushes every this many trace ops
  uint64_t query_seed = 1;
  /// Readers hold a ThresholdView per epoch and query it (the amortized
  /// read path); false builds one ThresholdView per call, re-resolving
  /// the merge every time (kept for A/B benchmarking).
  bool amortize_views = true;
};

/// Aggregate timings/counts replay() hands back to the benchmarks.
struct ReplayReport {
  double wall_ms = 0.0;
  uint64_t ops_applied = 0;
  uint64_t epochs_published = 0;
  uint64_t reader_queries = 0;
  double updates_per_s = 0.0;
  double queries_per_s = 0.0;
};

/// Replay `trace` through `svc` (writer = calling thread, flushing every
/// ops_per_flush), with reader_threads issuing mixed threshold /
/// cluster-size / flat-clustering queries against epoch snapshots until
/// the writer finishes. The service must be fresh (no prior updates).
ReplayReport replay(const Trace& trace, SldService& svc,
                    const ReplayOptions& opt);

}  // namespace dynsld::engine
