// The three workloads and the metric catalogue they report from.
#pragma once

#include <string>
#include <vector>

#include "workload.hpp"

namespace perfbench {

void run_ingest(Pass& p);
void run_serve(Pass& p);
void run_window(Pass& p);

struct MetricDef {
  const char* name;
  const char* unit;
  bool higher_better;
};

/// End-to-end metrics: every workload measures each of them on its own
/// traffic, in untraced passes only. Only figures that repeated within a
/// tenth from run to run on every workload are here; the query
/// latencies and the p99 tails did not and are per-layer (README.md).
inline const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> m = {
      {"update_throughput", "1/s", true},
      {"visibility_p50_ms", "ms", false},
      {"setup_s", "s", false},
      {"peak_rss_mb", "MB", false},
  };
  return m;
}

/// Per-layer metrics of the traced pass. A metric whose layer does no
/// work on a workload reads 0 there and its log line says "n/a".
inline const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> m = {
      // engine.mutation_queue
      {"mq.enqueue_ns.p50", "ns", false},
      {"mq.enqueue_ns.p99", "ns", false},
      {"mq.coalesced_share", "ratio", false},
      {"flush.drain_ms.p50", "ms", false},
      // engine.shard_router apply (msf + dynsld)
      {"flush.apply_ms.p50", "ms", false},
      {"flush.apply_ms.p99", "ms", false},
      {"router.cross_share", "ratio", false},
      {"dynsld.pointer_writes_per_update", "count", false},
      {"dynsld.spine_nodes_per_update", "count", false},
      {"dynsld.connectivity_queries_per_update", "count", false},
      {"dynsld.pws_queries_per_update", "count", false},
      {"dynsld.index_ops_per_update", "count", false},
      // engine.contraction / engine.snapshot
      {"flush.shards_ms.p50", "ms", false},
      {"flush.shards_ms.p99", "ms", false},
      {"snapshot.patched_share", "ratio", true},
      {"snapshot.fallbacks", "count", false},
      {"contraction.rerun_share", "ratio", false},
      {"contraction.nodes_patched_per_flush", "count", false},
      // engine: cross table + epoch publish
      {"flush.cross_ms.p99", "ms", false},
      {"flush.wall_ms.p50", "ms", false},
      {"flush.wall_ms.p99", "ms", false},
      {"flush.outside_trace_ms.p50", "ms", false},
      // engine.broker / cluster_view / subscription
      {"broker.rtt_us.p50", "us", false},
      {"broker.rtt_us.p99", "us", false},
      {"broker.group_size", "count", true},
      {"broker.resolutions_per_epoch", "count", false},
      {"broker.epoch_waits", "count", false},
      {"broker.rejects", "count", false},
      {"view.cross_uf_full_share", "ratio", false},
      {"view.refresh_full_share", "ratio", false},
      {"labels.patched_share", "ratio", true},
      // net
      {"net.rtt_us.p50", "us", false},
      {"net.rtt_us.p99", "us", false},
      {"net.tax_us.p50", "us", false},
      {"net.bytes_per_query", "B", false},
      {"net.frame_rejects", "count", false},
      // net.replication
      {"repl.lag_ms.p50", "ms", false},
      {"repl.lag_ms.p99", "ms", false},
      {"repl.records_applied", "count", true},
      // persist
      {"wal.bytes_per_update", "B", false},
      {"wal.fsyncs_per_epoch", "count", false},
      {"ckpt.count", "count", false},
      {"persist.recovery_replayed", "count", false},
      // user-visible figures too unsteady across runs to gate on
      {"visibility_p99_ms", "ms", false},
      {"query_p50_us", "us", false},
      {"query_p99_us", "us", false},
      {"query_throughput", "1/s", true},
      // workload-scoped end-to-end figures (not every workload has them)
      {"query_capacity", "1/s", true},
      {"query_failed_share", "ratio", false},
      {"replica_visibility_p50_ms", "ms", false},
      {"replica_visibility_p99_ms", "ms", false},
      {"recovery_s", "s", false},
      {"disk_bytes_per_update", "B", false},
      // open-loop generator health
      {"gen.lateness_ms.p99", "ms", false},
      {"backlog.pending_updates.start", "count", false},
      {"backlog.pending_updates.end", "count", false},
      {"backlog.broker_depth.start", "count", false},
      {"backlog.broker_depth.end", "count", false},
      // traffic shape
      {"shape.n", "count", false},
      {"shape.live_edges", "count", false},
      {"shape.msf_edges", "count", false},
      {"shape.cross_edge_share", "ratio", false},
      {"shape.h", "count", false},
      {"shape.ops_per_flush", "count", false},
      {"shape.patch_flush_share", "ratio", true},
      {"shape.erase_share", "ratio", false},
      // obs: traced pass against the untraced pass of the same run
      {"trace.overhead_pct.update_throughput", "%", false},
      {"trace.overhead_pct.visibility_p50_ms", "%", false},
      {"trace.overhead_pct.query_p50_us", "%", false},
      {"trace.overhead_pct.setup_s", "%", false},
  };
  return m;
}

}  // namespace perfbench
