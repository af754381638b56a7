// ThresholdView: one epoch snapshot resolved at one threshold — the
// one answerer of the §6.1 queries over frozen state.
//
//   EngineSnapshot ──> ThresholdView (merge resolved ONCE at tau)
//                        │ same_cluster / cluster_size /
//                        │ cluster_report / flat_clustering /
//                        │ size_histogram / num_clusters / run(Query)
//
// Callers reach it two ways: the QueryBroker (broker.hpp) groups
// submitted queries by (snapshot, tau) and resolves one view per group
// — a pinned batch is a submit() with Pinned{snap} — and a caller that
// wants to hold one pinned threshold itself constructs
// ThresholdView(snap, tau) directly.
//
// A ThresholdView resolves everything tau-dependent up front, exactly
// once: it scans the weight-ascending cross-edge prefix (w <= tau),
// computes the per-shard top cluster node of every cross endpoint
// (O(log h) each), and runs a union-find over those *blobs* — a blob
// being one shard's cluster (shard, top slot) or a cross-touched
// singleton vertex. The flattened result (dense groups with aggregate
// sizes and member-blob lists) is immutable, so any number of threads
// then answer:
//
//   same_cluster   O(log h)         two top_of lookups + group compare
//   cluster_size   O(log h)         one top_of + group aggregate
//   cluster_report O(log h + |S|)   walk the group's blob member lists
//   flat_clustering / size_histogram  O(n) label materialization on a
//                                     fresh view, computed lazily once;
//                                     O(n/K * dirty + X) patched on a
//                                     refreshed view (see below)
//
// The build is O(X log h + X alpha) for X sub-tau cross edges —
// independent of n and of the query count, which is the whole point:
// thousands of queries at one tau share a single merge resolution
// instead of re-deriving it per call (the PR 1 behavior).
//
// Incremental refresh (on demand, when the broker serves a cached tau
// at a newer epoch; broker.hpp): the resolution is a shareable
// immutable block, and ThresholdView::refreshed(prev, snap) carries it
// across epochs proportionally to the published EpochDelta. Per-shard
// snapshot reuse is pointer-identical, so cleanliness needs no
// bookkeeping: a shard whose DendrogramSnapshot pointer is unchanged
// gives identical top_of answers, and its cached endpoint tops are
// reused verbatim. Three refresh grades:
//
//   reused       sub-tau cross prefix unchanged, no resolved endpoint
//                homed in a rebuilt shard -> share the resolution block
//                wholesale (zero work);
//   incremental  prefix unchanged, some endpoints dirty -> recompute
//                tops only for endpoints in rebuilt shards (cache hits
//                for the rest), re-run the cheap blob union-find;
//   full         the sub-tau prefix itself changed (cross churn at or
//                below tau) -> resolve from scratch, as the paper's
//                locality argument no longer applies.
//
// Flat labels carry across epochs the same way. Labels are canonical —
// a cluster's label is a pure function of the shard snapshots and the
// resolution (DendrogramSnapshot::FlatLabels + min-over-group fixups),
// never of traversal order — so a patched array and a from-scratch
// array agree bit-for-bit. refreshed() hands the new view a LabelSeed
// (the previous epoch's materialized label blocks); the first
// flat_clustering()/size_histogram() on the new view then copies the
// previous flat array and re-labels only the vertex ranges of rebuilt
// shards plus the members of cross-merge groups, instead of re-running
// the global O(n) pass: O(n/K * dirty_shards + X) plus one memcpy.
// Per-shard label blocks of clean shards are shared by pointer; the
// size histogram reassembles from per-shard histograms and group sizes
// without touching the O(n) array. EpochDelta::label_patch_viable
// gates the seed: when the rebuilt vertex mass is a majority of n the
// copy stops paying and the view rebuilds (labels_rebuilt vs
// labels_patched vs labels_reused in EngineStats).
#pragma once

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "engine/epoch.hpp"
#include "engine/query.hpp"

namespace dynsld::engine {

/// One epoch resolved at one threshold: the unit of amortization of
/// the read plane. Construction pins the epoch (holds the snapshot
/// shared_ptr) and pays all tau-dependent merge work exactly once;
/// every query afterwards is a pure read on immutable state, safe from
/// any number of threads with no further synchronization — except the
/// two flat materializations, which build lazily once under an
/// internal mutex and are immutable after that.
class ThresholdView {
 public:
  /// Resolve `snap` at threshold tau (one cross-shard union-find
  /// build). To follow a stream, prefer refreshed(), which carries an
  /// older view across epochs incrementally.
  ThresholdView(EpochManager::Snap snap, double tau);

  /// Refresh `prev` onto `snap` (same threshold, newer epoch): shares
  /// or incrementally rebuilds the merge resolution depending on what
  /// the epochs in between actually changed — see the header comment.
  /// Also threads `prev`'s materialized flat labels through as the new
  /// view's patch basis, so a later flat_clustering()/size_histogram()
  /// re-labels only dirty shards and cross groups instead of running
  /// the global pass. Returns `prev` itself when the epoch did not
  /// advance. Thread-safe and never waits behind an in-flight label
  /// materialization in `prev` (it propagates the unconsumed patch
  /// basis instead).
  static std::shared_ptr<const ThresholdView> refreshed(
      const std::shared_ptr<const ThresholdView>& prev,
      EpochManager::Snap snap);

  double tau() const { return tau_; }
  uint64_t epoch() const { return snap_->epoch(); }
  const EngineSnapshot& snapshot() const { return *snap_; }

  // ---- §6.1 queries, all const and thread-safe ----

  /// Are s and t in one cluster at tau()? O(log h).
  bool same_cluster(vertex_id s, vertex_id t) const;
  /// Vertex count of u's cluster at tau(). O(log h).
  uint64_t cluster_size(vertex_id u) const;
  /// All members of u's cluster at tau(). O(log h + |cluster|).
  std::vector<vertex_id> cluster_report(vertex_id u) const;
  /// Canonical label per vertex (equal within a cluster; the label is a
  /// member vertex). Materialized lazily, once per view, and patched
  /// from the previous epoch on refreshed views; the reference stays
  /// valid for the view's lifetime — copy if you outlive it.
  const std::vector<vertex_id>& flat_clustering() const;
  /// Cluster-size distribution at tau(), singletons included. Shares
  /// the flat-label materialization (assembled from per-shard
  /// histograms + cross-group sizes, not from the O(n) array).
  const SizeHistogram& size_histogram() const;

  /// Number of clusters at tau(), singletons included — equal to
  /// size_histogram().num_clusters() but assembled directly from the
  /// per-shard rank-prefix counts corrected by the cross merge
  /// (Σ shard clusters − blobs + groups): O(K log |nodes|), touching
  /// neither histogram bins nor the O(n) label array.
  uint64_t num_clusters() const;

  /// Dispatch one typed query. The view's threshold is authoritative:
  /// the request is answered at tau() regardless of its own tau field
  /// (which only the broker uses, to route each query to the right
  /// view). Passing a mismatched query is a caller bug — asserted in
  /// debug builds; submit through the broker when in doubt.
  QueryResult run(const Query& q) const;

 private:
  // A blob is the unit the cross merge unites: one shard-local cluster
  // (shard, top slot) or a vertex that is a singleton at tau but has a
  // sub-tau cross edge.
  struct Blob {
    int32_t shard;
    int32_t top;    // kNoSlot for a singleton blob
    vertex_id vtx;  // the singleton vertex (unused otherwise)
  };

  /// One shard's share of the resolution: the tops of the cross
  /// endpoints homed here and the interned blobs they induce. Immutable
  /// and pointer-shared across refreshes — THE unit an incremental
  /// refresh swaps: a clean shard's block is reused verbatim (zero hash
  /// inserts, zero top_of calls); only rebuilt shards re-intern.
  struct ShardBlobs {
    std::unordered_map<vertex_id, int32_t> endpoint_top;  // endpoint -> top
    std::unordered_map<int64_t, uint32_t> blob_of;  // slot_key -> local blob
    std::vector<Blob> local;                        // this shard's blobs
  };

  /// Everything the sub-tau cross prefix determines, as one immutable
  /// shareable block: per-shard blob structures, dense global blob
  /// table, and the flattened union-find groups. Null on a view in
  /// trivial mode (no sub-tau cross edge). Global blob id =
  /// blob_base[shard] + local index.
  struct Resolution {
    std::vector<std::shared_ptr<const ShardBlobs>> shard;  // size K
    std::vector<uint32_t> blob_base;                // size K+1, prefix sums
    std::vector<Blob> blobs;                        // global, concatenated
    std::vector<int32_t> blob_group;
    std::vector<uint64_t> group_size;               // per group: vertices
    std::vector<uint32_t> group_off, group_blobs;   // CSR group -> blobs
  };

  /// Adopt an already-built (shared or incrementally rebuilt)
  /// resolution for a new epoch; used only by refreshed().
  ThresholdView(EpochManager::Snap snap, double tau,
                std::shared_ptr<const Resolution> res);

  /// Build the resolution of `es` at tau. With `prev`/`shard_clean`,
  /// clean shards' ShardBlobs are shared by pointer (lookups only, no
  /// interning) and only rebuilt shards' endpoints pay O(log h) tops —
  /// the incremental path; the blob union-find re-runs either way.
  static std::shared_ptr<const Resolution> resolve(
      const EngineSnapshot& es, double tau, const Resolution* prev,
      const std::vector<char>* shard_clean);

  static int64_t slot_key(int32_t top, vertex_id vtx);

  /// Group of vertex x's blob, or -1 when no sub-tau cross edge touches
  /// it (the blob then IS the cluster). Also yields shard and top slot.
  int32_t resolve_vertex(vertex_id x, int& shard, int32_t& top) const;

  /// The materialized flat-label state: per-shard label blocks (clean
  /// shards share theirs across refreshes by pointer), the flat global
  /// array with cross-group fixups applied, and the assembled size
  /// histogram. Immutable once built.
  struct LabelSet {
    std::vector<std::shared_ptr<const DendrogramSnapshot::FlatLabels>> shard;
    std::vector<vertex_id> flat;  // size n; canonical label per vertex
    SizeHistogram hist;
  };

  /// Patch basis a refreshed view inherits: the epoch the labels were
  /// materialized against (shard cleanliness is pointer identity vs its
  /// shards), the label blocks themselves, and that epoch's resolution
  /// (whose group fixups the patch must undo). Propagated unchanged
  /// through views that never materialize labels, so a chain of
  /// refreshes patches against the last epoch that actually did.
  struct LabelSeed {
    EpochManager::Snap origin;
    std::shared_ptr<const LabelSet> labels;
    std::shared_ptr<const Resolution> res;  // origin's (null in trivial mode)
  };

  /// Materialize the labels of `es` at tau. With a seed, clean shards'
  /// label blocks are shared and the flat array is patched (copy, then
  /// re-label dirty ranges, undo the seed resolution's group fixups,
  /// apply `res`'s); without one — or when the dirty vertex mass makes
  /// patching a loss — every shard re-labels and fixups apply to a
  /// fresh concatenation.
  static std::shared_ptr<const LabelSet> build_labels(const EngineSnapshot& es,
                                                      double tau,
                                                      const Resolution* res,
                                                      const LabelSeed* seed);

  /// This view as a patch basis: its own labels if materialized, else
  /// the seed it inherited (possibly null). Takes only labels_mu_ (the
  /// pointer lock), so callers — including refreshed() on the flushing
  /// thread — never wait behind an in-flight materialization.
  std::shared_ptr<const LabelSeed> label_seed() const;

  /// The lazily materialized label state (flat_clustering and
  /// size_histogram both land here). Builders serialize on
  /// labels_build_mu_ and run with labels_mu_ released; labels_mu_
  /// guards only the labels_/seed_ pointer swap.
  const LabelSet& label_set() const;

  EpochManager::Snap snap_;
  double tau_ = 0.0;
  std::shared_ptr<const Resolution> res_;  // null => trivial mode
  mutable std::mutex labels_mu_;        // pointer lock: labels_ + seed_
  mutable std::mutex labels_build_mu_;  // serializes materializations
  mutable std::shared_ptr<const LabelSet> labels_;
  mutable std::shared_ptr<const LabelSeed> seed_;  // consumed by label_set()
};

}  // namespace dynsld::engine
