// Incremental per-shard snapshot builds: change propagation over the
// stable-slot, chunk-shared DendrogramSnapshot.
//
// The paper's updates cost time in proportion to the part of the
// dendrogram a batch touches; a flush should too. Snapshot slots are
// dendrogram node ids (engine/snapshot.hpp), so a node that did not
// change keeps its slot, its record and every lifting entry whose
// chain avoids the change, wherever the rest of the shard's nodes
// moved in rank. A patched build therefore starts from a chunk-sharing copy
// of the previous epoch's snapshot (pointer-table copies, no payload)
// and writes only what the batch changed, cloning each chunk it writes
// once:
//
//   1. reconcile the dendrogram's structural-change journal — raw node
//      adds / removes / re-parentings recorded by the batch algorithms
//      themselves — against the live dendrogram into disjoint added /
//      removed / net-re-parented node sets, and re-check patch
//      viability exactly (too much churn falls back to the fresh
//      build, like `label_patch_viable` is re-verified when labels
//      materialize);
//   2. write the added, freed and re-parented node records, the child
//      slots of every node that gained or lost a child, and the leaf
//      hooks of the vertices whose incident edge set changed;
//   3. propagate subtree counts and heights upward from the nodes whose
//      own inputs changed, in rank order and only as far as a value
//      moves; a per-height histogram of the roots yields the deepest
//      chain, hence the lifting table's height, without an O(m) depth
//      sweep;
//   4. run the contraction rounds: entry (k, x) of the lifting table is
//      recomputed only when a changed node sits within 2^k hops above x
//      — the changed set's descendants to that depth, found by walking
//      down the child slots one layer per hop. Once a round's active
//      set reaches half the shard, the whole round re-runs instead;
//   5. apply the added/removed keys to the rank sequence, sharing every
//      block no key lands in.
//
// The output is answer- and byte-identical to DendrogramSnapshot::build
// on the same dendrogram: entries outside the recomputed sets provably
// equal the fresh values (an entry's 2^k-hop chain that avoids every
// changed node lands on the same ancestor as last epoch), and the codec
// derives the canonical rank-ordered bytes from either. The engine's
// fuzz harness pins this byte-for-byte through SnapshotCodec across
// randomized schedules, including through persist::recover().
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/snapshot.hpp"
#include "graph/types.hpp"

namespace dynsld::engine {

/// One shard's incremental snapshot builder (see the header comment).
/// Owned by ShardRouter next to the shard's DynamicClustering; NOT
/// thread-safe (the router builds each shard from one task).
class ShardContraction {
 public:
  /// Outcome of one advance(), surfaced into EpochDelta / EngineStats.
  struct PatchStats {
    bool patched = false;        // false: fresh rebuild
    bool fallback = false;       // viability re-check failed at
                                 // materialization (counted rebuilt)
    uint32_t rounds_total = 0;   // lifting rounds in the new table
    uint32_t rounds_rerun = 0;   // rounds recomputed whole, not patched
    uint64_t nodes_patched = 0;  // per-round node entries recomputed
    uint64_t chunks_cloned = 0;  // chunks the patch wrote (clones + new)
    uint64_t chunks_shared = 0;  // chunks shared with the previous epoch
  };

  /// `incremental` off = always delegate to the fresh build and never
  /// enable the journal (the zero-overhead baseline the benchmark and
  /// the fuzz twin-service compare against).
  explicit ShardContraction(bool incremental) : incremental_(incremental) {}

  /// Produce this shard's snapshot for the epoch being built. `prev` is
  /// the shard snapshot of the previous epoch (nullptr at epoch 0);
  /// patching engages only when it is the exact snapshot this builder
  /// produced last (pointer identity — the same cleanliness test the
  /// rest of the engine uses) and the journal stayed within its cap.
  /// Consumes and re-arms the dendrogram's structural-change journal.
  std::shared_ptr<const DendrogramSnapshot> advance(
      DynSLD& sld, vertex_id base, const DendrogramSnapshot* prev,
      PatchStats& out);

 private:
  std::shared_ptr<const DendrogramSnapshot> rebuild(DynSLD& sld,
                                                    vertex_id base);
  /// The patch path; returns nullptr when the exact viability or
  /// integrity checks fail (caller falls back to rebuild()).
  std::shared_ptr<const DendrogramSnapshot> try_patch(
      DynSLD& sld, vertex_id base, const DendrogramSnapshot& prev,
      PatchStats& out);

  /// Journal cap for the next epoch: past this many raw entries a patch
  /// cannot win, so the journal stops logging (loose pre-filter; the
  /// exact check runs at materialization).
  static size_t journal_cap(size_t m) { return 2 * m + 64; }

  /// Re-arm after a fresh build: derive the subtree heights and the
  /// root-height histogram of `snap`, enable the journal.
  void adopt(DynSLD& sld, std::shared_ptr<const DendrogramSnapshot> snap);

  bool incremental_;
  /// The shard's chunk free lists (shared with every snapshot built).
  DendrogramSnapshot::Pools pools_;
  /// The snapshot built last; pointer identity = validity of the state
  /// below, which describes exactly this snapshot.
  std::shared_ptr<const DendrogramSnapshot> last_;
  std::vector<uint32_t> height_;     // slot -> subtree height (node hops)
  std::vector<uint32_t> root_hist_;  // height -> roots of that height

  // Reusable scratch (sized to the shard, allocated once).
  std::vector<uint8_t> mark_;   // slot stamps (kMark* bits), cleared after use
  std::vector<uint8_t> vmark_;  // vertex stamps: e*_v re-resolved
  std::vector<int32_t> marked_;  // slots with a nonzero stamp
  std::vector<int32_t> bfs_;     // changed set + descendants, by hop count
  std::vector<int32_t> below_;   // whole-round recompute: the row below
};

}  // namespace dynsld::engine
