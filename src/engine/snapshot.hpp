// Immutable epoch snapshot of one shard's dendrogram.
//
// DynSLD answers its §6.1 queries through dynamic trees that splay on
// every access, so a live structure cannot serve concurrent readers.
// Instead the engine freezes the dendrogram between batch flushes into
// a read-only materialization keyed on STABLE SLOTS: a node's slot is
// its dendrogram node id (the edge id DynSLD recycles through its free
// list, so the slot space stays about the live node count). Per slot
// the snapshot stores
//
//   - the node record: endpoints, weight, parent slot, its (at most
//     two) child slots, two leaf bits and the subtree vertex count — a
//     node's leaves (vertices whose minimum incident edge e*_v is the
//     node) are among its own two endpoints, so two bits list them;
//   - the binary-lifting rows 1..levels-1 over parent pointers (row 0
//     is the parent slot itself): because weights increase towards the
//     root, the top cluster node of v at threshold tau ("highest
//     ancestor of e*_v with weight <= tau") descends them in O(log h);
//
// plus, per local vertex, the leaf hook (slot of e*_v), and a chunked
// sorted (weight, slot) sequence — rank order — for the readers that
// need it: num_clusters (O(log m) prefix count), flat_labels (one
// descending pass, parents before children) and the canonical byte
// form the checkpoint codec writes.
//
// Storage is copy-on-write in fixed-size chunks of kChunkEntries slots
// (vertices for the hooks), drawn from per-shard free lists
// (ChunkPool). Consecutive epochs share chunks by reference: the
// incremental builder (engine/contraction.hpp) copies the previous
// epoch's chunk tables, clones only the chunks it writes, and so each
// retained epoch pins only what changed after it. Slot numbers are
// opaque to every reader — answers, labels, member order and codec
// bytes depend only on rank order, never on which ids DynSLD assigned.
//
// The snapshot is data plus the primitives ThresholdView reads
// (top_of, slot_count, members_of, num_clusters, flat_labels); it
// answers no §6.1 query itself — ThresholdView is the one answerer
// over frozen state. Every primitive is const and safe from any number
// of threads. Readers hold the snapshot via shared_ptr, which doubles
// as the epoch reclamation scheme: a superseded snapshot is freed when
// its last reader drops it, returning the chunks no other epoch shares
// to the shard's free lists.
//
// Shard-local vertex spaces: a sharded backend keeps each shard's
// DynamicClustering over local ids [0, stride). The snapshot is built
// with the shard's `base` offset and translates at the boundary — every
// public method takes and returns *global* vertex ids, while the
// internal hook table stays sized to the shard's local range.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "dynsld/dyn_sld.hpp"
#include "graph/types.hpp"

namespace dynsld::persist {
struct SnapshotCodec;  // persist/checkpoint.hpp
}

namespace dynsld::engine {

/// Slots (or vertices) per storage chunk, as a shift. Small chunks keep
/// a patch's private copy proportional to the entries it writes; the
/// per-epoch chunk tables (one pointer per chunk) bound it from below.
inline constexpr uint32_t kChunkShift = 4;
inline constexpr uint32_t kChunkEntries = 1u << kChunkShift;
inline constexpr uint32_t kChunkMask = kChunkEntries - 1;

/// Store of equally sized chunks, one per (shard, chunk kind): the
/// allocations, their free list and a dense refcount per chunk id.
///
/// Refcounts are touched by one thread of control only — the shard's
/// builder, which copies chunk tables into the next epoch and clones
/// what it writes — so they are plain integers in one array, and a
/// table copy costs one increment per chunk in cache-resident memory.
/// A snapshot dropped on any other thread does not decrement: it files
/// its chunk ids in a graveyard under the lock (O(1)), and the builder
/// applies them at its next build (drain()). Once the builder is gone
/// (orphan()), releases decrement directly under the lock.
class ChunkPool {
 public:
  explicit ChunkPool(size_t payload_bytes) : bytes_(payload_bytes) {}
  /// Frees every chunk (no table references the pool any more).
  ~ChunkPool();
  ChunkPool(const ChunkPool&) = delete;
  ChunkPool& operator=(const ChunkPool&) = delete;

  size_t payload_bytes() const { return bytes_; }

  // Builder side (single thread of control, no lock).
  /// A chunk id with one reference and unspecified payload.
  uint32_t alloc();
  char* payload(uint32_t id) const { return chunk_[id]; }
  bool shared(uint32_t id) const { return refs_[id] > 1; }
  /// Add one reference to each chunk.
  void retain(const std::vector<uint32_t>& ids);
  void retain(uint32_t id) { ++refs_[id]; }
  /// Drop one reference; the chunk is recycled at zero.
  void unref(uint32_t id);
  /// Apply the releases filed since the last drain.
  void drain();

  // Any thread.
  /// A table dropping its references (see the class comment).
  void release(std::vector<uint32_t>&& ids);
  /// The builder is gone: apply pending releases, and from now on
  /// release() decrements directly.
  void orphan();

 private:
  size_t bytes_;
  std::vector<char*> chunk_;    // id -> payload
  std::vector<uint32_t> refs_;  // id -> references
  std::vector<uint32_t> free_;  // recycled ids
  std::mutex mu_;
  bool orphaned_ = false;                          // under mu_
  std::vector<std::vector<uint32_t>> graveyard_;  // under mu_
};

/// A copy-on-write array of chunks from one pool. Copying shares every
/// chunk (refcount +1) and is builder-side only; destruction releases
/// the references from any thread.
class ChunkTable {
 public:
  ChunkTable() = default;
  explicit ChunkTable(std::shared_ptr<ChunkPool> pool)
      : pool_(std::move(pool)) {}
  ChunkTable(const ChunkTable& o);
  ChunkTable(ChunkTable&& o) noexcept { swap(o); }
  ChunkTable& operator=(const ChunkTable&) = delete;
  ChunkTable& operator=(ChunkTable&& o) noexcept {
    ChunkTable(std::move(o)).swap(*this);
    return *this;
  }
  /// Releases every reference (ChunkPool::release).
  ~ChunkTable();

  size_t size() const { return id_.size(); }
  const std::shared_ptr<ChunkPool>& pool() const { return pool_; }

  /// Payload of chunk c.
  template <class T>
  const T* data(size_t c) const {
    return reinterpret_cast<const T*>(ptr_[c]);
  }
  /// Entry i of a table whose chunks hold kChunkEntries values of T.
  template <class T>
  const T& at(size_t i) const {
    return data<T>(i >> kChunkShift)[i & kChunkMask];
  }

  // Builder side.
  /// Chunk c, made private to this table first: cloned when another
  /// table still references it.
  template <class T>
  T* own(size_t c) {
    return reinterpret_cast<T*>(own_bytes(c));
  }
  /// Append a fresh private chunk (unspecified payload).
  template <class T>
  T* append() {
    return reinterpret_cast<T*>(append_bytes());
  }
  void reserve(size_t chunks) {
    ptr_.reserve(chunks);
    id_.reserve(chunks);
  }
  /// Append chunks [begin, end) of `from` (same pool), shared.
  void push_shared(const ChunkTable& from, size_t begin, size_t end);
  /// Chunks this table shares with `prev` at the same position.
  size_t shared_with(const ChunkTable& prev) const;

 private:
  void swap(ChunkTable& o) noexcept {
    pool_.swap(o.pool_);
    ptr_.swap(o.ptr_);
    id_.swap(o.id_);
  }
  char* own_bytes(size_t c);
  char* append_bytes();

  std::shared_ptr<ChunkPool> pool_;
  std::vector<char*> ptr_;     // chunk -> payload (the read path)
  std::vector<uint32_t> id_;   // chunk -> pool id (refcounting)
};

/// The frozen dendrogram of one shard at one epoch (see the header
/// comment). Immutable after build(); every method is const and
/// thread-safe. The engine shares untouched shards' snapshots across
/// epochs by pointer — pointer identity IS the cleanliness test the
/// refresh and label-patch machinery rely on.
class DendrogramSnapshot {
 public:
  /// Sentinel slot: "no node" (singleton vertex / no parent).
  static constexpr int32_t kNoSlot = -1;

  /// Freeze the current dendrogram of `sld`. Uses only const accessors;
  /// the caller guarantees no concurrent mutation during the build
  /// (the engine builds under its writer lock). `base` is the global id
  /// of the sld's local vertex 0 (shard-local vertex spaces).
  static std::shared_ptr<const DendrogramSnapshot> build(const DynSLD& sld,
                                                         vertex_id base = 0);

  /// Local vertex count (the shard's range size, not the global n).
  vertex_id num_vertices() const { return n_; }
  /// Global id of local vertex 0.
  vertex_id base() const { return base_; }
  size_t num_nodes() const { return m_; }

  /// Slot of the top cluster node of v at threshold tau, or kNoSlot
  /// when v is a singleton at tau. O(log h).
  int32_t top_of(vertex_id v, double tau) const;

  /// Number of clusters of the shard's subgraph at threshold tau,
  /// singletons included. Each dendrogram node is one MSF edge and
  /// each sub-tau edge merges two clusters, so the count is n minus
  /// the rank sequence's sub-tau prefix — one search over the chunk
  /// index plus one inside a chunk, O(log |nodes|).
  uint64_t num_clusters(double tau) const;

  /// Append the members of slot `top`'s cluster to `out`, depth-first:
  /// a node's own leaves in ascending vertex order, then its children,
  /// higher-ranked child first. O(|cluster|).
  void members_of(int32_t top, std::vector<vertex_id>& out) const;

  /// One shard's flat-label block at threshold tau: canonical labels
  /// over the local vertex range plus the shard's cluster-size
  /// histogram (singletons included). The label of a cluster is the
  /// `u` endpoint of its top node — a member vertex, and a pure
  /// function of (snapshot, tau), so two passes over the same snapshot
  /// agree bit-for-bit. This determinism is what lets the view plane
  /// patch label arrays across epochs instead of rebuilding them
  /// (ThresholdView).
  struct FlatLabels {
    std::vector<vertex_id> label;  // local index -> global canonical label
    std::vector<std::pair<uint64_t, uint64_t>> hist;  // size -> clusters, asc
  };

  /// Build the shard's flat-label block in one linear sweep: a
  /// descending rank pass over the sub-tau nodes resolves every node's
  /// top cluster node (parents rank above their children), then a
  /// vertex pass reads labels off e*_v. O(n + |nodes|) — no per-vertex
  /// binary lifting.
  FlatLabels flat_labels(double tau) const;

  /// Endpoints/weight/vertex-count of a slot (merged-query plumbing;
  /// endpoints are global ids).
  vertex_id slot_u(int32_t s) const { return node(s).u; }
  vertex_id slot_v(int32_t s) const { return node(s).v; }
  double slot_weight(int32_t s) const { return node(s).weight; }
  uint64_t slot_count(int32_t s) const { return node(s).count; }

 private:
  // The checkpoint byte codec converts to and from the canonical
  // rank-ordered form (persist/checkpoint.hpp); the incremental builder
  // patches a chunk-sharing copy of the previous epoch
  // (engine/contraction.hpp).
  friend struct persist::SnapshotCodec;
  friend class ShardContraction;
  DendrogramSnapshot() = default;

  /// The chunk pools one shard's snapshots draw from, held by their
  /// builder: destruction orphans them (ChunkPool::orphan), so the
  /// pools keep serving the snapshots that outlive the builder.
  struct Pools {
    Pools();
    Pools(Pools&&) noexcept = default;
    Pools& operator=(Pools&&) = delete;
    ~Pools();
    /// Apply the releases of snapshots dropped since the last build.
    void drain();
    std::shared_ptr<ChunkPool> node, hook, rank, lift;
    /// Lifting chunks hold levels-1 rows, so their size follows the
    /// table height: the lift pool for `rows` rows, swapped in (and
    /// the previous one orphaned) when the height changed.
    const std::shared_ptr<ChunkPool>& lift_rows(int rows);
  };

  /// Per-slot node record. A free slot has u == kNoVertex.
  struct Node {
    vertex_id u, v;  // global endpoints
    double weight;
    int32_t parent;
    int32_t child[2];  // lower rank first, kNoSlot-padded
    uint32_t leaves;   // bit 0: u hangs off this node (e*_u), bit 1: v
    uint64_t count;    // vertices in the slot's cluster
  };
  static constexpr Node kFreeNode{kNoVertex, kNoVertex, 0.0, kNoSlot,
                                  {kNoSlot, kNoSlot}, 0, 0};
  /// Copy `dn`'s child slots into `nd`, lower rank first.
  static void set_children(Node& nd, const Dendrogram& d,
                           const Dendrogram::Node& dn);
  /// The leaf bit of endpoint `global` (a global id) in `nd`.
  static uint32_t leaf_bit(const Node& nd, vertex_id global) {
    return global == nd.u ? 1u : 2u;
  }
  /// The node's leaves (vertices hooked to it), ascending local ids.
  /// Returns how many of `out` it filled (0..2).
  int leaves_of(const Node& nd, vertex_id out[2]) const;

  /// Rank-sequence chunk: up to kRankCap (weight, slot) keys, sorted.
  static constexpr uint32_t kRankTarget = 16;
  static constexpr uint32_t kRankCap = 2 * kRankTarget;
  struct RankBlock {
    uint32_t n;
    double w[kRankCap];
    int32_t s[kRankCap];
  };
  /// Per-block index entry: the block's last key and the number of
  /// keys in earlier blocks.
  struct RankRef {
    double last_w;
    int32_t last_s;
    uint32_t before;
  };
  static bool rank_less(double wa, int32_t sa, double wb, int32_t sb) {
    return wa < wb || (wa == wb && sa < sb);
  }

  /// The canonical rank-ordered form (slot = rank position, CSR child
  /// and leaf lists, level-major lifting table with row 0 = parent):
  /// the unit the checkpoint codec writes byte-for-byte (its v2
  /// per-shard layout), identical for any two snapshots of the same
  /// dendrogram.
  struct Canonical {
    vertex_id n = 0, base = 0;
    std::vector<vertex_id> u, v;
    std::vector<double> weight;
    std::vector<int32_t> parent;
    std::vector<uint64_t> count;
    std::vector<int32_t> leaf_parent;
    std::vector<uint32_t> child_off, child_list;
    std::vector<uint32_t> leaf_off, leaf_list;
    int levels = 0;
    std::vector<int32_t> up;
  };
  /// Walk rank order and derive the canonical arrays. O(n + m log h).
  Canonical canonical() const;
  /// Rehydrate (slot = rank position); null when `c` is inconsistent.
  static std::shared_ptr<const DendrogramSnapshot> from_canonical(
      const Canonical& c);

  /// Fresh build drawing chunks from `pools` (the builder's free lists).
  static std::shared_ptr<DendrogramSnapshot> build(const DynSLD& sld,
                                                   vertex_id base,
                                                   Pools& pools);

  // Builder-side mutation (the snapshot is still private): entries are
  // reached through ChunkTable::own, so a shared chunk is cloned first.
  Node& node_mut(int32_t s) {
    return nodes_.own<Node>(s >> kChunkShift)[s & kChunkMask];
  }
  int32_t& hook_mut(vertex_id local) {
    return hooks_.own<int32_t>(local >> kChunkShift)
        [local & kChunkMask];
  }
  int32_t& up_mut(int k, int32_t s) {
    return lift_.own<int32_t>(s >> kChunkShift)
        [(k - 1) * kChunkEntries + (s & kChunkMask)];
  }
  /// Allocate the per-vertex hook chunks, all kNoSlot.
  void init_hooks(const std::shared_ptr<ChunkPool>& pool);
  /// Extend the slot tables (free nodes, kNoSlot lifting rows) to cover
  /// `cap` slots.
  void grow_slots(size_t cap);
  /// Re-lay the lifting chunks for `levels` rows: rows both layouts have
  /// are copied, new rows start kNoSlot. Every lifting chunk is fresh.
  void relayout_lift(Pools& pools, int levels);
  /// Row k (k >= 1) over every slot, from row k-1 (`below`: scratch).
  void recompute_row(int k, std::vector<int32_t>& below);

  /// Rank order of the live slots, ascending.
  std::vector<int32_t> rank_order() const;
  /// Replace the rank sequence with `order` (ascending rank).
  void set_rank_order(const std::vector<int32_t>& order,
                      const std::shared_ptr<ChunkPool>& pool);
  /// One (weight, slot) key of the rank sequence.
  struct RankKey {
    double w;
    int32_t s;
  };
  /// Rank sequence of `prev` minus `del` plus `ins` (both sorted
  /// ascending; every `del` key is present). Blocks no edit lands in
  /// are shared with `prev`; touched blocks are rebuilt, merging an
  /// underfull remainder into the next block.
  /// Returns the number of blocks shared.
  size_t edit_rank(const DendrogramSnapshot& prev,
                   const std::vector<RankKey>& del,
                   const std::vector<RankKey>& ins);

  /// Rounds needed to cover chains of `maxd` hops (2^levels - 1 >=
  /// maxd): the fresh build and the patch both size the lifting table
  /// through this formula, from the deepest root-to-node chain.
  static int levels_for_depth(uint32_t maxd) {
    int lv = 1;
    while ((uint32_t{1} << lv) < maxd + 1) ++lv;
    return lv;
  }

  /// Chunks referenced, all tables.
  size_t num_chunks() const {
    return nodes_.size() + hooks_.size() + lift_.size() + rank_.size();
  }
  size_t slot_capacity() const {
    return nodes_.size() << kChunkShift;
  }
  bool live(int32_t s) const {
    return s >= 0 && static_cast<size_t>(s) < slot_capacity() &&
           node(s).u != kNoVertex;
  }
  const Node& node(int32_t s) const { return nodes_.at<Node>(s); }
  int32_t hook(vertex_id local) const { return hooks_.at<int32_t>(local); }
  /// Lifting entry: the 2^k-th ancestor of slot s, or kNoSlot.
  int32_t up(int k, int32_t s) const {
    if (k == 0) return node(s).parent;
    return lift_.data<int32_t>(s >> kChunkShift)
        [(k - 1) * kChunkEntries + (s & kChunkMask)];
  }

  vertex_id n_ = 0;
  vertex_id base_ = 0;
  size_t m_ = 0;    // live nodes
  int levels_ = 0;  // lifting rows, incl. row 0 (the parent slot)
  ChunkTable nodes_;  // per slot: Node
  ChunkTable hooks_;  // per local vertex: slot of e*_v or kNoSlot
  ChunkTable lift_;   // per slot: rows 1..levels_-1, row-major in-chunk
  ChunkTable rank_;   // RankBlock sequence, ascending (weight, slot)
  std::vector<RankRef> rank_ref_;
};

}  // namespace dynsld::engine
