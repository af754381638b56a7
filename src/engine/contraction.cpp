#include "engine/contraction.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace dynsld::engine {

namespace {

constexpr int32_t kNoSlot = DendrogramSnapshot::kNoSlot;

// Slot stamps (ShardContraction::mark_).
constexpr uint8_t kMarkAdded = 1;    // added this epoch (alive)
constexpr uint8_t kMarkRemoved = 2;  // live in prev, removed this epoch
constexpr uint8_t kMarkSeen = 4;     // journal dedup of re-parentings
constexpr uint8_t kMarkActive = 8;   // in the changed set or below it
constexpr uint8_t kMarkKids = 16;    // child slots rewritten
constexpr uint8_t kMarkDirty = 32;   // counts/heights recomputed
constexpr uint8_t kMarkRoots = 64;   // root histogram re-filed

int32_t slot_of(edge_id e) {
  return e == kNoEdge ? kNoSlot : static_cast<int32_t>(e);
}

}  // namespace

std::shared_ptr<const DendrogramSnapshot> ShardContraction::advance(
    DynSLD& sld, vertex_id base, const DendrogramSnapshot* prev,
    PatchStats& out) {
  out = PatchStats{};
  pools_.drain();  // recycle what dropped epochs released since last time
  if (!incremental_) return DendrogramSnapshot::build(sld, base, pools_);
  const Dendrogram::Journal& j = sld.structure_journal();
  // An empty previous shard (cold start, epoch 0) rebuilds without
  // counting as a viability fallback — there was nothing to patch.
  if (last_ && prev == last_.get() && prev->num_nodes() > 0 && j.enabled &&
      !j.overflowed) {
    if (auto snap = try_patch(sld, base, *prev, out)) return snap;
    out = PatchStats{};
    out.fallback = true;
  }
  return rebuild(sld, base);
}

std::shared_ptr<const DendrogramSnapshot> ShardContraction::rebuild(
    DynSLD& sld, vertex_id base) {
  std::shared_ptr<const DendrogramSnapshot> snap =
      DendrogramSnapshot::build(sld, base, pools_);
  adopt(sld, snap);
  return snap;
}

void ShardContraction::adopt(DynSLD& sld,
                             std::shared_ptr<const DendrogramSnapshot> snap) {
  const DendrogramSnapshot& s = *snap;
  height_.assign(s.slot_capacity(), 0);
  root_hist_.clear();
  for (int32_t x : s.rank_order()) {  // children rank below parents
    const int32_t p = s.node(x).parent;
    if (p != kNoSlot) {
      height_[p] = std::max(height_[p], height_[x] + 1);
    } else {
      if (root_hist_.size() <= height_[x]) root_hist_.resize(height_[x] + 1);
      ++root_hist_[height_[x]];
    }
  }
  sld.enable_structure_journal(journal_cap(s.num_nodes()));
  last_ = std::move(snap);
}

std::shared_ptr<const DendrogramSnapshot> ShardContraction::try_patch(
    DynSLD& sld, vertex_id base, const DendrogramSnapshot& prev,
    PatchStats& out) {
  const Dendrogram& d = sld.dendrogram();
  const Dendrogram::Journal& j = sld.structure_journal();
  const size_t m_old = prev.num_nodes();
  assert(base == prev.base());

  const size_t cap = std::max(d.capacity(), prev.slot_capacity());
  if (mark_.size() < cap) mark_.resize(cap, 0);
  marked_.clear();
  auto mark = [&](int32_t x, uint8_t bit) {
    if (!mark_[x]) marked_.push_back(x);
    mark_[x] |= bit;
  };
  // Every exit clears the stamps it set.
  struct Unmark {
    std::vector<uint8_t>& mark;
    std::vector<int32_t>& marked;
    ~Unmark() {
      for (int32_t x : marked) mark[x] = 0;
    }
  } unmark{mark_, marked_};

  // 1. Reconcile the raw journal into disjoint edit sets against the
  //    live dendrogram: `added` = journal-added ids still alive;
  //    `removed` = slots live in prev whose node died (including the
  //    old incarnation of re-added ids); `reparented` = survivors whose
  //    parent pointer was written.
  std::vector<int32_t> added, removed, reparented;
  for (edge_id e : j.added) {
    const int32_t x = slot_of(e);
    if (d.alive(e) && !(mark_[x] & kMarkAdded)) {
      mark(x, kMarkAdded);
      added.push_back(x);
    }
  }
  for (const Dendrogram::Journal::Removed& r : j.removed) {
    const int32_t x = slot_of(r.e);
    if (prev.live(x) && !(mark_[x] & kMarkRemoved)) {
      mark(x, kMarkRemoved);
      removed.push_back(x);
    }
  }
  // The raw reparent log runs into the thousands for a small batch
  // (erase replacements rewrite parents transiently): stamps dedup it.
  for (edge_id e : j.parent_changed) {
    const int32_t x = slot_of(e);
    if (!d.alive(e) || (mark_[x] & (kMarkAdded | kMarkSeen))) continue;
    mark(x, kMarkSeen);
    reparented.push_back(x);
  }

  // Exact viability, re-verified at materialization (the journal cap
  // was only a loose pre-filter): a patch touching half the shard
  // cannot beat the rebuild — same shape as label_patch_viable.
  const size_t changed_n = added.size() + removed.size() + reparented.size();
  if (2 * changed_n >= m_old) return nullptr;
  // Integrity: the reconciled sets must account for the live node count
  // exactly, and every re-parented survivor must have existed before;
  // anything else means a missed write.
  const size_t m = m_old - removed.size() + added.size();
  if (m != d.size()) return nullptr;
  for (int32_t x : reparented)
    if (!prev.live(x)) return nullptr;

  auto snap = std::shared_ptr<DendrogramSnapshot>(new DendrogramSnapshot());
  DendrogramSnapshot& s = *snap;
  s.n_ = prev.n_;
  s.base_ = base;
  s.m_ = m;
  s.levels_ = prev.levels_;
  s.nodes_ = ChunkTable(prev.nodes_);  // shared; written copy-on-write
  s.hooks_ = ChunkTable(prev.hooks_);
  s.lift_ = ChunkTable(prev.lift_);
  s.grow_slots(d.capacity());
  if (height_.size() < s.slot_capacity()) height_.resize(s.slot_capacity(), 0);

  // 2. Node records. `changed` = slots whose parent differs from the
  //    previous epoch's (added nodes included): the contraction rounds'
  //    seeds. A survivor whose parent id was freed and re-added this
  //    epoch has a new parent node under the same slot, so it counts
  //    as changed too.
  std::vector<int32_t> changed;
  changed.reserve(added.size() + reparented.size());
  for (int32_t x : removed)
    if (!(mark_[x] & kMarkAdded))
      s.node_mut(x) = DendrogramSnapshot::kFreeNode;
  for (int32_t x : added) {
    const Dendrogram::Node& dn = d.node(x);
    DendrogramSnapshot::Node& nd = s.node_mut(x);
    nd = DendrogramSnapshot::Node{dn.u + base, dn.v + base, dn.weight,
                                  slot_of(dn.parent), {kNoSlot, kNoSlot},
                                  0, 0};
    DendrogramSnapshot::set_children(nd, d, dn);
    changed.push_back(x);
  }
  // Journaled parent writes mostly cancel out over a batch: an erase
  // replacement detaches and reattaches whole subtrees transiently, so
  // the raw reparent list runs 10-100x larger than the net edit.
  for (int32_t x : reparented) {
    const int32_t np = slot_of(d.node(x).parent);
    if (np == prev.node(x).parent &&
        (np == kNoSlot || !(mark_[np] & kMarkAdded)))
      continue;
    s.node_mut(x).parent = np;
    changed.push_back(x);
  }
  // Child slots: every node that gained or lost a child re-reads its
  // pair from the dendrogram (added nodes already did).
  std::vector<int32_t> kids;
  auto kid_dirty = [&](int32_t p) {
    if (p == kNoSlot || !d.alive(p) || (mark_[p] & (kMarkAdded | kMarkKids)))
      return;
    mark(p, kMarkKids);
    kids.push_back(p);
  };
  for (int32_t x : changed) {
    if (prev.live(x)) kid_dirty(prev.node(x).parent);
    kid_dirty(s.node(x).parent);
  }
  for (int32_t x : removed) kid_dirty(prev.node(x).parent);
  for (int32_t p : kids) {
    DendrogramSnapshot::set_children(s.node_mut(p), d, d.node(p));
  }

  // Leaf hooks: re-resolve only vertices whose incident edge set
  // changed (the endpoints of added/removed nodes). A moved hook
  // changes the leaf counts of its old and new node.
  std::vector<int32_t> hooked;
  if (vmark_.size() < s.n_) vmark_.resize(s.n_, 0);
  std::vector<vertex_id> vtouched;
  auto retop = [&](vertex_id v) {
    // Endpoints shared by several edits re-resolve once — each resolve
    // splays inside the dynamic forest, so the stamp saves real work.
    if (vmark_[v]) return;
    vmark_[v] = 1;
    vtouched.push_back(v);
    const int32_t now = slot_of(sld.min_incident_edge(v));
    const int32_t was = prev.hook(v);
    if (now == was) return;
    s.hook_mut(v) = now;
    // Leaf bits move with the hook (added nodes are re-derived below).
    if (was != kNoSlot && d.alive(was)) {
      if (!(mark_[was] & kMarkAdded)) {
        DendrogramSnapshot::Node& nd = s.node_mut(was);
        nd.leaves &= ~DendrogramSnapshot::leaf_bit(nd, v + base);
      }
      hooked.push_back(was);
    }
    if (now != kNoSlot) {
      if (!(mark_[now] & kMarkAdded)) {
        DendrogramSnapshot::Node& nd = s.node_mut(now);
        nd.leaves |= DendrogramSnapshot::leaf_bit(nd, v + base);
      }
      hooked.push_back(now);
    }
  };
  for (const Dendrogram::Journal::Removed& r : j.removed) {
    retop(r.u);
    retop(r.v);
  }
  for (int32_t x : added) {
    const Dendrogram::Node& dn = d.node(x);
    retop(dn.u);
    retop(dn.v);
  }
  for (const vertex_id v : vtouched) vmark_[v] = 0;
  for (int32_t x : added) {
    DendrogramSnapshot::Node& nd = s.node_mut(x);
    nd.leaves = (s.hook(nd.u - base) == x ? 1u : 0u) |
                (s.hook(nd.v - base) == x ? 2u : 0u);
  }

  // 3. Counts and heights, propagated upward from the nodes whose own
  //    inputs changed (new records, child sets, leaf sets) in rank
  //    order — children rank below their parents, so a min-heap on rank
  //    finishes every child before its parent — and only as far as a
  //    value actually moves: where a moved subtree's loss and gain meet,
  //    the counts above are unchanged and the walk stops. The root
  //    histogram re-files the nodes whose root status may have moved
  //    (the changed and removed slots) and every root whose height did.
  using RankKey = DendrogramSnapshot::RankKey;
  auto by_rank = [](const RankKey& a, const RankKey& b) {
    return DendrogramSnapshot::rank_less(a.w, a.s, b.w, b.s);
  };
  auto refile = [&](int32_t x, int delta) {
    const uint32_t h = height_[x];
    if (delta > 0) {
      if (root_hist_.size() <= h) root_hist_.resize(h + 1, 0);
      ++root_hist_[h];
    } else {
      --root_hist_[h];
    }
  };
  for (std::vector<int32_t>* set : {&changed, &removed})
    for (int32_t x : *set) {
      if (mark_[x] & kMarkRoots) continue;
      mark(x, kMarkRoots);
      if (prev.live(x) && prev.node(x).parent == kNoSlot) refile(x, -1);
    }
  for (int32_t x : removed)
    if (!(mark_[x] & kMarkAdded)) height_[x] = 0;
  std::vector<RankKey> heap;  // min-heap on rank (inverted comparator)
  auto heap_after = [&](const RankKey& a, const RankKey& b) {
    return by_rank(b, a);
  };
  auto dirty = [&](int32_t x) {
    if (x == kNoSlot || (mark_[x] & kMarkDirty)) return;
    mark(x, kMarkDirty);
    heap.push_back({s.node(x).weight, x});
    std::push_heap(heap.begin(), heap.end(), heap_after);
  };
  for (int32_t x : added) dirty(x);
  for (int32_t x : kids) dirty(x);
  for (int32_t x : hooked) dirty(x);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), heap_after);
    const int32_t x = heap.back().s;
    heap.pop_back();
    const DendrogramSnapshot::Node& nd = s.node(x);
    uint64_t count = (nd.leaves & 1) + (nd.leaves >> 1);
    uint32_t h = 0;
    for (int32_t c : nd.child) {
      if (c == kNoSlot) continue;
      count += s.node(c).count;
      h = std::max(h, height_[c] + 1);
    }
    const int32_t p = nd.parent;
    const bool moved = count != nd.count || h != height_[x];
    if (h != height_[x] && p == kNoSlot && !(mark_[x] & kMarkRoots)) {
      refile(x, -1);
      height_[x] = h;
      refile(x, +1);
    }
    height_[x] = h;
    if (count != nd.count) s.node_mut(x).count = count;
    if (moved) dirty(p);
  }
  for (int32_t x : changed)
    if (s.node(x).parent == kNoSlot) refile(x, +1);
  while (!root_hist_.empty() && root_hist_.back() == 0) root_hist_.pop_back();
  const uint32_t maxd =
      root_hist_.empty() ? 0 : static_cast<uint32_t>(root_hist_.size() - 1);

  // 4. Lifting table, the contraction rounds proper. Entry (k, x) is
  //    kept from the previous epoch iff x's first 2^k hops avoid every
  //    changed node — then the landing ancestor is the same node. The
  //    others are the changed set's descendants within 2^k - 1 hops,
  //    grown here one child layer per hop (each node is reached once,
  //    from its parent, so the walk is linear in what it visits).
  const int lv_old = prev.levels_;
  const int lv_new = DendrogramSnapshot::levels_for_depth(maxd);
  if (lv_new != lv_old) s.relayout_lift(pools_, lv_new);
  const int kcopy = std::min(lv_new, lv_old);
  out.rounds_total = static_cast<uint32_t>(lv_new);
  out.nodes_patched = changed.size();  // round-0 writes (parent slots)
  bfs_.clear();
  for (int32_t x : changed) {
    mark(x, kMarkActive);
    bfs_.push_back(x);
  }
  size_t layer_begin = 0;  // bfs_[layer_begin..] = the deepest layer
  uint32_t reach = 0;      // bfs_ holds every x with dist(x) <= reach
  bool whole = false;
  for (int k = 1; k < lv_new; ++k) {
    bool rerun = whole || k >= kcopy;  // no previous row at this height
    if (!rerun) {
      const uint32_t want = (uint32_t{1} << k) - 1;
      while (reach < want && layer_begin < bfs_.size() &&
             2 * bfs_.size() < m) {
        const size_t layer_end = bfs_.size();
        for (size_t i = layer_begin; i < layer_end; ++i) {
          for (int32_t c : s.node(bfs_[i]).child) {
            if (c == kNoSlot || (mark_[c] & kMarkActive)) continue;
            mark(c, kMarkActive);
            bfs_.push_back(c);
          }
        }
        layer_begin = layer_end;
        ++reach;
      }
      // Once the active set covers half the shard, one recompute pass
      // beats patching half the entries one by one.
      rerun = whole = 2 * bfs_.size() >= m;
    }
    if (rerun) {
      s.recompute_row(k, below_);
      ++out.rounds_rerun;
      out.nodes_patched += m;
      continue;
    }
    for (int32_t x : bfs_) {
      const int32_t half = s.up(k - 1, x);
      const int32_t val = half == kNoSlot ? kNoSlot : s.up(k - 1, half);
      if (val != s.up(k, x)) s.up_mut(k, x) = val;
    }
    out.nodes_patched += bfs_.size();
  }

  // 5. Rank sequence: removed keys out (at their old weight), added
  //    keys in.
  std::vector<RankKey> del, ins;
  del.reserve(removed.size());
  ins.reserve(added.size());
  for (int32_t x : removed) del.push_back({prev.node(x).weight, x});
  for (int32_t x : added) ins.push_back({s.node(x).weight, x});
  std::sort(del.begin(), del.end(), by_rank);
  std::sort(ins.begin(), ins.end(), by_rank);
  const size_t rank_shared = s.edit_rank(prev, del, ins);

  // Sharing, counted by identity: every chunk of the new snapshot that
  // is not the previous epoch's own was written by this patch.
  out.chunks_shared = s.nodes_.shared_with(prev.nodes_) +
                      s.hooks_.shared_with(prev.hooks_) +
                      s.lift_.shared_with(prev.lift_) + rank_shared;
  out.chunks_cloned = s.num_chunks() - out.chunks_shared;

  // Re-arm for the next epoch.
  out.patched = true;
  sld.enable_structure_journal(journal_cap(m));
  last_ = snap;
  return snap;
}

}  // namespace dynsld::engine
