#include "engine/snapshot.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <map>
#include <new>

namespace dynsld::engine {

namespace {

constexpr int32_t kNoSlot = DendrogramSnapshot::kNoSlot;

int32_t slot_of(edge_id e) {
  return e == kNoEdge ? kNoSlot : static_cast<int32_t>(e);
}

void fill_slots(int32_t* c, size_t ints) { std::fill_n(c, ints, kNoSlot); }

}  // namespace

// ---- ChunkPool / ChunkTable ------------------------------------------

ChunkPool::~ChunkPool() {
  for (char* p : chunk_) ::operator delete(p);
}

uint32_t ChunkPool::alloc() {
  uint32_t id;
  if (!free_.empty()) {
    id = free_.back();
    free_.pop_back();
  } else {
    id = static_cast<uint32_t>(chunk_.size());
    chunk_.push_back(static_cast<char*>(::operator new(bytes_)));
    refs_.push_back(0);
  }
  refs_[id] = 1;
  return id;
}

void ChunkPool::retain(const std::vector<uint32_t>& ids) {
  for (uint32_t id : ids) ++refs_[id];
}

void ChunkPool::unref(uint32_t id) {
  if (--refs_[id] == 0) free_.push_back(id);
}

void ChunkPool::drain() {
  std::vector<std::vector<uint32_t>> dead;
  {
    std::lock_guard<std::mutex> lk(mu_);
    dead.swap(graveyard_);
  }
  for (const std::vector<uint32_t>& ids : dead)
    for (uint32_t id : ids) unref(id);
}

void ChunkPool::release(std::vector<uint32_t>&& ids) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!orphaned_) {
    graveyard_.push_back(std::move(ids));
    return;
  }
  for (uint32_t id : ids) unref(id);
}

void ChunkPool::orphan() {
  std::lock_guard<std::mutex> lk(mu_);
  orphaned_ = true;
  for (const std::vector<uint32_t>& ids : graveyard_)
    for (uint32_t id : ids) unref(id);
  graveyard_.clear();
}

ChunkTable::ChunkTable(const ChunkTable& o)
    : pool_(o.pool_), ptr_(o.ptr_), id_(o.id_) {
  if (pool_) pool_->retain(id_);
}

ChunkTable::~ChunkTable() {
  if (!id_.empty()) pool_->release(std::move(id_));
}

char* ChunkTable::own_bytes(size_t c) {
  const uint32_t old = id_[c];
  if (!pool_->shared(old)) return ptr_[c];  // already private
  const uint32_t id = pool_->alloc();
  char* fresh = pool_->payload(id);
  std::memcpy(fresh, ptr_[c], pool_->payload_bytes());
  pool_->unref(old);
  id_[c] = id;
  ptr_[c] = fresh;
  return fresh;
}

char* ChunkTable::append_bytes() {
  const uint32_t id = pool_->alloc();
  id_.push_back(id);
  ptr_.push_back(pool_->payload(id));
  return ptr_.back();
}

size_t ChunkTable::shared_with(const ChunkTable& prev) const {
  size_t n = 0;
  for (size_t c = 0; c < std::min(size(), prev.size()); ++c)
    n += id_[c] == prev.id_[c];
  return n;
}

void ChunkTable::push_shared(const ChunkTable& from, size_t begin,
                             size_t end) {
  for (size_t c = begin; c < end; ++c) pool_->retain(from.id_[c]);
  id_.insert(id_.end(), from.id_.begin() + begin, from.id_.begin() + end);
  ptr_.insert(ptr_.end(), from.ptr_.begin() + begin, from.ptr_.begin() + end);
}

DendrogramSnapshot::Pools::Pools()
    : node(std::make_shared<ChunkPool>(kChunkEntries * sizeof(Node))),
      hook(std::make_shared<ChunkPool>(kChunkEntries * sizeof(int32_t))),
      rank(std::make_shared<ChunkPool>(sizeof(RankBlock))) {}

DendrogramSnapshot::Pools::~Pools() {
  for (const auto& p : {node, hook, rank, lift})
    if (p) p->orphan();
}

void DendrogramSnapshot::Pools::drain() {
  for (const auto& p : {node, hook, rank, lift})
    if (p) p->drain();
}

const std::shared_ptr<ChunkPool>& DendrogramSnapshot::Pools::lift_rows(
    int rows) {
  const size_t bytes = static_cast<size_t>(rows) * kChunkEntries *
                       sizeof(int32_t);
  if (!lift || lift->payload_bytes() != bytes) {
    if (lift) lift->orphan();
    lift = std::make_shared<ChunkPool>(bytes);
  }
  return lift;
}

// ---- builder-side helpers --------------------------------------------

void DendrogramSnapshot::init_hooks(const std::shared_ptr<ChunkPool>& pool) {
  hooks_ = ChunkTable(pool);
  for (size_t c = 0; c < (static_cast<size_t>(n_) + kChunkMask) >> kChunkShift;
       ++c)
    fill_slots(hooks_.append<int32_t>(), kChunkEntries);
}

void DendrogramSnapshot::grow_slots(size_t cap) {
  while (slot_capacity() < cap) {
    std::fill_n(nodes_.append<Node>(), kChunkEntries, kFreeNode);
    if (levels_ > 1)
      fill_slots(lift_.append<int32_t>(), (levels_ - 1) * kChunkEntries);
  }
}

void DendrogramSnapshot::relayout_lift(Pools& pools, int levels) {
  const int keep = std::min(levels_, levels) - 1;
  ChunkTable next(levels > 1 ? pools.lift_rows(levels - 1) : nullptr);
  if (levels > 1) {
    for (size_t c = 0; c < nodes_.size(); ++c) {
      int32_t* fresh = next.append<int32_t>();
      fill_slots(fresh, (levels - 1) * kChunkEntries);
      if (keep > 0)
        std::memcpy(fresh, lift_.data<int32_t>(c),
                    keep * kChunkEntries * sizeof(int32_t));
    }
  }
  lift_ = std::move(next);
  levels_ = levels;
}

void DendrogramSnapshot::recompute_row(int k, std::vector<int32_t>& below) {
  // Gather row k-1 flat first: the jump reads below[below[s]] then hit
  // one cache-friendly array instead of two chunk indirections each.
  below.resize(slot_capacity());
  for (size_t c = 0; c < nodes_.size(); ++c) {
    int32_t* dst = below.data() + (c << kChunkShift);
    if (k == 1) {
      const Node* nd = nodes_.data<Node>(c);
      for (uint32_t i = 0; i < kChunkEntries; ++i) dst[i] = nd[i].parent;
    } else {
      std::memcpy(dst, lift_.data<int32_t>(c) + (k - 2) * kChunkEntries,
                  kChunkEntries * sizeof(int32_t));
    }
  }
  for (size_t c = 0; c < lift_.size(); ++c) {
    int32_t* row = lift_.own<int32_t>(c) + (k - 1) * kChunkEntries;
    const Node* nd = nodes_.data<Node>(c);
    const int32_t* half = below.data() + (c << kChunkShift);
    for (uint32_t i = 0; i < kChunkEntries; ++i)
      row[i] = nd[i].u == kNoVertex || half[i] == kNoSlot ? kNoSlot
                                                          : below[half[i]];
  }
}

// ---- rank sequence ---------------------------------------------------

std::vector<int32_t> DendrogramSnapshot::rank_order() const {
  std::vector<int32_t> order;
  order.reserve(m_);
  for (size_t b = 0; b < rank_.size(); ++b) {
    const RankBlock& blk = *rank_.data<RankBlock>(b);
    order.insert(order.end(), blk.s, blk.s + blk.n);
  }
  return order;
}

void DendrogramSnapshot::set_rank_order(
    const std::vector<int32_t>& order, const std::shared_ptr<ChunkPool>& pool) {
  rank_ = ChunkTable(pool);
  rank_ref_.clear();
  for (size_t i = 0; i < order.size(); i += kRankTarget) {
    RankBlock& blk = *rank_.append<RankBlock>();
    blk.n = static_cast<uint32_t>(
        std::min<size_t>(kRankTarget, order.size() - i));
    for (uint32_t j = 0; j < blk.n; ++j) {
      blk.s[j] = order[i + j];
      blk.w[j] = node(order[i + j]).weight;
    }
    rank_ref_.push_back({blk.w[blk.n - 1], blk.s[blk.n - 1],
                         static_cast<uint32_t>(i)});
  }
}

size_t DendrogramSnapshot::edit_rank(const DendrogramSnapshot& prev,
                                     const std::vector<RankKey>& del,
                                     const std::vector<RankKey>& ins) {
  size_t shared = 0;
  rank_ = ChunkTable(prev.rank_.pool());
  rank_.reserve(prev.rank_.size() + 1);
  rank_ref_.clear();
  rank_ref_.reserve(prev.rank_ref_.size() + 1);
  uint32_t total = 0;
  std::vector<RankKey> carry;  // rebuilt keys not yet emitted
  auto emit = [&](const RankKey* k, uint32_t n) {
    RankBlock& blk = *rank_.append<RankBlock>();
    blk.n = n;
    for (uint32_t j = 0; j < n; ++j) {
      blk.w[j] = k[j].w;
      blk.s[j] = k[j].s;
    }
    rank_ref_.push_back({k[n - 1].w, k[n - 1].s, total});
    total += n;
  };
  // Emit the carry once it fills half a block (any remainder when
  // `last`); a shorter carry merges into the next block instead, so
  // deletions cannot fragment the sequence into tiny blocks.
  auto flush = [&](bool last) {
    const size_t n = carry.size();
    if (n == 0 || (2 * n < kRankTarget && !last)) return;
    size_t pos = 0;
    while (n - pos > kRankCap) {
      emit(carry.data() + pos, kRankTarget);
      pos += kRankTarget;
    }
    emit(carry.data() + pos, static_cast<uint32_t>(n - pos));
    carry.clear();
  };
  size_t di = 0, ii = 0;
  const size_t nb = prev.rank_.size();
  // Untouched blocks [from, to) are shared in one run: the index alone
  // knows their sizes, so the blocks themselves are never read. (Index
  // offsets shift by the same amount mod 2^32.)
  auto share_run = [&](size_t from, size_t to) {
    rank_.push_shared(prev.rank_, from, to);
    shared += to - from;
    const uint32_t shift = total - prev.rank_ref_[from].before;
    for (size_t b = from; b < to; ++b) {
      RankRef r = prev.rank_ref_[b];
      r.before += shift;
      rank_ref_.push_back(r);
    }
    total = (to == nb ? static_cast<uint32_t>(prev.m_)
                      : prev.rank_ref_[to].before) +
            shift;
  };
  for (size_t b = 0; b < nb; ++b) {
    if (carry.empty()) {
      // Skip to the first block the next edit lands in.
      size_t t = nb;
      if (di < del.size() || ii < ins.size()) {
        const RankKey& k =
            ii == ins.size() || (di < del.size() &&
                                 rank_less(del[di].w, del[di].s, ins[ii].w,
                                           ins[ii].s))
                ? del[di]
                : ins[ii];
        t = std::partition_point(
                prev.rank_ref_.begin() + b, prev.rank_ref_.end() - 1,
                [&](const RankRef& r) {
                  return rank_less(r.last_w, r.last_s, k.w, k.s);
                }) -
            prev.rank_ref_.begin();
      }
      if (t > b) share_run(b, t);
      b = t;
      if (b == nb) break;
    }
    const RankRef& ref = prev.rank_ref_[b];
    const bool last = b + 1 == nb;
    // An edit belongs to the first block whose last key is >= it (the
    // final block takes every insertion ranked above all keys).
    auto mine = [&](const RankKey& k) {
      return last || !rank_less(ref.last_w, ref.last_s, k.w, k.s);
    };
    const RankBlock& blk = *prev.rank_.data<RankBlock>(b);
    for (uint32_t j = 0; j < blk.n; ++j) {
      while (ii < ins.size() && mine(ins[ii]) &&
             rank_less(ins[ii].w, ins[ii].s, blk.w[j], blk.s[j]))
        carry.push_back(ins[ii++]);
      if (di < del.size() && del[di].s == blk.s[j] && del[di].w == blk.w[j]) {
        ++di;
        continue;
      }
      carry.push_back({blk.w[j], blk.s[j]});
    }
    while (ii < ins.size() && mine(ins[ii])) carry.push_back(ins[ii++]);
    flush(last);
  }
  carry.insert(carry.end(), ins.begin() + ii, ins.end());  // empty prev
  flush(true);
  assert(di == del.size());
  return shared;
}

// ---- fresh build -------------------------------------------------------

std::shared_ptr<const DendrogramSnapshot> DendrogramSnapshot::build(
    const DynSLD& sld, vertex_id base) {
  Pools pools;
  return build(sld, base, pools);
}

std::shared_ptr<DendrogramSnapshot> DendrogramSnapshot::build(
    const DynSLD& sld, vertex_id base, Pools& pools) {
  auto snap = std::shared_ptr<DendrogramSnapshot>(new DendrogramSnapshot());
  DendrogramSnapshot& s = *snap;
  const Dendrogram& d = sld.dendrogram();
  s.n_ = sld.num_vertices();
  s.base_ = base;

  s.nodes_ = ChunkTable(pools.node);
  s.grow_slots(d.capacity());
  std::vector<RankKey> keys;
  keys.reserve(d.size());
  for (edge_id e = 0; e < d.capacity(); ++e) {
    if (!d.alive(e)) continue;
    const Dendrogram::Node& dn = d.node(e);
    Node& nd = s.node_mut(e);
    nd = Node{dn.u + base, dn.v + base, dn.weight, slot_of(dn.parent),
              {kNoSlot, kNoSlot}, 0, 0};
    set_children(nd, d, dn);
    keys.push_back({dn.weight, static_cast<int32_t>(e)});
  }
  std::sort(keys.begin(), keys.end(), [](const RankKey& a, const RankKey& b) {
    return rank_less(a.w, a.s, b.w, b.s);
  });
  std::vector<int32_t> order(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) order[i] = keys[i].s;
  s.m_ = order.size();

  // Leaf hooks: vertex v hangs off the node of e*_v.
  s.init_hooks(pools.hook);
  const std::vector<edge_id> estar = sld.min_incident_all();
  for (vertex_id v = 0; v < s.n_; ++v) {
    if (estar[v] == kNoEdge) continue;
    s.hook_mut(v) = slot_of(estar[v]);
    Node& nd = s.node_mut(slot_of(estar[v]));
    nd.leaves |= leaf_bit(nd, v + base);
    ++nd.count;
  }
  // Subtree counts bottom-up (children rank below their parent), depth
  // top-down, sizing the lifting table by the real maximum depth: small
  // on the shallow dendrograms random weights produce, log2(m) rounds
  // on a degenerate sorted-weight chain.
  for (int32_t x : order) {
    const Node& nd = s.node(x);
    if (nd.parent != kNoSlot)
      s.node_mut(nd.parent).count += nd.count;
  }
  std::vector<uint32_t> depth(s.slot_capacity(), 0);
  uint32_t maxd = 0;
  for (size_t i = order.size(); i-- > 0;) {
    const int32_t p = s.node(order[i]).parent;
    if (p != kNoSlot) depth[order[i]] = depth[p] + 1;
    maxd = std::max(maxd, depth[order[i]]);
  }
  s.relayout_lift(pools, levels_for_depth(maxd));
  std::vector<int32_t> below;
  for (int k = 1; k < s.levels_; ++k) s.recompute_row(k, below);
  s.set_rank_order(order, pools.rank);
  return snap;
}

// ---- canonical form ----------------------------------------------------

DendrogramSnapshot::Canonical DendrogramSnapshot::canonical() const {
  Canonical c;
  c.n = n_;
  c.base = base_;
  const std::vector<int32_t> order = rank_order();
  const size_t m = order.size();
  std::vector<int32_t> rank_of(slot_capacity(), kNoSlot);
  for (size_t i = 0; i < m; ++i) rank_of[order[i]] = static_cast<int32_t>(i);
  auto rk = [&](int32_t s) { return s == kNoSlot ? kNoSlot : rank_of[s]; };

  c.u.resize(m);
  c.v.resize(m);
  c.weight.resize(m);
  c.parent.resize(m);
  c.count.resize(m);
  c.child_off.assign(m + 1, 0);
  c.leaf_off.assign(m + 1, 0);
  for (size_t i = 0; i < m; ++i) {
    const Node& nd = node(order[i]);
    c.u[i] = nd.u;
    c.v[i] = nd.v;
    c.weight[i] = nd.weight;
    c.parent[i] = rk(nd.parent);
    c.count[i] = nd.count;
    // CSR rows list children by ascending rank and leaves by ascending
    // vertex — the order a counting sort over rank / vertex emits.
    for (int32_t x : nd.child)
      if (x != kNoSlot)
        c.child_list.push_back(static_cast<uint32_t>(rank_of[x]));
    c.child_off[i + 1] = static_cast<uint32_t>(c.child_list.size());
    vertex_id lv[2];
    c.leaf_list.insert(c.leaf_list.end(), lv, lv + leaves_of(nd, lv));
    c.leaf_off[i + 1] = static_cast<uint32_t>(c.leaf_list.size());
  }
  c.leaf_parent.resize(n_);
  for (vertex_id v = 0; v < n_; ++v) c.leaf_parent[v] = rk(hook(v));
  c.levels = levels_;
  c.up.resize(static_cast<size_t>(levels_) * m);
  for (int k = 0; k < levels_; ++k)
    for (size_t i = 0; i < m; ++i)
      c.up[k * m + i] = rk(up(k, order[i]));
  return c;
}

std::shared_ptr<const DendrogramSnapshot> DendrogramSnapshot::from_canonical(
    const Canonical& c) {
  // Structural validation first: the result is indexed by these values.
  const size_t m = c.u.size();
  if (m >= static_cast<size_t>(INT32_MAX) || c.v.size() != m ||
      c.weight.size() != m || c.parent.size() != m || c.count.size() != m ||
      c.leaf_parent.size() != c.n || c.child_off.size() != m + 1 ||
      c.leaf_off.size() != m + 1 || c.levels < 1 || c.levels > 32 ||
      c.up.size() != static_cast<size_t>(c.levels) * m ||
      c.child_off[0] != 0 || c.child_off[m] != c.child_list.size() ||
      c.leaf_off[0] != 0 || c.leaf_off[m] != c.leaf_list.size())
    return nullptr;
  auto in_range = [&](int32_t s) {
    return s >= kNoSlot && s < static_cast<int32_t>(m);
  };
  for (size_t i = 0; i < m; ++i) {
    if (c.child_off[i + 1] < c.child_off[i] ||
        c.child_off[i + 1] - c.child_off[i] > 2 ||
        c.leaf_off[i + 1] < c.leaf_off[i] || c.u[i] == kNoVertex ||
        !in_range(c.parent[i]) || (i && !(c.weight[i - 1] <= c.weight[i])))
      return nullptr;
  }
  for (uint32_t x : c.child_list)
    if (x >= m) return nullptr;
  for (int32_t s : c.leaf_parent)
    if (!in_range(s)) return nullptr;
  for (int32_t s : c.up)
    if (!in_range(s)) return nullptr;

  auto snap = std::shared_ptr<DendrogramSnapshot>(new DendrogramSnapshot());
  DendrogramSnapshot& s = *snap;
  Pools pools;
  s.n_ = c.n;
  s.base_ = c.base;
  s.m_ = m;
  s.nodes_ = ChunkTable(pools.node);
  s.grow_slots(m);
  std::vector<int32_t> order(m);
  for (size_t i = 0; i < m; ++i) {
    const int32_t x = static_cast<int32_t>(i);
    Node& nd = s.node_mut(x);
    nd = Node{c.u[i],  c.v[i], c.weight[i], c.parent[i], {kNoSlot, kNoSlot},
              0, c.count[i]};
    for (uint32_t j = c.child_off[i]; j < c.child_off[i + 1]; ++j)
      nd.child[j - c.child_off[i]] = static_cast<int32_t>(c.child_list[j]);
    order[i] = x;
  }
  s.init_hooks(pools.hook);
  for (vertex_id v = 0; v < s.n_; ++v) {
    const int32_t lp = c.leaf_parent[v];
    if (lp == kNoSlot) continue;
    s.hook_mut(v) = lp;
    Node& nd = s.node_mut(lp);
    nd.leaves |= leaf_bit(nd, v + s.base_);
  }
  s.relayout_lift(pools, c.levels);
  for (int k = 1; k < s.levels_; ++k)
    for (size_t i = 0; i < m; ++i)
      s.up_mut(k, static_cast<int32_t>(i)) = c.up[k * m + i];
  s.set_rank_order(order, pools.rank);
  return snap;
}

// ---- queries -------------------------------------------------------------

void DendrogramSnapshot::set_children(Node& nd, const Dendrogram& d,
                                      const Dendrogram::Node& dn) {
  nd.child[0] = slot_of(dn.child[0]);
  nd.child[1] = slot_of(dn.child[1]);
  if (dn.child[1] != kNoEdge && d.rank(dn.child[1]) < d.rank(dn.child[0]))
    std::swap(nd.child[0], nd.child[1]);
}

int DendrogramSnapshot::leaves_of(const Node& nd, vertex_id out[2]) const {
  int nl = 0;
  if (nd.leaves & 1) out[nl++] = nd.u - base_;
  if (nd.leaves & 2) out[nl++] = nd.v - base_;
  if (nl == 2 && out[1] < out[0]) std::swap(out[0], out[1]);
  return nl;
}

int32_t DendrogramSnapshot::top_of(vertex_id v, double tau) const {
  int32_t x = hook(v - base_);
  if (x == kNoSlot || node(x).weight > tau) return kNoSlot;
  for (int k = levels_ - 1; k >= 0; --k) {
    int32_t a = up(k, x);
    if (a != kNoSlot && node(a).weight <= tau) x = a;
  }
  return x;
}

uint64_t DendrogramSnapshot::num_clusters(double tau) const {
  // Blocks hold ascending keys, so the sub-tau prefix ends inside the
  // first block whose last weight exceeds tau.
  auto it = std::upper_bound(
      rank_ref_.begin(), rank_ref_.end(), tau,
      [](double t, const RankRef& r) { return t < r.last_w; });
  size_t merges = m_;
  if (it != rank_ref_.end()) {
    const RankBlock& blk =
        *rank_.data<RankBlock>(it - rank_ref_.begin());
    merges = it->before + (std::upper_bound(blk.w, blk.w + blk.n, tau) - blk.w);
  }
  return n_ - merges;
}

void DendrogramSnapshot::members_of(int32_t top,
                                    std::vector<vertex_id>& out) const {
  std::vector<int32_t> stack{top};
  while (!stack.empty()) {
    const int32_t x = stack.back();
    stack.pop_back();
    const Node& nd = node(x);
    vertex_id lv[2];
    for (int i = 0, nl = leaves_of(nd, lv); i < nl; ++i)
      out.push_back(lv[i] + base_);
    // Lower-ranked child first, so the higher-ranked one pops first.
    for (int32_t ch : nd.child)
      if (ch != kNoSlot) stack.push_back(ch);
  }
}

DendrogramSnapshot::FlatLabels DendrogramSnapshot::flat_labels(
    double tau) const {
  FlatLabels out;
  // Descending rank pass over the sub-tau nodes: parents rank above
  // their children, so top[parent] is final when a node is visited. A
  // node above tau stays inactive (kNoSlot); an active node inherits
  // its parent's top when the parent is active, else it IS the top of
  // its cluster.
  std::vector<int32_t> top(slot_capacity(), kNoSlot);
  std::map<uint64_t, uint64_t> hist;
  uint64_t singletons = n_;
  for (size_t b = rank_.size(); b-- > 0;) {
    const RankBlock& blk = *rank_.data<RankBlock>(b);
    if (blk.w[0] > tau) continue;
    for (uint32_t j = blk.n; j-- > 0;) {
      if (blk.w[j] > tau) continue;
      const int32_t x = blk.s[j];
      const Node& nd = node(x);
      const int32_t p = nd.parent;
      top[x] = (p != kNoSlot && top[p] != kNoSlot) ? top[p] : x;
      if (top[x] == x) {  // x tops a cluster at tau
        ++hist[nd.count];
        singletons -= nd.count;
      }
    }
  }
  if (singletons) hist[1] += singletons;
  // All members of a cluster share the same top node, so the top's u
  // endpoint (itself a member) is a consistent canonical label.
  out.label.resize(n_);
  for (vertex_id v = 0; v < n_; ++v) {
    const int32_t lp = hook(v);
    out.label[v] = (lp == kNoSlot || top[lp] == kNoSlot) ? v + base_
                                                         : node(top[lp]).u;
  }
  out.hist.assign(hist.begin(), hist.end());
  return out;
}

}  // namespace dynsld::engine
