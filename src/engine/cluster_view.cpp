#include "engine/cluster_view.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <map>
#include <numeric>

#include "dendrogram/static_sld.hpp"

namespace dynsld::engine {

int64_t ThresholdView::slot_key(int32_t top, vertex_id vtx) {
  // Clustered blobs key on the (non-negative) top slot; singleton blobs
  // key on the vertex, folded into the negative range so the two spaces
  // never collide within a shard.
  if (top == DendrogramSnapshot::kNoSlot) return -1 - static_cast<int64_t>(vtx);
  return top;
}

std::shared_ptr<const ThresholdView::Resolution> ThresholdView::resolve(
    const EngineSnapshot& es, double tau, const Resolution* prev,
    const std::vector<char>* shard_clean) {
  const auto& cross = es.cross().edges();  // weight-ascending
  const size_t m = es.cross().sub_tau_prefix(tau);
  if (m == 0) return nullptr;  // trivial mode: every cluster is one shard blob

  auto res = std::make_shared<Resolution>();
  const ShardMap& map = es.shard_map();
  const int K = map.num_shards;

  // Clean shards share their ShardBlobs from prev by pointer (frozen:
  // lookups only, guaranteed to hit because the sub-tau prefix — hence
  // the endpoint multiset — is unchanged on this path); rebuilt shards
  // get fresh blocks and re-intern.
  std::vector<std::shared_ptr<ShardBlobs>> fresh(K);
  res->shard.resize(K);
  for (int k = 0; k < K; ++k) {
    if (prev && shard_clean && (*shard_clean)[k]) {
      res->shard[k] = prev->shard[k];
    } else {
      fresh[k] = std::make_shared<ShardBlobs>();
      res->shard[k] = fresh[k];
    }
  }

  struct Occ {
    int32_t shard;
    uint32_t local;
  };
  auto intern = [&](vertex_id x) -> Occ {
    int k = map.home(x);
    if (!fresh[k]) {  // frozen clean shard
      const ShardBlobs& sb = *res->shard[k];
      int32_t top = sb.endpoint_top.at(x);
      return {k, sb.blob_of.at(slot_key(top, x))};
    }
    ShardBlobs& sb = *fresh[k];
    auto [et, fresh_ep] =
        sb.endpoint_top.try_emplace(x, DendrogramSnapshot::kNoSlot);
    if (fresh_ep) et->second = es.shard(k).top_of(x, tau);
    auto [bt, fresh_blob] =
        sb.blob_of.try_emplace(slot_key(et->second, x),
                               static_cast<uint32_t>(sb.local.size()));
    if (fresh_blob)
      sb.local.push_back(Blob{static_cast<int32_t>(k), et->second, x});
    return {k, bt->second};
  };

  std::vector<Occ> occ;
  occ.reserve(2 * m);
  for (size_t i = 0; i < m; ++i) {
    occ.push_back(intern(cross[i].u));
    occ.push_back(intern(cross[i].v));
  }

  // Dense global blob ids: per-shard prefix offsets over the (possibly
  // shared) local blob lists.
  res->blob_base.assign(K + 1, 0);
  for (int k = 0; k < K; ++k)
    res->blob_base[k + 1] =
        res->blob_base[k] + static_cast<uint32_t>(res->shard[k]->local.size());
  const uint32_t num_blobs = res->blob_base[K];
  res->blobs.reserve(num_blobs);
  for (int k = 0; k < K; ++k)
    res->blobs.insert(res->blobs.end(), res->shard[k]->local.begin(),
                      res->shard[k]->local.end());

  UnionFind uf(num_blobs);
  for (size_t i = 0; i < occ.size(); i += 2)
    uf.unite(res->blob_base[occ[i].shard] + occ[i].local,
             res->blob_base[occ[i + 1].shard] + occ[i + 1].local);

  // Flatten into dense immutable groups (queries must be pure reads).
  res->blob_group.assign(num_blobs, -1);
  std::vector<int32_t> root_group(num_blobs, -1);
  int32_t num_groups = 0;
  for (uint32_t i = 0; i < num_blobs; ++i) {
    vertex_id r = uf.find(i);
    if (root_group[r] < 0) root_group[r] = num_groups++;
    res->blob_group[i] = root_group[r];
  }

  res->group_size.assign(num_groups, 0);
  res->group_off.assign(num_groups + 1, 0);
  for (uint32_t i = 0; i < num_blobs; ++i)
    ++res->group_off[res->blob_group[i] + 1];
  std::partial_sum(res->group_off.begin(), res->group_off.end(),
                   res->group_off.begin());
  res->group_blobs.resize(num_blobs);
  std::vector<uint32_t> cursor(res->group_off.begin(),
                               res->group_off.end() - 1);
  for (uint32_t i = 0; i < num_blobs; ++i) {
    res->group_blobs[cursor[res->blob_group[i]]++] = i;
    const Blob& b = res->blobs[i];
    res->group_size[res->blob_group[i]] +=
        b.top == DendrogramSnapshot::kNoSlot
            ? 1
            : es.shard(b.shard).slot_count(b.top);
  }
  return res;
}

ThresholdView::ThresholdView(EpochManager::Snap snap, double tau)
    : snap_(std::move(snap)), tau_(tau) {
  const auto& stats = snap_->stats();
  if (stats) stats->views_built.fetch_add(1, std::memory_order_relaxed);
  res_ = resolve(*snap_, tau_, nullptr, nullptr);
  if (res_ && stats)
    stats->cross_uf_builds.fetch_add(1, std::memory_order_relaxed);
}

ThresholdView::ThresholdView(EpochManager::Snap snap, double tau,
                             std::shared_ptr<const Resolution> res)
    : snap_(std::move(snap)), tau_(tau), res_(std::move(res)) {}

std::shared_ptr<const ThresholdView> ThresholdView::refreshed(
    const std::shared_ptr<const ThresholdView>& prev,
    EpochManager::Snap snap) {
  assert(prev);
  if (snap->epoch() == prev->snap_->epoch()) return prev;
  const EngineSnapshot& es = *snap;
  const EngineSnapshot& pes = *prev->snap_;
  const double tau = prev->tau_;
  const auto& stats = es.stats();
  const ShardMap& map = es.shard_map();
  assert(map.num_shards == pes.shard_map().num_shards &&
         map.n == pes.shard_map().n);

  // Shard cleanliness is pointer identity: an epoch reuses untouched
  // shards' DendrogramSnapshots by pointer, so this holds across any
  // number of skipped epochs with no delta chaining.
  std::vector<char> clean(map.num_shards, 0);
  int num_dirty = 0;
  for (int k = 0; k < map.num_shards; ++k) {
    clean[k] = &es.shard(k) == &pes.shard(k);
    num_dirty += !clean[k];
  }

  // Flat-label patch basis: prev's materialized labels (or the seed it
  // inherited). The single-step EpochDelta short-circuits hopeless
  // cases — a flush that rebuilt a majority of the vertex mass forces
  // a label rebuild no matter what came before — and the exact mass vs
  // the seed's origin catches multi-epoch accumulation, so a doomed
  // seed never pins a dead epoch's arrays.
  std::shared_ptr<const LabelSeed> seed;
  if (es.delta().base_epoch != pes.epoch() ||
      es.delta().label_patch_viable(map.n))
    seed = prev->label_seed();
  if (seed) {
    uint64_t mass = 0;
    for (int k = 0; k < map.num_shards; ++k) {
      if (&es.shard(k) != &seed->origin->shard(k)) mass += map.local_size(k);
    }
    if (2 * mass >= map.n) seed.reset();
  }

  // The resolution reads only the sub-tau cross prefix: unchanged when
  // the table is pointer-identical, or when a single-step delta proves
  // every changed cross edge sits above this threshold.
  bool prefix_same = &es.cross() == &pes.cross();
  if (!prefix_same && es.delta().base_epoch == pes.epoch() &&
      es.delta().cross_min_w > tau)
    prefix_same = true;

  if (!prefix_same) {
    if (stats) {
      stats->refresh_views_full.fetch_add(1, std::memory_order_relaxed);
      stats->refresh_shards_rebuilt.fetch_add(map.num_shards,
                                              std::memory_order_relaxed);
    }
    auto view = std::make_shared<const ThresholdView>(std::move(snap), tau);
    view->seed_ = std::move(seed);  // label patching survives a re-resolve
    return view;
  }

  if (stats) {
    stats->refresh_shards_reused.fetch_add(map.num_shards - num_dirty,
                                           std::memory_order_relaxed);
    stats->refresh_shards_rebuilt.fetch_add(num_dirty,
                                            std::memory_order_relaxed);
  }

  // Does the resolution read any rebuilt shard? Endpoint tops and blob
  // slot counts are per home shard of the cross endpoints, so a rebuild
  // of a shard no sub-tau cross edge touches cannot affect it.
  bool touches_dirty = false;
  if (num_dirty && prev->res_) {
    for (int k = 0; k < map.num_shards; ++k) {
      if (!clean[k] && !prev->res_->shard[k]->local.empty()) {
        touches_dirty = true;
        break;
      }
    }
  }
  if (!touches_dirty) {
    if (stats)
      stats->refresh_views_reused.fetch_add(1, std::memory_order_relaxed);
    auto view = std::shared_ptr<const ThresholdView>(
        new ThresholdView(std::move(snap), tau, prev->res_));
    view->seed_ = std::move(seed);
    return view;
  }

  if (stats) {
    stats->refresh_views_incremental.fetch_add(1, std::memory_order_relaxed);
    stats->cross_uf_incremental.fetch_add(1, std::memory_order_relaxed);
  }
  auto res = resolve(es, tau, prev->res_.get(), &clean);
  auto view = std::shared_ptr<const ThresholdView>(
      new ThresholdView(std::move(snap), tau, std::move(res)));
  view->seed_ = std::move(seed);
  return view;
}

int32_t ThresholdView::resolve_vertex(vertex_id x, int& shard,
                                      int32_t& top) const {
  const EngineSnapshot& es = *snap_;
  shard = es.shard_map().home(x);
  if (!res_) {
    top = es.shard(shard).top_of(x, tau_);
    return -1;
  }
  const ShardBlobs& sb = *res_->shard[shard];
  // Cross endpoints carry their top in the shard's cache (valid for
  // this epoch: clean-shard entries are pointer-stable).
  auto et = sb.endpoint_top.find(x);
  top = et != sb.endpoint_top.end() ? et->second
                                    : es.shard(shard).top_of(x, tau_);
  auto bt = sb.blob_of.find(slot_key(top, x));
  if (bt == sb.blob_of.end()) return -1;
  return res_->blob_group[res_->blob_base[shard] + bt->second];
}

bool ThresholdView::same_cluster(vertex_id s, vertex_id t) const {
  const auto& stats = snap_->stats();
  if (stats) stats->q_same_cluster.fetch_add(1, std::memory_order_relaxed);
  if (s == t) return true;
  int ss, st;
  int32_t tops, topt;
  int32_t gs = resolve_vertex(s, ss, tops);
  int32_t gt = resolve_vertex(t, st, topt);
  if (gs >= 0 || gt >= 0) return gs == gt;
  // Neither blob is touched by a sub-tau cross edge: the cluster is the
  // blob itself, so equality is same shard + same (non-singleton) top.
  return ss == st && tops != DendrogramSnapshot::kNoSlot && tops == topt;
}

uint64_t ThresholdView::cluster_size(vertex_id u) const {
  const auto& stats = snap_->stats();
  if (stats) stats->q_cluster_size.fetch_add(1, std::memory_order_relaxed);
  int s;
  int32_t top;
  int32_t g = resolve_vertex(u, s, top);
  if (g >= 0) return res_->group_size[g];
  return top == DendrogramSnapshot::kNoSlot
             ? 1
             : snap_->shard(s).slot_count(top);
}

std::vector<vertex_id> ThresholdView::cluster_report(vertex_id u) const {
  const auto& stats = snap_->stats();
  if (stats) stats->q_cluster_report.fetch_add(1, std::memory_order_relaxed);
  int s;
  int32_t top;
  int32_t g = resolve_vertex(u, s, top);
  if (g < 0) {
    if (top == DendrogramSnapshot::kNoSlot) return {u};
    std::vector<vertex_id> out;
    out.reserve(snap_->shard(s).slot_count(top));
    snap_->shard(s).members_of(top, out);
    return out;
  }
  std::vector<vertex_id> out;
  out.reserve(res_->group_size[g]);
  for (uint32_t i = res_->group_off[g]; i < res_->group_off[g + 1]; ++i) {
    const Blob& b = res_->blobs[res_->group_blobs[i]];
    if (b.top == DendrogramSnapshot::kNoSlot)
      out.push_back(b.vtx);
    else
      snap_->shard(b.shard).members_of(b.top, out);
  }
  return out;
}

std::shared_ptr<const ThresholdView::LabelSet> ThresholdView::build_labels(
    const EngineSnapshot& es, double tau, const Resolution* res,
    const LabelSeed* seed) {
  const ShardMap& map = es.shard_map();
  const int K = map.num_shards;
  const auto& stats = es.stats();

  // Shard cleanliness vs the seed's ORIGIN (not just the previous
  // epoch): pointer identity holds across any number of skipped
  // refreshes, because a rebuilt snapshot is a fresh allocation that
  // can never equal a pointer the seed keeps alive.
  std::vector<char> clean(K, 0);
  uint64_t dirty_mass = 0;
  if (seed) {
    assert(seed->origin->shard_map().n == map.n &&
           seed->origin->shard_map().num_shards == K);
    for (int k = 0; k < K; ++k) {
      clean[k] = &es.shard(k) == &seed->origin->shard(k);
      if (!clean[k]) dirty_mass += map.local_size(k);
    }
    // Nothing this view reads changed since the seed's origin: adopt
    // the whole LabelSet (flat array, shard blocks, histogram) as-is.
    if (dirty_mass == 0 && res == seed->res.get()) {
      if (stats) stats->labels_reused.fetch_add(1, std::memory_order_relaxed);
      return seed->labels;
    }
  }
  // Patch only while the rebuilt vertex mass is a minority of n;
  // otherwise the O(n) copy stops paying for itself (the same bound
  // EpochDelta::label_patch_viable applies per flush).
  const bool patch = seed && 2 * dirty_mass < map.n;

  auto ls = std::make_shared<LabelSet>();
  ls->shard.resize(K);
  for (int k = 0; k < K; ++k) {
    if (seed && clean[k]) {  // identical snapshot + tau => identical block
      ls->shard[k] = seed->labels->shard[k];
    } else {
      ls->shard[k] = std::make_shared<const DendrogramSnapshot::FlatLabels>(
          es.shard(k).flat_labels(tau));
    }
  }

  // Canonical label of a blob's cluster, O(1): the vertex itself for a
  // singleton blob, the top node's u endpoint otherwise — the same
  // label flat_labels() assigns, so an un-merged blob needs no write.
  // The blob's slots index `in`'s shard snapshots, so an old blob must
  // be read through the seed's origin (its home shard may be rebuilt).
  auto canon = [](const EngineSnapshot& in, const Blob& b) -> vertex_id {
    return b.top == DendrogramSnapshot::kNoSlot
               ? b.vtx
               : in.shard(b.shard).slot_u(b.top);
  };
  // A group's canonical label: min over its blobs' canons —
  // order-independent, so an incremental and a from-scratch resolution
  // agree on it bit-for-bit.
  auto group_labels = [&](const EngineSnapshot& in, const Resolution* r) {
    std::vector<vertex_id> gl;
    if (!r) return gl;
    gl.assign(r->group_size.size(), std::numeric_limits<vertex_id>::max());
    for (size_t i = 0; i < r->blobs.size(); ++i) {
      vertex_id c = canon(in, r->blobs[i]);
      if (c < gl[r->blob_group[i]]) gl[r->blob_group[i]] = c;
    }
    return gl;
  };
  const std::vector<vertex_id> glabel = group_labels(es, res);

  // Blob-granular label writes against a base the caller prepared:
  // members of group blobs get their group label; `stable` (patch path
  // only) marks blobs whose members provably already carry it.
  std::vector<vertex_id> members;
  auto apply_fixups = [&](const std::vector<char>* stable) {
    if (!res) return;
    for (size_t i = 0; i < res->blobs.size(); ++i) {
      if (stable && (*stable)[i]) continue;
      const Blob& b = res->blobs[i];
      vertex_id gl = glabel[res->blob_group[i]];
      if (b.top == DendrogramSnapshot::kNoSlot) {
        ls->flat[b.vtx] = gl;
        continue;
      }
      if (canon(es, b) == gl) continue;  // base label already correct
      members.clear();
      es.shard(b.shard).members_of(b.top, members);
      for (vertex_id v : members) ls->flat[v] = gl;
    }
  };

  if (patch) {
    // Copy-on-write patch: start from the origin's flat array, then
    // re-label exactly what may differ — dirty shards' vertex ranges
    // and the members of cross-merge groups whose label changed.
    // O(n/K * dirty_shards + changed-group mass) plus the memcpy.
    ls->flat = seed->labels->flat;
    for (int k = 0; k < K; ++k) {
      if (clean[k]) continue;
      std::copy(ls->shard[k]->label.begin(), ls->shard[k]->label.end(),
                ls->flat.begin() + map.base(k));
    }
    if (res != seed->res.get()) {
      const std::vector<vertex_id> old_glabel =
          group_labels(*seed->origin, seed->res.get());
      // A blob is STABLE when it kept its identity across the refresh —
      // clean home shard and the resolution sharing that shard's
      // ShardBlobs block (so old and new local blob indices coincide) —
      // and its group's label is unchanged. Its members already carry
      // the right label; a giant unchanged cross group costs zero
      // writes. Everything else: undo the old fixup (restore canonical
      // base labels), then apply the new groups.
      std::vector<char> stable;
      if (res && seed->res) {
        stable.assign(res->blobs.size(), 0);
        for (int k = 0; k < K; ++k) {
          if (!clean[k] || res->shard[k] != seed->res->shard[k]) continue;
          uint32_t nb = res->blob_base[k], ob = seed->res->blob_base[k];
          uint32_t cnt = static_cast<uint32_t>(res->shard[k]->local.size());
          for (uint32_t i = 0; i < cnt; ++i) {
            stable[nb + i] = glabel[res->blob_group[nb + i]] ==
                             old_glabel[seed->res->blob_group[ob + i]];
          }
        }
      }
      if (seed->res) {
        for (size_t i = 0; i < seed->res->blobs.size(); ++i) {
          const Blob& b = seed->res->blobs[i];
          if (!clean[b.shard]) continue;  // range was overwritten above
          if (!stable.empty() && res->shard[b.shard] == seed->res->shard[b.shard] &&
              stable[res->blob_base[b.shard] +
                     (static_cast<uint32_t>(i) - seed->res->blob_base[b.shard])])
            continue;
          if (b.top == DendrogramSnapshot::kNoSlot) {
            ls->flat[b.vtx] = b.vtx;
            continue;
          }
          members.clear();
          es.shard(b.shard).members_of(b.top, members);
          vertex_id c = es.shard(b.shard).slot_u(b.top);
          for (vertex_id v : members) ls->flat[v] = c;
        }
      }
      apply_fixups(stable.empty() ? nullptr : &stable);
    }
    // else: same resolution object — every blob lives in a clean shard
    // (wholesale reuse is gated on that), so the copied fixups stand.
    if (stats) stats->labels_patched.fetch_add(1, std::memory_order_relaxed);
  } else {
    ls->flat.resize(map.n);
    for (int k = 0; k < K; ++k)
      std::copy(ls->shard[k]->label.begin(), ls->shard[k]->label.end(),
                ls->flat.begin() + map.base(k));
    apply_fixups(nullptr);
    if (stats) stats->labels_rebuilt.fetch_add(1, std::memory_order_relaxed);
  }

  // The histogram never touches the O(n) array: merge the per-shard
  // histograms, then move each cross group's blob clusters into one
  // merged bin.
  std::map<uint64_t, int64_t> acc;
  for (int k = 0; k < K; ++k)
    for (const auto& [size, cnt] : ls->shard[k]->hist)
      acc[size] += static_cast<int64_t>(cnt);
  if (res) {
    for (const Blob& b : res->blobs) {
      uint64_t bs = b.top == DendrogramSnapshot::kNoSlot
                        ? 1
                        : es.shard(b.shard).slot_count(b.top);
      --acc[bs];
    }
    for (uint64_t gs : res->group_size) ++acc[gs];
  }
  for (const auto& [size, cnt] : acc) {
    assert(cnt >= 0);
    if (cnt > 0)
      ls->hist.bins.emplace_back(size, static_cast<uint64_t>(cnt));
  }
  return ls;
}

const ThresholdView::LabelSet& ThresholdView::label_set() const {
  {
    std::lock_guard<std::mutex> lk(labels_mu_);
    if (labels_) return *labels_;
  }
  // Serialize builders on their own mutex and run the O(n) build with
  // labels_mu_ RELEASED: label_seed() — hence a concurrent refreshed(),
  // possibly on the flushing thread — only ever waits for the pointer
  // swap below, never for a materialization. build_labels reads only
  // immutable view state, so this is safe; a refresh that overlaps the
  // build simply propagates the not-yet-consumed seed (patching against
  // an older origin is correct, just proportionally more work).
  std::lock_guard<std::mutex> build_lk(labels_build_mu_);
  std::shared_ptr<const LabelSeed> seed;
  {
    std::lock_guard<std::mutex> lk(labels_mu_);
    if (labels_) return *labels_;  // lost the race to an earlier builder
    seed = seed_;
  }
  auto built = build_labels(*snap_, tau_, res_.get(), seed.get());
  std::lock_guard<std::mutex> lk(labels_mu_);
  labels_ = std::move(built);
  seed_.reset();  // consumed; release the origin epoch
  return *labels_;
}

std::shared_ptr<const ThresholdView::LabelSeed> ThresholdView::label_seed()
    const {
  std::lock_guard<std::mutex> lk(labels_mu_);
  if (labels_)
    return std::make_shared<const LabelSeed>(LabelSeed{snap_, labels_, res_});
  return seed_;  // propagate an unconsumed basis (possibly null)
}

const std::vector<vertex_id>& ThresholdView::flat_clustering() const {
  const auto& stats = snap_->stats();
  if (stats) stats->q_flat_clustering.fetch_add(1, std::memory_order_relaxed);
  return label_set().flat;
}

const SizeHistogram& ThresholdView::size_histogram() const {
  const auto& stats = snap_->stats();
  if (stats) stats->q_size_histogram.fetch_add(1, std::memory_order_relaxed);
  return label_set().hist;
}

uint64_t ThresholdView::num_clusters() const {
  const auto& stats = snap_->stats();
  if (stats) stats->q_num_clusters.fetch_add(1, std::memory_order_relaxed);
  const ShardMap& map = snap_->shard_map();
  uint64_t total = 0;
  for (int k = 0; k < map.num_shards; ++k)
    total += snap_->shard(k).num_clusters(tau_);
  // Each cross-merge group collapses its member blobs — one per-shard
  // cluster or cross-touched singleton each, all distinct — into one.
  if (res_) total -= res_->blobs.size() - res_->group_size.size();
  return total;
}

QueryResult ThresholdView::run(const Query& q) const {
  // This view's threshold is authoritative (see header); the request's
  // tau is only the broker's routing key.
  assert(query_tau(q) == tau_);
  struct Dispatch {
    const ThresholdView& v;
    QueryResult operator()(const SameClusterQuery& r) const {
      return v.same_cluster(r.u, r.v);
    }
    QueryResult operator()(const ClusterSizeQuery& r) const {
      return v.cluster_size(r.u);
    }
    QueryResult operator()(const ClusterReportQuery& r) const {
      return v.cluster_report(r.u);
    }
    QueryResult operator()(const FlatClusteringQuery&) const {
      return v.flat_clustering();
    }
    QueryResult operator()(const SizeHistogramQuery&) const {
      return v.size_histogram();
    }
    QueryResult operator()(const NumClustersQuery&) const {
      return v.num_clusters();
    }
  };
  return std::visit(Dispatch{*this}, q);
}

}  // namespace dynsld::engine
