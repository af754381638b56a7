// Shared test helpers: brute-force oracles, the Kruskal reference
// partition, dendrogram comparison, and deterministic per-test
// randomness. Both the unit tests and the randomized differential
// harness (test_fuzz_engine.cpp) build on these.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "dendrogram/dendrogram.hpp"
#include "dendrogram/static_sld.hpp"
#include "engine/query.hpp"
#include "graph/types.hpp"
#include "parallel/random.hpp"

namespace dynsld::test {

/// Deterministic per-test RNG: seeded from the running test's full name
/// (plus an optional salt), so every test gets an independent but
/// reproducible stream and reordering tests never perturbs another
/// test's randomness.
inline par::Rng test_rng(uint64_t salt = 0) {
  uint64_t h = 0xcbf29ce484222325ULL ^ salt;  // FNV-1a over the test name
  if (const auto* info = ::testing::UnitTest::GetInstance()->current_test_info()) {
    std::string name = std::string(info->test_suite_name()) + "." + info->name();
    for (char c : name) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
  }
  return par::Rng(h);
}

/// Uniform pair of distinct vertices in [0, n).
inline std::pair<vertex_id, vertex_id> random_distinct_pair(par::Rng& rng,
                                                            vertex_id n) {
  vertex_id u = static_cast<vertex_id>(rng.next_bounded(n)), v;
  do {
    v = static_cast<vertex_id>(rng.next_bounded(n));
  } while (v == u);
  return {u, v};
}

/// Uniform pair of distinct vertices inside the block [base, base+size).
inline std::pair<vertex_id, vertex_id> random_block_pair(par::Rng& rng,
                                                         vertex_id base,
                                                         vertex_id size) {
  vertex_id u = base + static_cast<vertex_id>(rng.next_bounded(size)), v;
  do {
    v = base + static_cast<vertex_id>(rng.next_bounded(size));
  } while (v == u);
  return {u, v};
}

/// Reference partition at threshold tau from the Kruskal-built SLD of
/// `edges`: label[v] = component representative. The live edge set
/// is a graph (it includes cycle-closing edges), while build_kruskal
/// takes a forest, so first reduce to the MSF under (weight, id) order
/// — dropping a cycle edge never changes threshold components, because
/// its endpoints are already connected by edges of smaller rank.
inline std::vector<vertex_id> reference_labels(
    vertex_id n, const std::vector<WeightedEdge>& edges, double tau) {
  std::vector<WeightedEdge> sorted(edges);
  std::sort(sorted.begin(), sorted.end(),
            [](const WeightedEdge& a, const WeightedEdge& b) {
              return a.rank() < b.rank();
            });
  std::vector<WeightedEdge> forest;
  {
    UnionFind uf(n);
    for (const WeightedEdge& e : sorted) {
      if (uf.find(e.u) != uf.find(e.v)) {
        uf.unite(e.u, e.v);
        forest.push_back(e);
      }
    }
  }
  Dendrogram ref = build_kruskal(n, forest);
  UnionFind uf(n);
  for (edge_id e = 0; e < ref.capacity(); ++e) {
    if (!ref.alive(e)) continue;
    const auto& nd = ref.node(e);
    if (nd.weight <= tau) uf.unite(nd.u, nd.v);
  }
  std::vector<vertex_id> label(n);
  for (vertex_id v = 0; v < n; ++v) label[v] = uf.find(v);
  return label;
}

/// The live edge set as a test drives it, fed to reference_labels:
/// ticket -> (u, v, w), applied on insert and erase. It mirrors the
/// service's bookkeeping: an erase of an unknown or already-erased
/// ticket changes nothing, and an erase by endpoints drops the same
/// ticket the mutation queue's endpoint ledger drops — the most recent
/// live copy of (u, v), either orientation.
class EdgeLedger {
 public:
  void insert(uint64_t ticket, vertex_id u, vertex_id v, double w) {
    live_[ticket] = WeightedEdge{u, v, w, kNoEdge};
  }
  void erase(uint64_t ticket) { live_.erase(ticket); }
  /// False when no live (u, v) edge is recorded.
  bool erase(vertex_id u, vertex_id v) {
    for (auto it = live_.rbegin(); it != live_.rend(); ++it) {
      const WeightedEdge& e = it->second;
      if ((e.u == u && e.v == v) || (e.u == v && e.v == u)) {
        live_.erase(std::next(it).base());
        return true;
      }
    }
    return false;
  }

  /// The same operations routed through `svc` (an SldService) and
  /// recorded here; returns what the service returns.
  template <class Service>
  uint64_t insert(Service& svc, vertex_id u, vertex_id v, double w) {
    uint64_t t = svc.insert(u, v, w);
    insert(t, u, v, w);
    return t;
  }
  template <class Service>
  void erase(Service& svc, uint64_t ticket) {
    svc.erase(ticket);
    erase(ticket);
  }
  template <class Service>
  bool erase(Service& svc, vertex_id u, vertex_id v) {
    bool erased = svc.erase(u, v);
    EXPECT_EQ(erase(u, v), erased) << "ledger out of step at (" << u << ", "
                                   << v << ")";
    return erased;
  }

  /// The live edges in ticket order; ids are dense positions.
  std::vector<WeightedEdge> edges() const {
    std::vector<WeightedEdge> out;
    out.reserve(live_.size());
    for (const auto& [t, e] : live_)
      out.push_back(WeightedEdge{e.u, e.v, e.weight,
                                 static_cast<edge_id>(out.size())});
    return out;
  }

 private:
  std::map<uint64_t, WeightedEdge> live_;
};

/// Same partition? (Labels themselves may differ.)
inline void expect_same_partition(const std::vector<vertex_id>& a,
                                  const std::vector<vertex_id>& b) {
  ASSERT_EQ(a.size(), b.size());
  std::map<vertex_id, vertex_id> a2b, b2a;
  for (size_t v = 0; v < a.size(); ++v) {
    auto [ia, fresh_a] = a2b.try_emplace(a[v], b[v]);
    EXPECT_EQ(ia->second, b[v]) << "vertex " << v;
    auto [ib, fresh_b] = b2a.try_emplace(b[v], a[v]);
    EXPECT_EQ(ib->second, a[v]) << "vertex " << v;
  }
}

/// |cluster of u| under a reference labeling.
inline uint64_t ref_cluster_size(const std::vector<vertex_id>& label,
                                 vertex_id u) {
  uint64_t k = 0;
  for (vertex_id l : label) k += l == label[u];
  return k;
}

/// Cluster-size histogram of a reference labeling.
inline engine::SizeHistogram ref_histogram(const std::vector<vertex_id>& label) {
  std::map<vertex_id, uint64_t> csize;
  for (vertex_id l : label) ++csize[l];
  std::map<uint64_t, uint64_t> hist;
  for (const auto& [l, s] : csize) ++hist[s];
  engine::SizeHistogram out;
  out.bins.assign(hist.begin(), hist.end());
  return out;
}

/// Brute-force SLD straight from the definition: simulate agglomerative
/// clustering with explicit vertex sets, merging edges in rank order.
/// O(n^2) — for validating build_kruskal on small instances.
inline Dendrogram build_brute(vertex_id n, std::vector<WeightedEdge> edges) {
  std::sort(edges.begin(), edges.end(),
            [](const WeightedEdge& a, const WeightedEdge& b) {
              return a.rank() < b.rank();
            });
  edge_id max_id = 0;
  for (const auto& e : edges) max_id = std::max(max_id, e.id);
  Dendrogram d(edges.empty() ? 0 : static_cast<size_t>(max_id) + 1);
  // cluster of each vertex: set of members + current top node.
  std::map<vertex_id, std::set<vertex_id>> clusters;
  std::map<vertex_id, edge_id> top;  // keyed by cluster representative
  std::vector<vertex_id> rep(n);
  std::iota(rep.begin(), rep.end(), vertex_id{0});
  for (vertex_id v = 0; v < n; ++v) clusters[v] = {v};
  for (const auto& e : edges) {
    d.add_node(e);
    vertex_id ra = rep[e.u], rb = rep[e.v];
    EXPECT_NE(ra, rb) << "input not a forest";
    if (top.count(ra)) d.set_parent(top[ra], e.id);
    if (top.count(rb)) d.set_parent(top[rb], e.id);
    for (vertex_id m : clusters[rb]) {
      clusters[ra].insert(m);
      rep[m] = ra;
    }
    clusters.erase(rb);
    top.erase(rb);
    top[ra] = e.id;
  }
  return d;
}

/// Pretty diff of two dendrograms for failure messages.
inline std::string describe_diff(const Dendrogram& got, const Dendrogram& want) {
  std::ostringstream os;
  size_t cap = std::max(got.capacity(), want.capacity());
  int shown = 0;
  for (edge_id e = 0; e < cap && shown < 12; ++e) {
    bool ga = got.alive(e), wa = want.alive(e);
    if (ga != wa) {
      os << "node " << e << ": alive " << ga << " vs " << wa << "\n";
      ++shown;
      continue;
    }
    if (!ga) continue;
    if (got.parent(e) != want.parent(e)) {
      os << "node " << e << " (w=" << got.node(e).weight << "): parent "
         << static_cast<int64_t>(got.parent(e) == kNoEdge ? -1 : got.parent(e))
         << " vs "
         << static_cast<int64_t>(want.parent(e) == kNoEdge ? -1 : want.parent(e))
         << "\n";
      ++shown;
    }
  }
  return os.str();
}

#define EXPECT_DENDRO_EQ(got, want) \
  EXPECT_TRUE((got) == (want)) << dynsld::test::describe_diff((got), (want))

#define ASSERT_DENDRO_EQ(got, want) \
  ASSERT_TRUE((got) == (want)) << dynsld::test::describe_diff((got), (want))

}  // namespace dynsld::test
