#include "engine/epoch.hpp"

#include <algorithm>

namespace dynsld::engine {

CrossEdgeView::CrossEdgeView(std::vector<Edge> edges)
    : edges_(std::move(edges)) {
  std::sort(edges_.begin(), edges_.end(),
            [](const Edge& a, const Edge& b) { return a.w < b.w; });
}

size_t CrossEdgeView::sub_tau_prefix(double tau) const {
  auto it = std::upper_bound(
      edges_.begin(), edges_.end(), tau,
      [](double t, const Edge& e) { return t < e.w; });
  return static_cast<size_t>(it - edges_.begin());
}

size_t EngineSnapshot::num_tree_edges() const {
  size_t total = 0;
  for (const auto& s : shards_) total += s->num_nodes();
  return total;
}

}  // namespace dynsld::engine
