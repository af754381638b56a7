// Block-local churn generator (ingest and serve workloads).
//
// Vertices are split into `shards` contiguous ranges of `shard_size`
// (the engine's shard map for n = shards * shard_size) and each range
// into blocks of `block` vertices. An insert joins two vertices of one
// block, except a `cross` share whose second endpoint lies in another
// shard; an erase removes a random live edge. Erases are `erase` of
// all ops (while edges are live). Weights are uniform in [0, 1).
//
// `hot` skews the home shard of each op: with probability `hot` the
// op lands in shard 0, otherwise in a uniformly chosen shard. Live
// edges are kept per home shard so erases follow the same skew.
//
// The generator owns the live-edge set the oracle is built from; the
// caller binds the engine's ticket to each insert it issues.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/types.hpp"
#include "measure.hpp"
#include "workload.hpp"

namespace perfbench {

class BlockChurn {
 public:
  struct Params {
    int shards = 4;
    vertex_id shard_size = 65536;
    vertex_id block = 64;
    double erase = 0.35;
    double cross = 0.03;
    double hot = 0.0;
  };

  struct Op {
    bool insert;
    vertex_id u, v;
    double w;
    ticket_t ticket;  // erase: ticket of the edge to erase
  };

  BlockChurn(Params p, uint64_t seed) : p_(p), rng_(seed), live_(p.shards) {}

  vertex_id n() const { return static_cast<vertex_id>(p_.shards) * p_.shard_size; }

  /// Next op. For an insert the caller must call bind(ticket) before
  /// drawing again.
  Op next() { return next(p_.erase); }

  /// Next op with an explicit erase probability (preload uses 0).
  Op next(double erase_p) {
    const int shard = pick_shard();
    auto& L = live_[shard];
    if (!L.empty() && rng_.uniform() < erase_p) {
      const size_t j = rng_.below(L.size());
      const Live e = L[j];
      L[j] = L.back();
      L.pop_back();
      --live_count_;
      cross_count_ -= e.cross;
      ++erases_;
      return {false, e.u, e.v, e.w, e.ticket};
    }
    const vertex_id base = static_cast<vertex_id>(shard) * p_.shard_size;
    const vertex_id blk = static_cast<vertex_id>(rng_.below(p_.shard_size / p_.block));
    const vertex_id u = base + blk * p_.block +
                        static_cast<vertex_id>(rng_.below(p_.block));
    vertex_id v;
    bool cross = false;
    if (p_.shards > 1 && rng_.uniform() < p_.cross) {
      int other = static_cast<int>(rng_.below(p_.shards - 1));
      if (other >= shard) ++other;
      v = static_cast<vertex_id>(other) * p_.shard_size +
          static_cast<vertex_id>(rng_.below(p_.shard_size));
      cross = true;
    } else {
      do {
        v = base + blk * p_.block + static_cast<vertex_id>(rng_.below(p_.block));
      } while (v == u);
    }
    const double w = rng_.uniform();
    pending_ = {u, v, w, 0, cross, shard};
    ++inserts_;
    return {true, u, v, w, 0};
  }

  /// Record the engine ticket of the insert next() just returned.
  void bind(ticket_t t) {
    pending_.ticket = t;
    live_[pending_.shard].push_back(pending_);
    ++live_count_;
    cross_count_ += pending_.cross;
  }

  std::vector<Edge> live_edges() const {
    std::vector<Edge> out;
    out.reserve(live_count_);
    for (const auto& L : live_)
      for (const auto& e : L) out.push_back({e.u, e.v, e.w});
    return out;
  }
  uint64_t live_count() const { return live_count_; }
  uint64_t cross_live() const { return cross_count_; }
  uint64_t inserts() const { return inserts_; }
  uint64_t erases() const { return erases_; }

 private:
  struct Live {
    vertex_id u, v;
    double w;
    ticket_t ticket;
    bool cross;
    int shard;
  };

  int pick_shard() {
    if (p_.hot > 0 && rng_.uniform() < p_.hot) return 0;
    return static_cast<int>(rng_.below(p_.shards));
  }

  Params p_;
  Rng rng_;
  std::vector<std::vector<Live>> live_;
  Live pending_{};
  uint64_t live_count_ = 0, cross_count_ = 0, inserts_ = 0, erases_ = 0;
};

/// Issue one generator op against the service; returns true for an
/// insert. Keeps the generator's ticket binding in step.
inline bool apply_op(eng::SldService& svc, BlockChurn& gen,
                     const BlockChurn::Op& op) {
  if (op.insert) {
    gen.bind(svc.insert(op.u, op.v, op.w));
    return true;
  }
  svc.erase(op.ticket);
  return false;
}

/// Preload `edges` inserts in flushes of `batch` ops (setup, untimed
/// per op).
inline void preload(eng::SldService& svc, BlockChurn& gen, uint64_t edges,
                    size_t batch = 8192) {
  for (uint64_t i = 0; i < edges; ++i) {
    apply_op(svc, gen, gen.next(0.0));
    if ((i + 1) % batch == 0) svc.flush();
  }
  svc.flush();
}

}  // namespace perfbench
