#include "engine/replay.hpp"

#include <atomic>
#include <cassert>
#include <chrono>
#include <cmath>
#include <deque>
#include <thread>

#include "parallel/random.hpp"

namespace dynsld::engine {

size_t Trace::num_inserts() const {
  size_t k = 0;
  for (const TraceOp& op : ops) k += op.kind == TraceOp::kInsert;
  return k;
}

Trace Trace::sliding_window(int window, int steps, int per_step,
                            double connect_radius, uint64_t seed) {
  Trace tr;
  tr.num_vertices = static_cast<vertex_id>(window + steps * per_step);
  par::Rng rng(seed);

  struct Point {
    vertex_id id;
    double x, y;
    std::vector<uint32_t> edge_ops;  // indices of insert ops touching it
  };
  std::deque<Point> live;
  vertex_id next_id = 0;

  auto blob_center = [](int t, int b) {
    double phase = 0.08 * t + 2.1 * b;
    return std::pair<double, double>{1.5 + std::cos(phase),
                                     1.5 + std::sin(phase)};
  };
  auto add_point = [&](int t) {
    int b = static_cast<int>(rng.next_bounded(3));
    auto [cx, cy] = blob_center(t, b);
    Point p;
    p.id = next_id++;
    p.x = cx + (rng.next_double() - 0.5) * 0.3;
    p.y = cy + (rng.next_double() - 0.5) * 0.3;
    for (Point& q : live) {
      double d = std::hypot(p.x - q.x, p.y - q.y);
      if (d <= connect_radius) {
        uint32_t op = static_cast<uint32_t>(tr.ops.size());
        tr.ops.push_back(TraceOp{TraceOp::kInsert, p.id, q.id, d, 0});
        p.edge_ops.push_back(op);
        q.edge_ops.push_back(op);
      }
    }
    live.push_back(std::move(p));
  };

  for (int i = 0; i < window; ++i) add_point(0);
  std::vector<char> erased(tr.ops.size(), 0);
  for (int t = 0; t < steps; ++t) {
    for (int i = 0; i < per_step; ++i) {
      for (uint32_t op : live.front().edge_ops) {
        if (op < erased.size() && erased[op]) continue;
        if (op >= erased.size()) erased.resize(op + 1, 0);
        erased[op] = 1;
        tr.ops.push_back(TraceOp{TraceOp::kErase, 0, 0, 0.0, op});
      }
      live.pop_front();
    }
    for (int i = 0; i < per_step; ++i) add_point(t);
    erased.resize(tr.ops.size(), 0);
  }
  return tr;
}

Trace Trace::blocks(int groups, int block, int churn_ops,
                    double cross_fraction, uint64_t seed) {
  Trace tr;
  tr.num_vertices = static_cast<vertex_id>(groups) * block;
  par::Rng rng(seed);
  std::vector<uint32_t> live_ops;  // insert op indices still alive
  for (int i = 0; i < churn_ops; ++i) {
    bool do_erase = !live_ops.empty() && rng.next_double() < 0.35;
    if (do_erase) {
      size_t j = rng.next_bounded(live_ops.size());
      tr.ops.push_back(TraceOp{TraceOp::kErase, 0, 0, 0.0, live_ops[j]});
      live_ops[j] = live_ops.back();
      live_ops.pop_back();
      continue;
    }
    vertex_id u, v;
    if (rng.next_double() < cross_fraction && groups > 1) {
      int ga = static_cast<int>(rng.next_bounded(groups));
      int gb = static_cast<int>(rng.next_bounded(groups - 1));
      if (gb >= ga) ++gb;
      u = static_cast<vertex_id>(ga) * block + rng.next_bounded(block);
      v = static_cast<vertex_id>(gb) * block + rng.next_bounded(block);
    } else {
      int g = static_cast<int>(rng.next_bounded(groups));
      u = static_cast<vertex_id>(g) * block + rng.next_bounded(block);
      do {
        v = static_cast<vertex_id>(g) * block + rng.next_bounded(block);
      } while (v == u);
    }
    live_ops.push_back(static_cast<uint32_t>(tr.ops.size()));
    tr.ops.push_back(
        TraceOp{TraceOp::kInsert, u, v, rng.next_double(), 0});
  }
  return tr;
}

ReplayReport replay(const Trace& trace, SldService& svc,
                    const ReplayOptions& opt) {
  std::atomic<bool> done{false};
  std::atomic<uint64_t> reader_queries{0};
  std::vector<std::thread> readers;
  readers.reserve(opt.reader_threads);
  for (int r = 0; r < opt.reader_threads; ++r) {
    readers.emplace_back([&, r] {
      par::Rng rng(opt.query_seed + 7919 * (r + 1));
      uint64_t local = 0;
      // One query-mix loop for both read paths; `target` yields the
      // ThresholdView to query — reused per epoch (amortized mode) or
      // built fresh per call (one merge resolution per query).
      std::shared_ptr<const ThresholdView> tv;
      auto target = [&]() -> std::shared_ptr<const ThresholdView> {
        if (opt.amortize_views) {
          if (!tv || svc.epoch() != tv->epoch())
            tv = svc.view().at(opt.tau);
          return tv;
        }
        return std::make_shared<const ThresholdView>(svc.snapshot(), opt.tau);
      };
      while (!done.load(std::memory_order_relaxed)) {
        auto t = target();
        vertex_id u = rng.next_bounded(trace.num_vertices);
        vertex_id v = rng.next_bounded(trace.num_vertices);
        switch (rng.next_bounded(3)) {
          case 0:
            t->same_cluster(u, v);
            break;
          case 1:
            t->cluster_size(u);
            break;
          default:
            t->flat_clustering();
            break;
        }
        ++local;
      }
      reader_queries.fetch_add(local, std::memory_order_relaxed);
    });
  }

  uint64_t epochs_before = svc.stats().epochs_published;
  auto t0 = std::chrono::steady_clock::now();
  std::vector<ticket_t> tickets(trace.ops.size(), kNoTicket);
  size_t since_flush = 0;
  for (size_t i = 0; i < trace.ops.size(); ++i) {
    const TraceOp& op = trace.ops[i];
    if (op.kind == TraceOp::kInsert) {
      tickets[i] = svc.insert(op.u, op.v, op.w);
    } else {
      assert(tickets[op.ref] != kNoTicket);
      svc.erase(tickets[op.ref]);
    }
    if (++since_flush >= opt.ops_per_flush) {
      svc.flush();
      since_flush = 0;
    }
  }
  svc.flush();
  double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                t0)
          .count();
  done.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  ReplayReport rep;
  rep.wall_ms = wall_ms;
  rep.ops_applied = trace.ops.size();
  rep.epochs_published = svc.stats().epochs_published - epochs_before;
  rep.reader_queries = reader_queries.load();
  rep.updates_per_s = wall_ms > 0 ? 1e3 * rep.ops_applied / wall_ms : 0.0;
  rep.queries_per_s = wall_ms > 0 ? 1e3 * rep.reader_queries / wall_ms : 0.0;
  return rep;
}

}  // namespace dynsld::engine
