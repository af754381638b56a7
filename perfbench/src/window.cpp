// window: a sliding-window similarity stream with durability and a
// replica.
//
// Points arrive in 24 drifting Gaussian blobs in the unit square; each
// arrival links to its 3 nearest live neighbours within a radius
// (weight = distance). The window holds the last 12,288 arrivals; every
// 8th tick retires the points that fell out, bulk-erasing all their
// edges. Vertex ids are arrival order mod n, so a window spans several
// of the 4 shards x 8,192 vertices and most edges cross shards.
//
// The writer (this thread) runs open-loop at 1,500 arrivals/s in 4 ms
// ticks with the WAL on (fsync off, checkpoint every 64 epochs).
// One in-process net::Replica tails it over a loopback RpcServer; a
// watcher thread stamps when the replica reaches each epoch, and two
// closed-loop read-your-writes clients (2 ms mean think time) send
// AtLeastEpoch{e} bulk queries (FlatClustering / SizeHistogram /
// NumClusters) to the replica.
// The run ends with persist::recover() of the data directory; the
// recovered engine and the replica must answer exactly like the writer.
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <mutex>
#include <thread>
#include <unistd.h>

#include "net/replication.hpp"
#include "net/server.hpp"
#include "persist/persist.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr int kShards = 4;
constexpr vertex_id kShardSize = 4096;
constexpr uint64_t kWindow = 12288;
constexpr double kArrivalsPerSec = 1500;
constexpr uint64_t kTickNs = 8'000'000;
constexpr uint64_t kRetireEvery = 4;  // ticks
constexpr int kBlobs = 24;
constexpr double kSigma = 0.015, kDrift = 0.005;  // unit square, per second
constexpr int kNeighbours = 3;
constexpr double kRadius = 0.05;
constexpr int kGrid = 40;  // cells per side (cell = 0.025 >= kRadius / 2)
constexpr int kReaders = 2;
constexpr double kThinkNs = 2e6;  // mean reader think time
const std::vector<double> kTaus = {0.005, 0.01, 0.02, 0.04};
// Readers ask at two of the ladder's thresholds: each threshold they use
// is a standing broker view the replica refreshes on every publish.
const std::vector<double> kReaderTaus = {0.01, 0.04};

eng::ServiceConfig config(const std::string& dir) {
  eng::ServiceConfig cfg;
  cfg.num_vertices = static_cast<vertex_id>(kShards) * kShardSize;
  cfg.num_shards = kShards;
  cfg.persist.dir = dir;
  // WAL appends and checkpoint files are written, but not fsynced: on
  // a shared virtual disk fsync latency swings by hundreds of ms and is
  // the host's, not the engine's (see README.md).
  cfg.persist.fsync_policy = dynsld::persist::FsyncPolicy::kOff;
  cfg.persist.checkpoint_every = 64;
  return cfg;
}

/// The drifting-blob point stream and its edge bookkeeping.
class BlobStream {
 public:
  explicit BlobStream(uint64_t seed) : rng_(seed), points_(n()), cells_(kGrid * kGrid) {
    for (auto& b : blobs_) {
      b.x0 = 0.1 + 0.8 * rng_.uniform();
      b.y0 = 0.1 + 0.8 * rng_.uniform();
      const double a = 6.283185307179586 * rng_.uniform();
      b.vx = kDrift * std::cos(a);
      b.vy = kDrift * std::sin(a);
    }
  }

  static vertex_id n() { return static_cast<vertex_id>(kShards) * kShardSize; }
  uint64_t arrived() const { return arrived_; }

  /// Admit arrival number arrived(): insert its nearest-neighbour edges.
  template <class Insert>
  void arrive(Insert&& insert) {
    const uint64_t a = arrived_++;
    const vertex_id id = static_cast<vertex_id>(a % n());
    Point& p = points_[id];
    const Blob& b = blobs_[rng_.below(kBlobs)];
    const double t = double(a) / kArrivalsPerSec;
    p.x = clamp01(fold(b.x0 + b.vx * t) + kSigma * rng_.normal());
    p.y = clamp01(fold(b.y0 + b.vy * t) + kSigma * rng_.normal());
    p.edges.clear();
    const int cx = cell_of(p.x), cy = cell_of(p.y);
    // k nearest live points within kRadius among the 5x5 cell block.
    std::pair<double, vertex_id> best[kNeighbours];
    int nb = 0;
    for (int dx = -2; dx <= 2; ++dx)
      for (int dy = -2; dy <= 2; ++dy) {
        const int x = cx + dx, y = cy + dy;
        if (x < 0 || y < 0 || x >= kGrid || y >= kGrid) continue;
        for (vertex_id q : cells_[x * kGrid + y]) {
          const double d = std::hypot(points_[q].x - p.x, points_[q].y - p.y);
          if (d > kRadius) continue;
          // Keep best[0..nb) sorted by distance (insertion).
          if (nb == kNeighbours && d >= best[nb - 1].first) continue;
          int at = nb < kNeighbours ? nb++ : nb - 1;
          for (; at > 0 && best[at - 1].first > d; --at) best[at] = best[at - 1];
          best[at] = {d, q};
        }
      }
    for (int i = 0; i < nb; ++i) {
      const vertex_id q = best[i].second;
      const uint32_t e = static_cast<uint32_t>(edges_.size());
      edges_.push_back({id, q, best[i].first, 0, true, cross(id, q)});
      edges_.back().ticket = insert(id, q, best[i].first);
      p.edges.push_back(e);
      points_[q].edges.push_back(e);
      ++live_edges_;
      cross_live_ += edges_.back().cross;
    }
    p.cell = cx * kGrid + cy;
    cells_[p.cell].push_back(id);
  }

  /// Retire every arrival older than the window; erase all its edges.
  template <class Erase>
  void retire(Erase&& erase) {
    while (retired_ + kWindow < arrived_) {
      const vertex_id id = static_cast<vertex_id>(retired_++ % n());
      Point& p = points_[id];
      for (uint32_t e : p.edges) {
        WEdge& we = edges_[e];
        if (!we.alive) continue;
        we.alive = false;
        --live_edges_;
        cross_live_ -= we.cross;
        erase(we.ticket);
      }
      p.edges.clear();
      auto& c = cells_[p.cell];
      *std::find(c.begin(), c.end(), id) = c.back();
      c.pop_back();
    }
  }

  std::vector<Edge> live_edges() const {
    std::vector<Edge> out;
    for (const auto& e : edges_)
      if (e.alive) out.push_back({e.u, e.v, e.w});
    return out;
  }
  uint64_t live_count() const { return live_edges_; }
  uint64_t cross_live() const { return cross_live_; }

 private:
  struct Blob {
    double x0, y0, vx, vy;
  };
  struct Point {
    double x = 0, y = 0;
    int cell = 0;
    std::vector<uint32_t> edges;  // indices into edges_ (dead ones skipped)
  };
  struct WEdge {
    vertex_id u, v;
    double w;
    ticket_t ticket;
    bool alive, cross;
  };

  /// Reflect a drifting coordinate back into [0.1, 0.9].
  static double fold(double x) {
    const double period = 1.6;
    double r = std::fmod(x - 0.1, period);
    if (r < 0) r += period;
    return 0.1 + (r <= 0.8 ? r : period - r);
  }
  static double clamp01(double x) { return std::min(std::max(x, 0.0), 0.999999); }
  static int cell_of(double x) { return std::min(kGrid - 1, int(x * kGrid)); }
  static bool cross(vertex_id u, vertex_id v) { return u / kShardSize != v / kShardSize; }

  Rng rng_;
  Blob blobs_[kBlobs];
  std::vector<Point> points_;
  std::vector<std::vector<vertex_id>> cells_;
  std::vector<WEdge> edges_;
  uint64_t arrived_ = 0, retired_ = 0, live_edges_ = 0, cross_live_ = 0;
};

struct Setup {
  std::string dir;
  std::unique_ptr<BlobStream> gen;
  std::unique_ptr<eng::SldService> svc;
  std::unique_ptr<dynsld::net::RpcServer> server;
  std::unique_ptr<dynsld::net::Replica> replica;
  uint64_t updates = 0;  // every update the writer was ever sent

  void tear_down() {
    replica.reset();
    server.reset();
    svc.reset();
  }
  ~Setup() {
    tear_down();
    if (!dir.empty()) {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  }
  Setup() = default;
  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;
};

std::unique_ptr<Setup> set_up(const Options& opt, int rep) {
  auto s = std::make_unique<Setup>();
  s->dir = (fs::path(opt.out_dir) /
            ("window-data-" + std::to_string(::getpid()) + "-" + std::to_string(rep)))
               .string();
  std::error_code ec;
  fs::remove_all(s->dir, ec);
  s->gen = std::make_unique<BlobStream>(opt.seed);
  s->svc = std::make_unique<eng::SldService>(config(s->dir));
  // Fill the window (no retirements yet) in flushes of ~512 ops.
  auto insert = [&](vertex_id u, vertex_id v, double w) {
    ++s->updates;
    return s->svc->insert(u, v, w);
  };
  while (s->gen->arrived() < kWindow) {
    for (int i = 0; i < 128 && s->gen->arrived() < kWindow; ++i)
      s->gen->arrive(insert);
    s->svc->flush();
  }
  s->server = std::make_unique<dynsld::net::RpcServer>(*s->svc);
  dynsld::net::Replica::Options ro;
  ro.port = s->server->port();
  ro.cfg.num_vertices = BlobStream::n();
  ro.cfg.num_shards = kShards;
  s->replica = std::make_unique<dynsld::net::Replica>(ro);
  if (!s->replica->wait_for_epoch(s->svc->epoch(), std::chrono::seconds(60)))
    throw std::runtime_error("window: replica did not reach the writer's epoch");
  return s;
}

uint64_t dir_bytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir))
    if (e.is_regular_file()) total += e.file_size();
  return total;
}

/// Answers of one engine at its current epoch on the tau ladder.
std::vector<eng::QueryResult> ladder_answers(const eng::SldService& svc) {
  std::vector<eng::Query> qs;
  for (double tau : kTaus) {
    qs.push_back(eng::FlatClusteringQuery{tau});
    qs.push_back(eng::SizeHistogramQuery{tau});
    qs.push_back(eng::NumClustersQuery{tau});
  }
  return svc.run(qs);
}

/// One flushed epoch handed to the replica watcher.
struct Published {
  uint64_t epoch, flushed_ns;
  std::vector<uint64_t> call_ns;
};

}  // namespace

void run_window(Pass& p) {
  Report& r = p.rep;
  std::unique_ptr<Setup> s;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s.reset();
    const uint64_t t0 = now_ns();
    s = set_up(p.opt, rep);
    setup_s.push_back((now_ns() - t0) / 1e9);
  }
  eng::SldService& svc = *s->svc;
  BlobStream& gen = *s->gen;
  dynsld::net::Replica& replica = *s->replica;
  eng::SldService& rsvc = replica.service();
  r.set("setup_s", median_of(setup_s), "s", "n=" + std::to_string(kSetupReps));

  const auto st0 = svc.stats(), rst0 = rsvc.stats();
  const auto dc0 = DynsldCounters::read();
  const size_t pend0 = svc.pending_updates(), depth0 = rsvc.broker().depth();
  const uint64_t start = now_ns() + 5'000'000;
  const uint64_t stop = start + static_cast<uint64_t>(p.opt.seconds * 1e9);
  std::atomic<uint64_t> last_epoch{svc.epoch()};
  std::atomic<bool> done{false};

  // ---- replica watcher (load thread 1) ----
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Published> queue;  // guarded by mu
  bool queue_closed = false;    // guarded by mu
  Samples rvis_ms, lag_ms;
  uint64_t watch_failures = 0;
  std::thread watcher([&] {
    pin_generator();
    SpanLog* log = p.traced ? &p.log(1) : nullptr;
    for (;;) {
      Published pub;
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return !queue.empty() || queue_closed; });
        if (queue.empty()) return;
        pub = std::move(queue.front());
        queue.pop_front();
      }
      if (!replica.wait_for_epoch(pub.epoch, std::chrono::seconds(10))) {
        ++watch_failures;
        continue;
      }
      const uint64_t t = now_ns();
      lag_ms.add((t - pub.flushed_ns) / 1e6, t);
      for (uint64_t c : pub.call_ns) rvis_ms.add((t - c) / 1e6, t);
      if (log) log->add("repl.apply", pub.flushed_ns, t, 0, pub.epoch);
    }
  });

  // ---- read-your-writes readers on the replica (load threads 2, 3) ----
  struct ReaderOut {
    Samples lat_us;
    Rate answered;
    uint64_t sent = 0, failed = 0, stale = 0;
  };
  std::vector<ReaderOut> readers(kReaders);
  std::vector<std::thread> rth;
  for (int k = 0; k < kReaders; ++k)
    rth.emplace_back([&, k] {
      pin_generator();
      SpanLog* log = p.traced ? &p.log(2 + k) : nullptr;
      ReaderOut& out = readers[k];
      Rng rng(p.opt.seed * 7919 + k);
      while (now_ns() < start) std::this_thread::sleep_for(std::chrono::microseconds(200));
      for (uint64_t i = 0; !done.load(); ++i) {
        // Exponential think time between a reply and the next request,
        // so the readers do not phase-lock onto the writer's ticks.
        wait_until(now_ns() + static_cast<uint64_t>(
                                  -std::log(1.0 - rng.uniform()) * kThinkNs));
        const double tau = kReaderTaus[rng.below(kReaderTaus.size())];
        eng::QueryRequest req;
        switch (i % 3) {
          case 0: req.queries.push_back(eng::FlatClusteringQuery{tau}); break;
          case 1: req.queries.push_back(eng::SizeHistogramQuery{tau}); break;
          default: req.queries.push_back(eng::NumClustersQuery{tau}); break;
        }
        const uint64_t want = last_epoch.load();
        req.consistency = eng::AtLeastEpoch{want};
        req.deadline = Clock::now() + std::chrono::seconds(5);
        const uint64_t t0 = now_ns();
        ++out.sent;
        try {
          eng::ResultSet rs = rsvc.submit(std::move(req)).get();
          const uint64_t t1 = now_ns();
          out.lat_us.add((t1 - t0) / 1e3, t1);
          out.answered.add(1, t1);
          if (log) log->add("replica.query", t0, t1, 0, i);
          out.stale += rs.epoch < want;
        } catch (const std::exception& e) {
          ++out.failed;
          std::fprintf(stderr, "perfbench: window query failed: %s\n", e.what());
        }
      }
    });

  // ---- open-loop writer (load thread 0, this thread) ----
  SpanLog* wlog = p.traced ? &p.log(0) : nullptr;
  FlushLog flog;
  Samples vis_ms, enq_ns;
  Lateness late;
  Rate issued;
  uint64_t ops = 0, erases = 0, end = start;
  std::vector<uint64_t> call_ns;
  const uint64_t a0 = gen.arrived();
  auto timed = [&](auto&& fn) {
    const uint64_t t = now_ns();
    auto out = fn();
    call_ns.push_back(t);
    if (p.traced) enq_ns.add(double(now_ns() - t));
    ++ops;
    issued.add(1, t);
    return out;
  };
  auto insert = [&](vertex_id u, vertex_id v, double w) {
    return timed([&] { return svc.insert(u, v, w); });
  };
  auto erase = [&](ticket_t t) {
    ++erases;
    timed([&] {
      svc.erase(t);
      return 0;
    });
  };
  for (uint64_t tick = 0;; ++tick) {
    const uint64_t due = start + tick * kTickNs;
    if (due >= stop) break;
    wait_until(due);
    late.add(due, now_ns());
    call_ns.clear();
    const uint64_t target =
        a0 + static_cast<uint64_t>(double(tick + 1) * kTickNs / 1e9 * kArrivalsPerSec);
    while (gen.arrived() < target) gen.arrive(insert);
    if (tick % kRetireEvery == kRetireEvery - 1) gen.retire(erase);
    const uint64_t f0 = now_ns();
    const uint64_t epoch = svc.flush();
    end = now_ns();
    for (uint64_t t : call_ns) vis_ms.add((end - t) / 1e6, end);
    flog.record(svc, epoch, f0, end, wlog);
    last_epoch.store(epoch);
    {
      std::lock_guard<std::mutex> lk(mu);
      queue.push_back({epoch, end, call_ns});
    }
    cv.notify_one();
  }
  done.store(true);
  for (auto& t : rth) t.join();
  {
    std::lock_guard<std::mutex> lk(mu);
    queue_closed = true;
  }
  cv.notify_one();
  watcher.join();
  const auto st1 = svc.stats(), rst1 = rsvc.stats();
  const auto dc1 = DynsldCounters::read();
  const size_t pend1 = svc.pending_updates(), depth1 = rsvc.broker().depth();
  s->updates += ops;

  // ---- end-to-end ----
  ReaderOut all;
  for (const auto& o : readers) {
    all.lat_us.append(o.lat_us);
    all.answered.append(o.answered);
    all.sent += o.sent;
    all.failed += o.failed;
    all.stale += o.stale;
  }
  r.set("update_throughput", issued.rate(start, end), "1/s",
        "median of 10 windows; n=" + std::to_string(ops) + " offered open-loop");
  r.timing("visibility_p50_ms", vis_ms, 0.50, 1, "ms");
  r.timing("visibility_p99_ms", vis_ms, 0.99, 1, "ms", false);
  r.timing("replica_visibility_p50_ms", rvis_ms, 0.50, 1, "ms");
  r.timing("replica_visibility_p99_ms", rvis_ms, 0.99, 1, "ms");
  r.timing("query_p50_us", all.lat_us, 0.50, 1, "us");
  r.timing("query_p99_us", all.lat_us, 0.99, 1, "us", false);
  r.share("query_failed_share", double(all.failed), double(all.sent));
  r.set("query_throughput", all.answered.rate(start, end), "1/s",
        "closed loop, " + std::to_string(kReaders) + " readers; median of 10 windows");
  r.add_attempted(ops + all.sent);
  r.add_failed(all.failed + watch_failures);
  r.check(all.stale == 0, std::to_string(all.stale) +
                              " read-your-writes answers older than the epoch asked for");

  // ---- oracle: writer vs Kruskal, replica vs writer ----
  const uint64_t final_epoch = svc.flush();
  const Oracle oracle(BlobStream::n(), gen.live_edges(), kTaus);
  const auto writer_ans = ladder_answers(svc);
  for (size_t i = 0; i < kTaus.size(); ++i)
    for (size_t k = 0; k < 3; ++k) {
      const double tau = kTaus[i];
      const eng::Query q = k == 0   ? eng::Query(eng::FlatClusteringQuery{tau})
                           : k == 1 ? eng::Query(eng::SizeHistogramQuery{tau})
                                    : eng::Query(eng::NumClustersQuery{tau});
      r.check(oracle.check(q, writer_ans[3 * i + k]),
              "window final-epoch answer disagrees with the oracle");
    }
  r.check(replica.wait_for_epoch(final_epoch, std::chrono::seconds(30)),
          "replica did not reach the writer's final epoch");
  r.check(rsvc.epoch() == final_epoch && ladder_answers(rsvc) == writer_ans,
          "replica answers differ from the writer's at its final epoch");

  // ---- durability: disk footprint, then recovery of the directory ----
  const uint64_t disk = dir_bytes(s->dir);
  r.share("disk_bytes_per_update", double(disk), double(s->updates), "B");
  const auto rstats = diff(rst0, rst1);
  s->tear_down();
  const uint64_t rc0 = now_ns();
  auto rec = dynsld::persist::recover(config(s->dir));
  const double recovery_s = (now_ns() - rc0) / 1e9;
  r.set("recovery_s", recovery_s, "s", "n=1");
  r.set("persist.recovery_replayed", double(rec.records_replayed), "count");
  r.check(rec.tip_epoch == final_epoch && ladder_answers(*rec.service) == writer_ans,
          "recovered engine answers differ from the writer's final epoch");
  rec.service.reset();
  r.set("peak_rss_mb", peak_rss_mb(), "MB");

  // ---- generator health ----
  r.timing("gen.lateness_ms.p99", late.ms, 0.99, 1, "ms");
  const double late99 = late.ms.percentile(0.99);
  if (!(late99 <= kMaxLatenessMs) || late.last_ms > kMaxLatenessMs)
    p.invalid = "window: offered update rate not sustained (writer lateness p99 " +
                std::to_string(late99) + " ms)";

  // ---- per-layer ----
  const auto d = diff(st0, st1);
  report_counters(p, d, rstats, dc0, dc1, d.ops_applied + rstats.ops_applied);
  flog.report(p);
  if (p.traced) {
    r.timing("mq.enqueue_ns.p50", enq_ns, 0.50, 1, "ns");
    r.timing("mq.enqueue_ns.p99", enq_ns, 0.99, 1, "ns");
    r.timing("broker.rtt_us.p50", all.lat_us, 0.50, 1, "us");
    r.timing("broker.rtt_us.p99", all.lat_us, 0.99, 1, "us");
    r.timing("repl.lag_ms.p50", lag_ms, 0.50, 1, "ms");
    r.timing("repl.lag_ms.p99", lag_ms, 0.99, 1, "ms");
  }
  r.set("repl.records_applied", double(rstats.repl_records_applied), "count");
  r.set("backlog.pending_updates.start", double(pend0), "count");
  r.set("backlog.pending_updates.end", double(pend1), "count");
  r.set("backlog.broker_depth.start", double(depth0), "count");
  r.set("backlog.broker_depth.end", double(depth1), "count");

  Shape shape;
  shape.n = BlobStream::n();
  shape.live_edges = gen.live_count();
  shape.cross_live = gen.cross_live();
  shape.oracle = &oracle;
  shape.erases = erases;
  shape.updates = ops;
  shape.ops_per_flush = ratio(double(d.ops_applied), double(d.flushes));
  shape.report(r);
  flog.print_split("window");
}

}  // namespace perfbench
