// ingest: the write path alone.
//
// One writer in a closed loop issues insert/erase and calls flush()
// every 256 ops, over block-local churn on 4 shards x 65,536 vertices
// (35% erases, 3% cross-shard edges, graph preloaded to 0.25 n live
// edges so it stays mostly a forest). No readers and no persistence
// run while the writer does.
//
// Before the timed phase, the same thread reads the preloaded epoch
// back through submit(), closed-loop, and checks every answer against
// the Kruskal oracle; those reads give the workload's query latency.
// They run on the preloaded graph, which depends only on the seed, so
// a faster write path (which grows the graph further in its timed
// phase) does not change what the reads see.
#include <cstdio>

#include "churn.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kShards = 4;
constexpr vertex_id kShardSize = 65536;
constexpr size_t kFlushEvery = 256;
constexpr double kPreloadPerVertex = 0.25;
constexpr size_t kReadBack = 5000;
// An eight-step ladder: a closed-loop reader touching one threshold per
// request leaves each threshold idle for many broker dispatch cycles, so
// the read-back also pays the broker's idle-view eviction and
// re-resolution (its p99 sits in that regime).
const std::vector<double> kTaus = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8};

BlockChurn::Params params() {
  BlockChurn::Params p;
  p.shards = kShards;
  p.shard_size = kShardSize;
  return p;
}

eng::ServiceConfig config() {
  eng::ServiceConfig cfg;
  cfg.num_vertices = static_cast<vertex_id>(kShards) * kShardSize;
  cfg.num_shards = kShards;
  return cfg;
}

struct Setup {
  std::unique_ptr<eng::SldService> svc;
  std::unique_ptr<BlockChurn> gen;
};

Setup set_up(uint64_t seed) {
  Setup s;
  s.gen = std::make_unique<BlockChurn>(params(), seed);
  s.svc = std::make_unique<eng::SldService>(config());
  preload(*s.svc, *s.gen,
          static_cast<uint64_t>(kPreloadPerVertex * s.gen->n()));
  return s;
}

}  // namespace

void run_ingest(Pass& p) {
  Report& r = p.rep;
  Setup s;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s = Setup{};  // release the previous setup before building the next
    const uint64_t t0 = now_ns();
    s = set_up(p.opt.seed);
    setup_s.push_back((now_ns() - t0) / 1e9);
  }
  eng::SldService& svc = *s.svc;
  BlockChurn& gen = *s.gen;
  r.set("setup_s", median_of(setup_s), "s", "n=" + std::to_string(kSetupReps));

  // ---- read-back of the preloaded epoch against the oracle ----
  SpanLog* log = p.traced ? &p.log(0) : nullptr;
  Samples q_us;
  Rate answered;
  uint64_t qfailed = 0;
  const uint64_t rb0 = now_ns();
  {
    const Oracle oracle(gen.n(), gen.live_edges(), kTaus);
    QueryMix mix;
    mix.taus = kTaus;
    mix.n = gen.n();
    mix.count = 1.0 - mix.same - mix.size;  // point reads only
    Rng qrng(p.opt.seed ^ 0x5eedf00dull);
    for (size_t i = 0; i < kReadBack; ++i) {
      eng::QueryRequest req;
      req.queries.push_back(mix.draw(qrng));
      const uint64_t t0 = now_ns();
      try {
        eng::ResultSet rs = svc.submit(req).get();
        const uint64_t t1 = now_ns();
        q_us.add((t1 - t0) / 1e3, t1);
        answered.add(1, t1);
        if (log) log->add("broker.query", t0, t1, 0, i);
        r.check(rs.results.size() == 1 && oracle.check(req.queries[0], rs.results[0]),
                "ingest read-back answer disagrees with the oracle");
      } catch (const std::exception& e) {
        ++qfailed;
        std::fprintf(stderr, "perfbench: ingest query failed: %s\n", e.what());
      }
    }
  }
  r.add_attempted(kReadBack);
  r.add_failed(qfailed);
  r.timing("query_p50_us", q_us, 0.50, 1, "us");
  r.timing("query_p99_us", q_us, 0.99, 1, "us", false);
  r.share("query_failed_share", double(qfailed), double(kReadBack));
  r.set("query_throughput", answered.rate(rb0, now_ns()), "1/s",
        "closed loop, 1 client; median of 10 windows");

  // ---- timed write phase ----
  FlushLog flog;
  Samples vis_ms, enq_ns;
  Rate applied;
  std::vector<uint64_t> call_ns;
  call_ns.reserve(kFlushEvery);
  const auto st0 = svc.stats();
  const auto dc0 = DynsldCounters::read();
  const uint64_t ins0 = gen.inserts(), era0 = gen.erases();
  const size_t pend0 = svc.pending_updates(), depth0 = svc.broker().depth();
  const uint64_t start = now_ns();
  const uint64_t stop = start + static_cast<uint64_t>(p.opt.seconds * 1e9);
  uint64_t ops = 0, end = start;
  while (end < stop) {
    call_ns.clear();
    for (size_t i = 0; i < kFlushEvery; ++i) {
      const BlockChurn::Op op = gen.next();
      const uint64_t t = now_ns();
      apply_op(svc, gen, op);
      call_ns.push_back(t);
      if (p.traced) {
        const uint64_t t1 = now_ns();
        enq_ns.add(double(t1 - t), t1);
        if ((ops + i) % 64 == 0)
          log->add(op.insert ? "mq.insert" : "mq.erase", t, t1, 0, ops + i);
      }
    }
    ops += kFlushEvery;
    const uint64_t f0 = now_ns();
    const uint64_t epoch = svc.flush();
    end = now_ns();
    for (uint64_t t : call_ns) vis_ms.add((end - t) / 1e6, end);
    applied.add(kFlushEvery, end);
    flog.record(svc, epoch, f0, end, log);
  }
  const auto st1 = svc.stats();
  const auto dc1 = DynsldCounters::read();
  r.add_attempted(ops);
  r.set("update_throughput", applied.rate(start, end), "1/s",
        "median of 10 windows; n=" + std::to_string(ops));
  r.timing("visibility_p50_ms", vis_ms, 0.50, 1, "ms");
  r.timing("visibility_p99_ms", vis_ms, 0.99, 1, "ms", false);
  r.set("peak_rss_mb", peak_rss_mb(), "MB");

  // ---- the final epoch against the oracle on the tau ladder ----
  const Oracle oracle(gen.n(), gen.live_edges(), kTaus);
  for (size_t i = 0; i < oracle.num_taus(); ++i) {
    const double tau = oracle.tau(i);
    const eng::Query qs[] = {eng::NumClustersQuery{tau},
                             eng::SizeHistogramQuery{tau}};
    const auto res = svc.run(qs);
    for (int k = 0; k < 2; ++k)
      r.check(oracle.check(qs[k], res[k]),
              "ingest final-epoch ladder answer disagrees with the oracle");
  }

  // ---- per-layer ----
  const auto d = diff(st0, st1);
  report_counters(p, d, d, dc0, dc1, d.ops_applied);
  flog.report(p);
  if (p.traced) {
    r.timing("mq.enqueue_ns.p50", enq_ns, 0.50, 1, "ns");
    r.timing("mq.enqueue_ns.p99", enq_ns, 0.99, 1, "ns");
    r.timing("broker.rtt_us.p50", q_us, 0.50, 1, "us");
    r.timing("broker.rtt_us.p99", q_us, 0.99, 1, "us");
  }
  r.set("backlog.pending_updates.start", double(pend0), "count");
  r.set("backlog.pending_updates.end", double(svc.pending_updates()), "count");
  r.set("backlog.broker_depth.start", double(depth0), "count");
  r.set("backlog.broker_depth.end", double(svc.broker().depth()), "count");

  Shape shape;
  shape.n = gen.n();
  shape.live_edges = gen.live_count();
  shape.cross_live = gen.cross_live();
  shape.oracle = &oracle;
  shape.erases = gen.erases() - era0;
  shape.updates = (gen.inserts() - ins0) + shape.erases;
  shape.ops_per_flush = ratio(double(d.ops_applied), double(d.flushes));
  shape.report(r);
  flog.print_split("ingest");
}

}  // namespace perfbench
