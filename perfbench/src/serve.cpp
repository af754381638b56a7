// serve: the read path.
//
// Setup preloads block-local churn of the ingest shape (4 shards x
// 65,536 vertices, 0.4 n live edges) and puts the service behind a
// loopback RpcServer. Three client connections then send an open-loop
// query stream on a fixed schedule — mostly SameCluster/ClusterSize,
// some NumClusters, a few bulk SizeHistogram, over a four-step tau
// ladder — while a fourth thread writes a trickle of small batches
// skewed to shard 0 so epochs keep moving.
//
// The first half of the run holds the nominal rate (query latency is
// taken there); the next 30% climbs a fixed ladder of offered rates and
// reports the highest step meeting the latency limit with no growing
// backlog (query_capacity); the last 20% is a closed-loop burst, every
// client sending on the previous answer (query_throughput). Every fourth wire answer is
// re-asked in-process at AsOf{its epoch} and must match.
#include <atomic>
#include <cstdio>
#include <thread>

#include "churn.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kShards = 4;
constexpr vertex_id kShardSize = 65536;
constexpr double kPreloadPerVertex = 0.4;
constexpr int kClients = 3;
constexpr double kNominalQps = 1200;
// Shares of the run: nominal rate, then the rate ladder, then a
// closed-loop burst (every client sends on the previous answer).
constexpr double kNominalShare = 0.5, kLadderShare = 0.3;
const std::vector<double> kLadderQps = {3000, 6000, 12000, 24000};
constexpr double kLimitUs = 50000;  // capacity: p99 at or under this
constexpr int kMirrorEvery = 4;
constexpr uint64_t kTrickleTickNs = 50'000'000;  // 50 ms: 20 epochs/s
constexpr int kTrickleOps = 48;
constexpr double kTrickleHot = 1.0;
const std::vector<double> kTaus = {0.1, 0.25, 0.5, 0.75};

eng::ServiceConfig config() {
  eng::ServiceConfig cfg;
  cfg.num_vertices = static_cast<vertex_id>(kShards) * kShardSize;
  cfg.num_shards = kShards;
  cfg.retain_epochs = 64;  // AsOf mirrors of recent wire answers
  return cfg;
}

struct Setup {
  std::unique_ptr<BlockChurn> gen;
  std::unique_ptr<eng::SldService> svc;
  std::unique_ptr<dynsld::net::RpcServer> server;
  std::vector<std::unique_ptr<dynsld::net::RpcClient>> clients;
  // Members die in reverse: clients, then server, then the service.
};

std::unique_ptr<Setup> set_up(uint64_t seed) {
  auto s = std::make_unique<Setup>();
  BlockChurn::Params gp;
  gp.shards = kShards;
  gp.shard_size = kShardSize;
  gp.hot = kTrickleHot;
  s->gen = std::make_unique<BlockChurn>(gp, seed);
  s->svc = std::make_unique<eng::SldService>(config());
  preload(*s->svc, *s->gen,
          static_cast<uint64_t>(kPreloadPerVertex * s->gen->n()));
  s->server = std::make_unique<dynsld::net::RpcServer>(*s->svc);
  for (int c = 0; c < kClients; ++c)
    s->clients.push_back(std::make_unique<dynsld::net::RpcClient>(
        "127.0.0.1", s->server->port()));
  return s;
}

/// One client connection's results for one phase.
struct ClientOut {
  Samples lat_us, net_us, broker_us;
  Lateness late;
  uint64_t sent = 0, failed = 0, mismatched = 0;
};

/// Drive one connection open-loop at rate/kClients over [t0, t1).
void client_phase(int k, double rate, uint64_t t0, uint64_t t1,
                  dynsld::net::RpcClient& cli, const eng::SldService& svc,
                  const QueryMix& mix, Rng& rng, bool traced, SpanLog* log,
                  ClientOut& out) {
  const double period_ns = 1e9 * kClients / rate;
  const uint64_t first = t0 + static_cast<uint64_t>(period_ns * k / kClients);
  for (uint64_t i = 0;; ++i) {
    const uint64_t due = first + static_cast<uint64_t>(period_ns * double(i));
    if (due >= t1) break;
    eng::QueryRequest req;
    req.queries.push_back(mix.draw(rng));
    wait_until(due);
    const uint64_t sent = now_ns();
    out.late.add(due, sent);
    ++out.sent;
    try {
      eng::ResultSet rs = cli.query(req);
      const uint64_t done = now_ns();
      out.lat_us.add((done - due) / 1e3, done);
      out.net_us.add((done - sent) / 1e3, done);
      uint32_t span = 0;
      if (log) {
        span = log->add("query", due, done, 0, i);
        log->add("query.schedule_wait", due, sent, span, i);
        log->add("net.rpc", sent, done, span, i);
      }
      if (i % kMirrorEvery == 0) {
        eng::QueryRequest m = req;
        m.consistency = eng::AsOf{rs.epoch};
        const uint64_t m0 = now_ns();
        eng::ResultSet ms = svc.submit(std::move(m)).get();
        const uint64_t m1 = now_ns();
        if (traced) {
          out.broker_us.add((m1 - m0) / 1e3, m1);
          log->add("broker.mirror", m0, m1, 0, i);
        }
        if (ms.epoch != rs.epoch || ms.results != rs.results) ++out.mismatched;
      }
    } catch (const std::exception& e) {
      ++out.failed;
      out.lat_us.add(1e12);  // a failed query misses any latency limit
      std::fprintf(stderr, "perfbench: serve query failed: %s\n", e.what());
    }
  }
}

}  // namespace

void run_serve(Pass& p) {
  Report& r = p.rep;
  std::unique_ptr<Setup> s;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s.reset();  // tear the previous setup down before building the next
    const uint64_t t0 = now_ns();
    s = set_up(p.opt.seed);
    setup_s.push_back((now_ns() - t0) / 1e9);
  }
  eng::SldService& svc = *s->svc;
  BlockChurn& gen = *s->gen;
  r.set("setup_s", median_of(setup_s), "s", "n=" + std::to_string(kSetupReps));

  QueryMix mix;
  mix.taus = kTaus;
  mix.n = gen.n();
  const double nominal_s = p.opt.seconds * kNominalShare;
  const double step_s =
      p.opt.seconds * kLadderShare / double(kLadderQps.size());

  const auto st0 = svc.stats();
  const auto dc0 = DynsldCounters::read();
  const uint64_t ins0 = gen.inserts(), era0 = gen.erases();
  const size_t pend0 = svc.pending_updates(), depth0 = svc.broker().depth();
  const uint64_t start = now_ns() + 5'000'000;  // every thread starts on time
  const uint64_t nominal_end = start + static_cast<uint64_t>(nominal_s * 1e9);
  const uint64_t ladder_end =
      nominal_end + static_cast<uint64_t>(step_s * 1e9 * kLadderQps.size());
  const uint64_t run_end =
      start + static_cast<uint64_t>(p.opt.seconds * 1e9);

  // ---- trickle writer (load thread 0) ----
  FlushLog flog;
  Samples vis_ms, enq_ns;
  Lateness wlate;
  Rate issued;
  uint64_t wops = 0;
  uint64_t wend = start;
  std::atomic<bool> stop_writer{false};
  // The trickle writer stays on the engine's CPUs: its flush() is engine
  // work.
  std::thread writer([&] {
    SpanLog* log = p.traced ? &p.log(0) : nullptr;
    std::vector<uint64_t> call_ns;
    for (uint64_t tick = 0;; ++tick) {
      const uint64_t due = start + tick * kTrickleTickNs;
      if (due >= run_end || stop_writer.load()) break;
      wait_until(due);
      wlate.add(due, now_ns());
      call_ns.clear();
      for (int i = 0; i < kTrickleOps; ++i) {
        const BlockChurn::Op op = gen.next();
        const uint64_t t = now_ns();
        apply_op(svc, gen, op);
        call_ns.push_back(t);
        if (p.traced) enq_ns.add(double(now_ns() - t));
      }
      wops += kTrickleOps;
      issued.add(kTrickleOps, now_ns());
      const uint64_t f0 = now_ns();
      const uint64_t epoch = svc.flush();
      const uint64_t f1 = now_ns();
      for (uint64_t t : call_ns) vis_ms.add((f1 - t) / 1e6, f1);
      flog.record(svc, epoch, f0, f1, log);
      wend = f1;
    }
  });

  // ---- clients (load threads 1..3): nominal phase, then the ladder ----
  std::vector<ClientOut> nominal(kClients);
  std::vector<std::vector<ClientOut>> ladder(
      kLadderQps.size(), std::vector<ClientOut>(kClients));
  std::atomic<int> ladder_steps_run{0};
  std::vector<Rate> burst(kClients);
  std::vector<uint64_t> burst_failed(kClients, 0);
  {
    std::vector<std::thread> th;
    std::atomic<bool> step_failed{false};
    for (int k = 0; k < kClients; ++k)
      th.emplace_back([&, k] {
        pin_generator();
        Rng rng(p.opt.seed * 1000003ull + 17 + k);
        SpanLog* log = p.traced ? &p.log(1 + k) : nullptr;
        client_phase(k, kNominalQps, start, nominal_end, *s->clients[k], svc,
                     mix, rng, p.traced, log, nominal[k]);
        // The ladder's steps are not traced: span recording would bias
        // the capacity probe, and the per-layer figures come from the
        // nominal phase.
        for (size_t st = 0; st < kLadderQps.size(); ++st) {
          const uint64_t a = nominal_end + static_cast<uint64_t>(step_s * 1e9 * st);
          const uint64_t b = a + static_cast<uint64_t>(step_s * 1e9);
          if (step_failed.load()) break;
          client_phase(k, kLadderQps[st], a, b, *s->clients[k], svc, mix, rng,
                       false, nullptr, ladder[st][k]);
          if (k == 0) ladder_steps_run.store(int(st) + 1);
          // A step that missed its limit ends the climb for all clients
          // at the next step boundary.
          const ClientOut& o = ladder[st][k];
          if (o.failed || o.late.last_ms > kLimitUs / 1e3) step_failed.store(true);
        }
        wait_until(ladder_end);
        while (now_ns() < run_end) {
          eng::QueryRequest req;
          req.queries.push_back(mix.draw(rng));
          try {
            (void)s->clients[k]->query(req);
            burst[k].add(1, now_ns());
          } catch (const std::exception& e) {
            ++burst_failed[k];
            std::fprintf(stderr, "perfbench: serve query failed: %s\n", e.what());
          }
        }
      });
    for (auto& t : th) t.join();
  }
  stop_writer.store(true);
  writer.join();
  const auto st1 = svc.stats();
  const auto dc1 = DynsldCounters::read();
  const size_t pend1 = svc.pending_updates(), depth1 = svc.broker().depth();

  // ---- end-to-end ----
  ClientOut all;
  for (const auto& o : nominal) {
    all.lat_us.append(o.lat_us);
    all.net_us.append(o.net_us);
    all.broker_us.append(o.broker_us);
    all.late.ms.append(o.late.ms);
    all.late.last_ms = std::max(all.late.last_ms, o.late.last_ms);
    all.sent += o.sent;
    all.failed += o.failed;
    all.mismatched += o.mismatched;
  }
  r.set("update_throughput", issued.rate(start, wend), "1/s",
        "median of 10 windows; n=" + std::to_string(wops) + " trickle updates");
  r.timing("visibility_p50_ms", vis_ms, 0.50, 1, "ms");
  r.timing("visibility_p99_ms", vis_ms, 0.99, 1, "ms", false);
  r.timing("query_p50_us", all.lat_us, 0.50, 1, "us");
  r.timing("query_p99_us", all.lat_us, 0.99, 1, "us", false);
  r.share("query_failed_share", double(all.failed), double(all.sent));
  r.set("peak_rss_mb", peak_rss_mb(), "MB");

  // Capacity: highest ladder step whose p99 met the limit with no
  // failures and no backlog left at the step's end.
  double capacity = 0;
  uint64_t ladder_sent = 0, ladder_failed = 0;
  for (int st = 0; st < ladder_steps_run.load(); ++st) {
    ClientOut step;
    double last = 0;
    for (const auto& o : ladder[st]) {
      step.lat_us.append(o.lat_us);
      step.sent += o.sent;
      step.failed += o.failed;
      step.mismatched += o.mismatched;
      last = std::max(last, o.late.last_ms);
    }
    ladder_sent += step.sent;
    ladder_failed += step.failed;
    all.mismatched += step.mismatched;
    const double p99 = step.lat_us.percentile(0.99);
    const bool ok = !std::isnan(p99) && p99 <= kLimitUs && step.failed == 0 &&
                    last <= kLimitUs / 1e3;
    std::printf("ladder serve %.0f q/s: p99 %.1f us over n=%zu, end lateness "
                "%.3f ms, failed %llu -> %s\n",
                kLadderQps[st], p99, step.lat_us.size(), last,
                static_cast<unsigned long long>(step.failed),
                ok ? "meets limit" : "misses limit");
    if (!ok) break;
    capacity = kLadderQps[st];
  }
  r.set("query_capacity", capacity, "1/s",
        "limit p99<=" + std::to_string(int(kLimitUs)) + "us");
  Rate answered;
  uint64_t burst_sent = 0;
  for (int k = 0; k < kClients; ++k) {
    answered.append(burst[k]);
    ladder_failed += burst_failed[k];
    burst_sent += burst_failed[k];
  }
  burst_sent += answered.count();
  ladder_sent += burst_sent;
  r.set("query_throughput", answered.rate(ladder_end, run_end), "1/s",
        "closed loop, " + std::to_string(kClients) + " connections; median of 10 windows");

  // ---- oracle: final epoch on the tau ladder, in-process and wire ----
  const uint64_t final_epoch = svc.flush();
  const Oracle oracle(gen.n(), gen.live_edges(), kTaus);
  r.check(all.mismatched == 0,
          std::to_string(all.mismatched) +
              " wire answers differ from in-process AsOf answers");
  for (size_t i = 0; i < oracle.num_taus(); ++i) {
    const double tau = oracle.tau(i);
    eng::QueryRequest req;
    req.queries = {eng::NumClustersQuery{tau}, eng::SizeHistogramQuery{tau}};
    const auto local = svc.run(req.queries);
    const eng::ResultSet wire = s->clients[0]->query(req);
    for (int k = 0; k < 2; ++k) {
      r.check(oracle.check(req.queries[k], local[k]),
              "serve final-epoch answer disagrees with the oracle");
      r.check(wire.epoch == final_epoch && wire.results[k] == local[k],
              "serve wire answer differs at the final epoch");
    }
  }
  r.add_attempted(wops + all.sent + ladder_sent);
  r.add_failed(all.failed + ladder_failed);

  // ---- generator health: an unsustained schedule invalidates the run ----
  Lateness late_all = all.late;
  r.timing("gen.lateness_ms.p99", late_all.ms, 0.99, 1, "ms");
  const double late99 = late_all.ms.percentile(0.99);
  if (!(late99 <= kMaxLatenessMs) || all.late.last_ms > kMaxLatenessMs ||
      wlate.last_ms > kMaxLatenessMs)
    p.invalid = "serve: offered query rate or write trickle not sustained "
                "(lateness p99 " + std::to_string(late99) + " ms)";

  // ---- per-layer ----
  const auto d = diff(st0, st1);
  report_counters(p, d, d, dc0, dc1, d.ops_applied);
  flog.report(p);
  if (p.traced) {
    r.timing("mq.enqueue_ns.p50", enq_ns, 0.50, 1, "ns");
    r.timing("mq.enqueue_ns.p99", enq_ns, 0.99, 1, "ns");
    r.timing("net.rtt_us.p50", all.net_us, 0.50, 1, "us");
    r.timing("net.rtt_us.p99", all.net_us, 0.99, 1, "us");
    r.timing("broker.rtt_us.p50", all.broker_us, 0.50, 1, "us");
    r.timing("broker.rtt_us.p99", all.broker_us, 0.99, 1, "us");
    const auto* net50 = r.find("net.rtt_us.p50");
    const auto* br50 = r.find("broker.rtt_us.p50");
    r.set("net.tax_us.p50", net50->value - br50->value, "us");
  }
  r.share("net.bytes_per_query", double(d.net_bytes_in + d.net_bytes_out),
          double(all.sent + ladder_sent), "B");
  r.set("backlog.pending_updates.start", double(pend0), "count");
  r.set("backlog.pending_updates.end", double(pend1), "count");
  r.set("backlog.broker_depth.start", double(depth0), "count");
  r.set("backlog.broker_depth.end", double(depth1), "count");

  Shape shape;
  shape.n = gen.n();
  shape.live_edges = gen.live_count();
  shape.cross_live = gen.cross_live();
  shape.oracle = &oracle;
  shape.erases = gen.erases() - era0;
  shape.updates = (gen.inserts() - ins0) + shape.erases;
  shape.ops_per_flush = ratio(double(d.ops_applied), double(d.flushes));
  shape.report(r);
  flog.print_split("serve");
}

}  // namespace perfbench
