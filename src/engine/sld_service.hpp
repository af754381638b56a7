// SldService: the concurrent serving layer over the paper's dynamic
// SLD machinery — the piece that lets queries stream in *while* the
// dendrogram is being updated.
//
//   writer side                          reader side
//   -----------                          -----------
//   insert()/erase() -> MutationQueue    submit(QueryRequest)
//        | drain (coalesced)                  | -> future<ResultSet>
//        v                                    v
//   ShardRouter::apply  ---- publish ---> QueryBroker (intake ->
//   (per-shard batches,        |          dispatcher: group clients by
//    Thm 1.1/1.2/1.5)          |          (epoch, tau), one view per
//                              |          group, fulfill futures)
//                              +--------> EpochManager / Subscription-
//                                         Hub (pinned views: ClusterView
//                                         / SubscribedView escape hatch)
//
// Mutations are cheap enqueues returning a ticket; a flush (caller-
// driven via flush(), or the background writer thread) drains the
// queue, applies the coalesced batch through the sharded backend with
// the per-theorem batch algorithms, freezes the changed shards into a
// new immutable snapshot, and publishes it as the next epoch. Readers
// never block writers and vice versa: a reader holds a shared_ptr to
// its epoch for as long as it likes.
//
// Queries default through the asynchronous request plane: submit() a
// QueryRequest (deadline + consistency mode + cancellation token) and
// get a std::future<ResultSet>; the broker batches concurrent clients'
// requests into (epoch, tau) groups so the merge resolution is paid
// once per group fleet-wide, not per caller (broker.hpp). The sync
// surfaces — run() and the single-shot conveniences — are thin
// submit-and-wait wrappers over one-element requests. Power users who
// want explicit epoch pinning keep ClusterView / SubscribedView.
//
// Long-lived readers subscribe instead of polling: every publish
// notifies the SubscriptionHub, and a SubscribedView refreshes its
// resolved ThresholdViews incrementally against the epoch's delta
// metadata (subscription.hpp) rather than rebuilding per epoch. The
// broker's dispatcher rides the same publish signal as a system
// subscriber.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>

#include "engine/broker.hpp"
#include "engine/cluster_view.hpp"
#include "engine/epoch.hpp"
#include "engine/mutation_queue.hpp"
#include "engine/query.hpp"
#include "engine/shard_router.hpp"
#include "engine/stats.hpp"
#include "engine/subscription.hpp"
#include "obs/export.hpp"
#include "persist/options.hpp"

namespace dynsld::persist {
class PersistenceManager;  // persist/persist.hpp
}

namespace dynsld::engine {

/// Construction-time knobs of an SldService.
struct ServiceConfig {
  vertex_id num_vertices = 0;
  int num_shards = 1;
  /// Background writer flushes when this many ops are pending...
  size_t flush_threshold = 256;
  /// ...or this much time passed since the last flush, whichever first.
  std::chrono::microseconds flush_interval{200};
  /// Epoch snapshots carry their full edge set (verification mode).
  bool capture_edges = false;
  /// Dirty-shard snapshots patch the previous epoch's arrays
  /// copy-on-write when the batch's structural footprint is small
  /// (retained contraction-round state; engine/contraction.hpp). Off:
  /// every dirty shard rebuilds from scratch — the comparison baseline;
  /// either way the published snapshots are bit-identical.
  bool incremental_snapshots = true;
  /// Broker admission control: submits beyond this many in-flight
  /// requests are rejected with QueryError{kAdmissionRejected}.
  size_t broker_queue_depth = 4096;
  /// Superseded epochs kept alive in memory for AsOf{epoch} time
  /// travel (0 = current epoch only; each retained epoch pins its
  /// snapshot's memory).
  size_t retain_epochs = 8;
  /// Durability (persist/options.hpp): an empty dir disables the whole
  /// persistence plane. A non-empty dir must not hold prior WAL or
  /// checkpoint state — resume an existing directory through
  /// persist::recover() instead.
  persist::PersistOptions persist;
};

/// The serving engine's facade: thread-safe update enqueue + flush on
/// the writer side, epoch-pinned views/subscriptions on the reader
/// side. Readers never block writers and vice versa; any state a
/// reader obtains (snapshot(), view(), SubscribedView) stays valid and
/// self-consistent no matter how many flushes happen meanwhile.
class SldService {
 public:
  /// Construct with epoch 0 published (the empty snapshot) and the
  /// broker dispatcher running.
  explicit SldService(const ServiceConfig& cfg);
  /// Shuts the broker down (in-flight futures resolve with
  /// QueryError{kShutdown}) and stops the background writer. Destroy
  /// all SubscribedViews first.
  ~SldService();

  SldService(const SldService&) = delete;
  SldService& operator=(const SldService&) = delete;

  // ---- update front-end (thread-safe) ----

  /// Enqueue an edge insertion; returns its ticket immediately. The
  /// edge becomes visible to readers at the next published epoch.
  ticket_t insert(vertex_id u, vertex_id v, double w);

  /// Enqueue an erase by ticket. Erasing a not-yet-flushed insertion
  /// annihilates in the queue and never reaches the shards.
  void erase(ticket_t t);

  /// Erase by endpoints: resolves (u, v) to its most recently inserted
  /// live copy through the queue's endpoint ledger, so callers need not
  /// retain tickets. Returns false when no live (u, v) edge is known.
  bool erase(vertex_id u, vertex_id v);

  /// Synchronously drain + apply + publish. Returns the epoch readers
  /// now see (unchanged when nothing was pending). Safe to call
  /// concurrently with the background writer and with readers.
  uint64_t flush();

  /// Start/stop the background writer thread (idempotent).
  void start_writer();
  void stop_writer();

  // ---- query front-end (thread-safe, wait-free vs the writer) ----

  /// Submit one request to the asynchronous request plane — the
  /// default read path. The broker groups concurrent clients' queries
  /// by (epoch, tau), resolves one ThresholdView per group, and
  /// fulfills the future; requests that expire, cancel, overflow the
  /// intake, or outlive the service resolve with a typed QueryError
  /// instead and never execute (broker.hpp).
  std::future<ResultSet> submit(QueryRequest req) const {
    return broker_->submit(std::move(req));
  }

  /// Submit several requests as one atomic intake splice: the
  /// dispatcher sees them in the same cycle, so shared (epoch, tau)
  /// groups collapse deterministically. futures[i] answers reqs[i].
  std::vector<std::future<ResultSet>> submit_batch(
      std::vector<QueryRequest> reqs) const {
    return broker_->submit_batch(std::move(reqs));
  }

  /// The request plane itself (depth introspection; submit through the
  /// service facade).
  QueryBroker& broker() const { return *broker_; }

  /// The current epoch snapshot. All queries on it are mutually
  /// consistent; hold it across several calls for a transaction-like
  /// read view.
  EpochManager::Snap snapshot() const { return epochs_.acquire(); }

  /// The retained snapshot of exactly `epoch` — current epoch or one
  /// still in the AsOf retention ring (cfg.retain_epochs). Null when
  /// that epoch fell off the ring; AsOf{epoch} requests then fall back
  /// to checkpoint rehydration before erroring (query.hpp).
  EpochManager::Snap snapshot_at(uint64_t epoch) const {
    return epochs_.at_epoch(epoch);
  }

  /// Pin the current epoch as a ClusterView: the full query surface
  /// with per-threshold merge resolution cached across calls — the
  /// power-user pinned-epoch escape hatch (the broker is the default
  /// path; a pinned view never moves epochs under you).
  ClusterView view() const { return ClusterView(epochs_.acquire()); }

  /// Synchronous convenience: submit-and-wait on one Latest request.
  /// results[i] answers queries[i], all at one epoch. Batch traffic
  /// that can tolerate a future should prefer submit(): same
  /// amortization, no blocking. Throws QueryError like any submit.
  std::vector<QueryResult> run(std::span<const Query> queries) const;

  // ---- subscriptions (push half of the read plane) ----

  /// The publish fan-out point. Long-lived readers normally register by
  /// constructing a SubscribedView(svc) rather than calling this
  /// directly; every flush that publishes a new epoch notifies the
  /// registered subscribers (on the flushing thread, after the flush
  /// lock is released — callbacks must not call flush()).
  SubscriptionHub& subscriptions() { return subs_; }
  const SubscriptionHub& subscriptions() const { return subs_; }

  /// Convenience single-shot queries — submit-and-wait wrappers over
  /// one-element requests, so even stray single calls join the
  /// broker's cross-client (epoch, tau) groups instead of paying their
  /// own merge resolution. Throw QueryError like any submit.
  bool same_cluster(vertex_id s, vertex_id t, double tau) const;
  uint64_t cluster_size(vertex_id u, double tau) const;
  std::vector<vertex_id> cluster_report(vertex_id u, double tau) const;
  std::vector<vertex_id> flat_clustering(double tau) const;
  uint64_t num_clusters(double tau) const;

  // ---- introspection ----

  uint64_t epoch() const { return epochs_.cur_epoch(); }
  size_t pending_updates() const { return queue_.pending(); }
  vertex_id num_vertices() const { return cfg_.num_vertices; }
  int num_shards() const { return router_.num_shards(); }
  const ServiceConfig& config() const { return cfg_; }
  EngineStats::Report stats() const { return stats_->report(); }

  /// The engine's observability bundle: metric registry (every
  /// EngineStats counter plus live gauges and the flush/broker latency
  /// histograms — the one scrape surface), and the span trace ring.
  /// Scrape with obs().registry.scrape() and render via obs/export.hpp,
  /// or attach a periodic reporter with make_stats_sink(). Gauges read
  /// the live service and are cleared on destruction; snapshots keep
  /// the rest of the bundle alive for readers that outlive the service.
  EngineObs& obs() const { return *obs_; }

  /// Start a periodic reporter over this service's registry: scrapes
  /// every `opt.interval` and hands the rendered text to `emit`
  /// (obs/export.hpp). Destroy the sink before the service.
  std::unique_ptr<obs::StatsSink> make_stats_sink(
      std::function<void(const std::string&)> emit,
      obs::StatsSink::Options opt = {}) const;

  /// The observability bundle as the shared handle snapshots carry —
  /// what persistence components take as their accounting sink.
  std::shared_ptr<EngineObs> obs_shared() const { return obs_; }

  // ---- durable history (persist::recover() and net::Replica) ----

  /// What replay() did with one unit of history.
  enum class ReplayResult : uint8_t {
    kApplied,  // published as the requested epoch
    kCovered,  // the engine already holds that epoch: skipped
    kRefused,  // an epoch gap, a checkpoint onto a non-fresh engine, or
               // an insert this engine cannot hold
  };

  /// The one entry that re-enacts durable history (recovery and
  /// replicas). A WAL record is one drained batch (`ticket_floor` left
  /// at kNoTicket); a checkpoint is a batch of every live insert plus
  /// its ticket counter as `ticket_floor`. The batch joins the endpoint
  /// ledger under its ORIGINAL tickets, then applies and publishes as
  /// `epoch` through flush()'s own core. A record must be the next
  /// epoch (covered epochs are skipped, gaps refused); a checkpoint
  /// only bootstraps an engine still at epoch 0. A batch holding an
  /// insert with an endpoint >= num_vertices, a self-loop or a
  /// non-finite weight is refused whole. Skipped and refused calls
  /// change nothing; enqueue counters never move, and nothing is
  /// logged or tapped.
  ReplayResult replay(uint64_t epoch, const MutationQueue::Drained& batch,
                      ticket_t ticket_floor = kNoTicket);

  /// Hand the service its persistence plane (WAL hooks engage on the
  /// next flush; the broker gains the checkpoint-rehydration tier).
  /// Called by the constructor for fresh persisted services and by
  /// persist::recover() after replay.
  void attach_persistence(std::unique_ptr<persist::PersistenceManager> pm);
  /// The attached persistence plane (null when not persisting).
  persist::PersistenceManager* persistence() const { return persist_.get(); }

  /// In-memory tee of the durability stream — the replication feed
  /// (net/replication.hpp). on_batch sees every flushed batch's epoch
  /// record UNDER THE FLUSH LOCK, right after the WAL append, in
  /// exactly the WAL's byte framing; on_checkpoint fires (same lock)
  /// when a cadence checkpoint lands, with its epoch. Callbacks must be
  /// cheap and must not call flush() or submit(). Either hook may be
  /// null; replace with {} to detach. replay() never fires the tap (a
  /// replica bootstraps from the directory, not from another replay).
  struct EpochTap {
    /// Fired per published epoch with the exact WAL record bytes.
    std::function<void(uint64_t epoch, const std::string& record)> on_batch;
    /// Fired when a cadence checkpoint lands (its epoch).
    std::function<void(uint64_t checkpoint_epoch)> on_checkpoint;
  };
  /// Install/replace/clear the tee (thread-safe vs concurrent
  /// flushes). Also syncs the WAL tail to disk when persisting, so a
  /// tap plus the directory see a gap-free record history no matter
  /// when the tap attaches.
  void set_epoch_tap(EpochTap tap);

 private:
  void writer_loop();
  void nudge_writer();
  /// The apply -> build -> publish -> notify core of flush() and
  /// replay(): publishes `batch` as epoch `e` (plus the checkpoint
  /// cadence), stops `total`, releases `lk` (holding flush_mu_), then
  /// notifies subscribers. `seed` carries the stages the caller timed.
  uint64_t commit(std::unique_lock<std::mutex>& lk, uint64_t e,
                  const MutationQueue::Drained& batch, obs::EpochTrace seed,
                  obs::ScopedSpan* total = nullptr);
  /// Submit-and-wait on a one-element Latest request (the convenience
  /// wrappers' shared path).
  QueryResult run_one(Query q) const;

  ServiceConfig cfg_;
  std::shared_ptr<EngineObs> obs_;
  std::shared_ptr<EngineStats> stats_;  // aliases obs_->stats
  MutationQueue queue_;
  ShardRouter router_;  // guarded by flush_mu_
  EpochManager epochs_;
  SubscriptionHub subs_;
  std::unique_ptr<QueryBroker> broker_;  // after subs_: dies first
  // Durability plane (null when not persisting); safe to destroy
  // before broker_ — the destructor joins the dispatcher (the only
  // rehydration caller) before members die.
  std::unique_ptr<persist::PersistenceManager> persist_;
  EpochTap tap_;  // guarded by flush_mu_ (set vs flush-path invocation)
  uint64_t next_epoch_ = 1;  // guarded by flush_mu_
  std::mutex flush_mu_;

  std::thread writer_;
  std::mutex wake_mu_;
  std::condition_variable wake_;
  bool writer_running_ = false;
  bool stop_ = false;  // guarded by wake_mu_
};

}  // namespace dynsld::engine
