// The durability plane's front half: the PersistenceManager that rides
// the service's flush path, read_history() — the one reader of a
// directory's durable history — and recover(), the crash-recovery
// entry point that turns a directory back into a running engine.
//
// Write side (all calls under the service's flush lock):
//
//   flush: drain -> log_batch(epoch, batch)  [WAL append, pre-apply]
//            -> apply -> publish -> checkpoint_due(epoch)?
//                 -> checkpoint(snapshot, next_ticket, live edges)
//                                   [every K epochs: write, rotate the
//                                    WAL segment, compact history]
//
// The live-edge table a checkpoint serializes comes from the router's
// ticket table (ShardRouter::live_edges), enumerated only when due.
//
// Read side: rehydrate(epoch) serves the AsOf{epoch} checkpoint tier —
// an LRU of snapshots decoded from checkpoint files, shared with the
// broker through QueryBroker::set_rehydrator. Only exact checkpoint
// epochs rehydrate; anything else in cold history is unavailable by
// contract (docs/DURABILITY.md).
//
// read_history(dir) is the one reader of a directory's history (for
// recover() and the replication source): the newest checkpoint that
// validates (corrupt ones fall back to older files), then every WAL
// record past it in epoch order, up to the first tear or epoch gap.
// recover(cfg) replays that through SldService::replay, truncates the
// tail segment where the history ended, drops the segments past it,
// and attaches a PersistenceManager positioned to continue there.
// History the configured engine refuses (an edge outside its vertex
// range — a directory written under a larger num_vertices — a
// self-loop, a non-finite weight) throws HistoryRefused before the
// directory is touched: recovering a shorter history would let the
// next writer append over the rest.
//
// The recovered engine is bit-for-bit the logged one: same tickets,
// same endpoint-ledger resolution, same epoch numbers, same labels and
// histograms per republished epoch (crash-injection asserted in
// tests/test_persist.cpp).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "engine/epoch.hpp"
#include "engine/mutation_queue.hpp"
#include "engine/sld_service.hpp"
#include "engine/stats.hpp"
#include "persist/checkpoint.hpp"
#include "persist/file_backend.hpp"
#include "persist/options.hpp"
#include "persist/wal.hpp"

namespace dynsld::persist {

/// The service's durability plane: WAL + checkpoint cadence +
/// compaction on the write side, the AsOf rehydration LRU on the read
/// side (see the header comment). Write-side methods are called under
/// the service's flush lock; rehydrate() has its own lock and runs on
/// the broker's dispatcher thread.
class PersistenceManager {
 public:
  /// Creates `opts.dir` if missing. `obs` (nullable) receives every
  /// persist counter and histogram.
  PersistenceManager(PersistOptions opts, std::shared_ptr<FileBackend> backend,
                     std::shared_ptr<engine::EngineObs> obs);

  /// Throw std::runtime_error when the directory already holds WAL or
  /// checkpoint files — a fresh service must not silently shadow
  /// durable state; resume it through recover() instead.
  void require_fresh() const;

  const PersistOptions& options() const { return opts_; }
  FileBackend& backend() { return *backend_; }

  /// WAL the batch that is about to become `epoch` (called after the
  /// drain, before the apply).
  void log_batch(uint64_t epoch, const engine::MutationQueue::Drained& batch) {
    wal_.append(epoch, batch);
  }

  /// Is a checkpoint due at the just-published `epoch`? (A failed
  /// write leaves it due: the next publish retries.)
  bool checkpoint_due(uint64_t epoch) const {
    // checkpoint_every == 0 is rejected by PersistOptions::validate().
    return epoch - last_checkpoint_epoch_ >= opts_.checkpoint_every;
  }

  /// Write ckpt-<epoch>.bin (`live`: every live edge, ascending
  /// tickets), rotate the WAL segment to <epoch + 1>, and compact
  /// history past the retention window. False when the write failed.
  bool checkpoint(const engine::EngineSnapshot& snap, uint64_t next_ticket,
                  const std::vector<engine::MutationQueue::InsertOp>& live);

  /// AsOf checkpoint tier: the snapshot of exactly `epoch`, from the
  /// LRU or decoded from ckpt-<epoch>.bin; null when no checkpoint at
  /// that epoch exists (or it fails validation).
  engine::EpochManager::Snap rehydrate(uint64_t epoch);

  /// Has the WAL writer poisoned itself on an I/O failure? (Appends
  /// are dropped from then on; tests use this to detect injected
  /// crash points.)
  bool wal_failed() const { return wal_.failed(); }

  /// Force a WAL sync now regardless of policy.
  bool sync_wal() { return wal_.sync(); }

  /// Honor the kInterval fsync deadline outside the append path (the
  /// service calls this from empty flushes and the writer's idle tick
  /// so a burst-then-silence workload never leaves the tail unsynced
  /// past the interval). No-op under other policies.
  bool sync_if_due() { return wal_.sync_if_due(); }

  /// The checkpoint epoch the cadence counts from.
  void set_last_checkpoint(uint64_t epoch) { last_checkpoint_epoch_ = epoch; }
  /// Resume appending to the (already truncated) newest segment.
  bool resume_segment(const std::string& name) {
    return wal_.open_existing(name);
  }

 private:
  PersistOptions opts_;
  std::shared_ptr<FileBackend> backend_;
  std::shared_ptr<engine::EngineObs> obs_;
  WalWriter wal_;
  CheckpointWriter ckpt_;
  uint64_t last_checkpoint_epoch_ = 0;

  // AsOf rehydration LRU, most-recent first (own lock: dispatcher-
  // thread reads run concurrently with flush-side appends).
  std::mutex cache_mu_;
  std::list<std::pair<uint64_t, engine::EpochManager::Snap>> cache_;
};

/// The durable history one directory holds, in replay order, and
/// where it ends (recover()'s repair plan).
struct History {
  /// The newest checkpoint that validated, and its file bytes (empty:
  /// none did; replay starts from epoch 0).
  CheckpointData checkpoint;
  std::string checkpoint_bytes;
  /// Every record past the checkpoint, epochs contiguous.
  std::vector<WalRecord> records;
  /// The segment the history ends in and the length of its replayable
  /// prefix, where a resumed writer appends (empty: none survives).
  std::string tail_segment;
  uint64_t tail_bytes = 0;
  /// A torn record or a headerless/unreadable segment ended it.
  bool torn = false;
  /// Segments past the end (or unreadable) — recovery deletes them.
  std::vector<std::string> dropped;
};

/// Read `dir`'s durable history. Pure: never modifies the directory,
/// so a live writer's replication source can read it too (a torn tail
/// there is just the append in flight).
History read_history(FileBackend& backend, const std::string& dir);

/// recover() met a checkpoint image or WAL record that
/// SldService::replay refused (see the header comment); `epoch()`
/// names it. The directory is left as it was.
class HistoryRefused : public std::runtime_error {
 public:
  /// `unit` names what was refused ("checkpoint", "WAL record").
  HistoryRefused(uint64_t epoch, const char* unit);
  /// Epoch of the refused checkpoint image or record.
  uint64_t epoch() const { return epoch_; }

 private:
  uint64_t epoch_;
};

/// What recover() reconstructed.
struct RecoverResult {
  /// The recovered engine, persistence attached and positioned to
  /// append. The background writer is NOT started (mirror of the
  /// constructor's contract).
  std::unique_ptr<engine::SldService> service;
  /// Epoch of the checkpoint replay started from (0 = none existed).
  uint64_t checkpoint_epoch = 0;
  /// Last epoch republished — the service's current epoch.
  uint64_t tip_epoch = 0;
  /// WAL records re-enacted past the checkpoint.
  uint64_t records_replayed = 0;
  /// A torn tail (or headerless partial segment) was truncated away.
  bool torn_tail_truncated = false;
};

/// Rebuild a service from `cfg.persist.dir` (see the header comment
/// for the protocol). `cfg` must have persistence enabled; an empty or
/// missing directory recovers to a fresh epoch-0 engine. Throws
/// std::invalid_argument when cfg.persist.dir is empty, and
/// HistoryRefused when the history does not fit `cfg`.
RecoverResult recover(engine::ServiceConfig cfg,
                      std::shared_ptr<FileBackend> backend = nullptr);

}  // namespace dynsld::persist
