// Durability knobs — the leaf config both sides of the persistence
// boundary share.
//
// This header is deliberately dependency-free (no engine includes) so
// ServiceConfig can embed a PersistOptions without the engine headers
// ever depending on the persistence subsystem: the service sees only
// this POD plus a forward-declared PersistenceManager, while
// src/persist/ owns every format and I/O decision.
//
// The durability/latency trade-off is the fsync policy: every WAL
// append is buffered-write cheap, and the policy decides how often the
// writer pays an fsync — every record (kEveryN, n = 1), every n
// records, on a wall-clock interval, or never (kOff: the OS page cache
// is the only durability, suitable for benchmarks and tests). The
// policy bounds how many most-recent epochs a crash can lose; the
// matrix lives in docs/DURABILITY.md.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace dynsld::persist {

/// When the WAL writer fsyncs its active segment (see the header
/// comment and the policy matrix in docs/DURABILITY.md).
enum class FsyncPolicy : uint8_t {
  kOff,       ///< never fsync: page cache only (bench/test mode)
  kEveryN,    ///< fsync after every `fsync_every_n` appended records
  kInterval,  ///< fsync when `fsync_interval` elapsed since the last
};

/// Construction-time durability knobs (embedded in ServiceConfig as
/// `persist`). An empty `dir` disables persistence entirely — the
/// engine runs exactly as before this subsystem existed.
struct PersistOptions {
  /// Log directory (WAL segments + checkpoints). Empty = persistence
  /// off. A fresh service requires the directory to hold no prior
  /// state; restarting over an existing log goes through
  /// persist::recover() instead.
  std::string dir;

  /// Fsync policy for WAL appends (see FsyncPolicy).
  FsyncPolicy fsync_policy = FsyncPolicy::kEveryN;
  /// Records per fsync under kEveryN (1 = sync every record).
  uint64_t fsync_every_n = 1;
  /// Wall-clock fsync cadence under kInterval.
  std::chrono::milliseconds fsync_interval{50};

  /// Write a checkpoint (full EngineSnapshot + live-edge table) every
  /// this many published epochs, then rotate to a fresh WAL segment.
  uint64_t checkpoint_every = 64;

  /// Checkpoints the compactor retains (newest first). WAL segments
  /// whose epochs are entirely covered by the oldest retained
  /// checkpoint are deleted with it — together these bound the
  /// on-disk history window to roughly
  /// `retain_checkpoints * checkpoint_every` epochs.
  size_t retain_checkpoints = 4;

  /// Capacity of the rehydrated-checkpoint LRU serving AsOf{epoch}
  /// queries older than the in-memory retention ring (each entry is a
  /// full decoded EngineSnapshot).
  size_t rehydrate_cache = 2;

  /// Persistence enabled?
  bool enabled() const { return !dir.empty(); }

  /// Reject nonsensical knob combinations up front with a typed error
  /// instead of silently clamping them at the point of use (a zero
  /// rehydrate_cache or retain_checkpoints would otherwise have to
  /// behave as 1, lying about the budget the caller asked for). Called by
  /// PersistenceManager on construction — both the fresh-service and
  /// recover() paths go through it.
  void validate() const {
    if (rehydrate_cache == 0)
      throw std::invalid_argument(
          "PersistOptions.rehydrate_cache must be >= 1 (AsOf queries "
          "older than the retention ring need at least one slot)");
    if (fsync_policy == FsyncPolicy::kEveryN && fsync_every_n == 0)
      throw std::invalid_argument(
          "PersistOptions.fsync_every_n must be >= 1 under kEveryN");
    if (checkpoint_every == 0)
      throw std::invalid_argument(
          "PersistOptions.checkpoint_every must be >= 1");
    if (retain_checkpoints == 0)
      throw std::invalid_argument(
          "PersistOptions.retain_checkpoints must be >= 1 (compaction "
          "keeps the newest checkpoint as the replay base)");
  }
};

}  // namespace dynsld::persist
