#include "persist/persist.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/trace.hpp"

namespace dynsld::persist {

PersistenceManager::PersistenceManager(PersistOptions opts,
                                       std::shared_ptr<FileBackend> backend,
                                       std::shared_ptr<engine::EngineObs> obs)
    : opts_(std::move(opts)),
      backend_(std::move(backend)),
      obs_(std::move(obs)),
      wal_(backend_, opts_, obs_),
      ckpt_(backend_, opts_, obs_) {
  // Typed rejection of nonsensical knobs (zero cache/cadence used to be
  // silently clamped to 1 at the point of use). Fresh services and
  // recover() both construct the manager, so both paths are covered.
  opts_.validate();
  backend_->mkdirs(opts_.dir);
}

void PersistenceManager::require_fresh() const {
  for (const std::string& name : backend_->list(opts_.dir)) {
    uint64_t e;
    if (WalReader::parse_segment_name(name, &e) ||
        CheckpointWriter::parse_file_name(name, &e))
      throw std::runtime_error(
          "dynsld: persist dir '" + opts_.dir +
          "' already holds durable state (" + name +
          "); resume it with persist::recover() instead of constructing "
          "a fresh service over it");
  }
}

bool PersistenceManager::checkpoint(
    const engine::EngineSnapshot& snap, uint64_t next_ticket,
    const std::vector<engine::MutationQueue::InsertOp>& live) {
  if (!ckpt_.write(snap, next_ticket, live)) return false;
  last_checkpoint_epoch_ = snap.epoch();
  // Rotate so the new segment starts past the checkpoint: compaction
  // then deletes whole covered segments, never rewrites one.
  wal_.begin_segment(snap.epoch() + 1);
  Compactor::run(*backend_, opts_, obs_.get());
  return true;
}

engine::EpochManager::Snap PersistenceManager::rehydrate(uint64_t epoch) {
  std::lock_guard<std::mutex> lk(cache_mu_);
  for (auto it = cache_.begin(); it != cache_.end(); ++it) {
    if (it->first == epoch) {
      cache_.splice(cache_.begin(), cache_, it);
      return cache_.front().second;
    }
  }
  obs::ScopedSpan span(nullptr, "persist.rehydrate", epoch,
                       obs_ ? obs_->persist_rehydrate : nullptr);
  std::string bytes;
  if (!backend_->read_file(opts_.dir + "/" + CheckpointWriter::file_name(epoch),
                           &bytes))
    return nullptr;
  CheckpointData data;
  if (!CheckpointWriter::read(bytes, &data)) return nullptr;
  ByteReader in(data.snapshot_bytes);
  engine::EpochManager::Snap snap =
      SnapshotCodec::decode(in, engine::EngineObs::stats_handle(obs_), obs_);
  if (!snap || snap->epoch() != epoch) return nullptr;
  if (obs_)
    obs_->stats.asof_rehydrated.fetch_add(1, std::memory_order_relaxed);
  cache_.emplace_front(epoch, snap);
  // rehydrate_cache == 0 is rejected by PersistOptions::validate().
  while (cache_.size() > opts_.rehydrate_cache) cache_.pop_back();
  return snap;
}

History read_history(FileBackend& backend, const std::string& dir) {
  std::vector<uint64_t> ckpts, segs;
  for (const std::string& name : backend.list(dir)) {
    uint64_t e;
    if (CheckpointWriter::parse_file_name(name, &e)) ckpts.push_back(e);
    if (WalReader::parse_segment_name(name, &e)) segs.push_back(e);
  }
  std::sort(ckpts.begin(), ckpts.end());
  std::sort(segs.begin(), segs.end());

  History h;
  // Newest checkpoint that validates wins; corrupt files fall back to
  // older ones (checkpoints publish atomically, so at most the newest
  // can be a casualty of the crash — and only on non-atomic stores).
  for (auto it = ckpts.rbegin(); it != ckpts.rend(); ++it) {
    std::string bytes;
    CheckpointData ck;
    if (backend.read_file(dir + "/" + CheckpointWriter::file_name(*it),
                          &bytes) &&
        CheckpointWriter::read(bytes, &ck)) {
      h.checkpoint = std::move(ck);
      h.checkpoint_bytes = std::move(bytes);
      break;
    }
  }

  // Segments in epoch order, every record past the checkpoint. The
  // history ends at the first tear (or headerless/unreadable segment)
  // or epoch gap — a gap is impossible from the single sequential
  // writer and means tampering; everything before it is consistent,
  // and later segments are unreachable across the hole.
  uint64_t last = h.checkpoint.epoch;
  size_t si = 0;
  for (; si < segs.size(); ++si) {
    const std::string name = WalReader::segment_name(segs[si]);
    std::string bytes;
    WalReader::Scan scan;
    if (backend.read_file(dir + "/" + name, &bytes))
      scan = WalReader::scan(bytes);
    if (!scan.ok) {
      // Crash before the segment header landed: the file carries no
      // records.
      h.torn = true;
      break;
    }
    h.tail_segment = name;
    h.tail_bytes = scan.valid_bytes;
    bool ends_here = scan.torn;
    for (size_t i = 0; i < scan.records.size(); ++i) {
      WalRecord& rec = scan.records[i];
      if (rec.epoch <= last) continue;  // covered by the checkpoint
      if (rec.epoch != last + 1) {
        h.tail_bytes = scan.record_offset[i];
        ends_here = true;
        break;
      }
      last = rec.epoch;
      h.records.push_back(std::move(rec));
    }
    if (ends_here) {
      h.torn = scan.torn;
      ++si;
      break;
    }
  }
  for (; si < segs.size(); ++si)
    h.dropped.push_back(WalReader::segment_name(segs[si]));
  return h;
}

HistoryRefused::HistoryRefused(uint64_t epoch, const char* unit)
    : std::runtime_error("persist::recover: " + std::string(unit) +
                         " at epoch " + std::to_string(epoch) +
                         " does not fit the configured engine (an edge "
                         "outside num_vertices, a self-loop or a "
                         "non-finite weight)"),
      epoch_(epoch) {}

RecoverResult recover(engine::ServiceConfig cfg,
                      std::shared_ptr<FileBackend> backend) {
  if (!cfg.persist.enabled())
    throw std::invalid_argument("persist::recover: cfg.persist.dir is empty");
  if (!backend) backend = local_backend();
  const PersistOptions opts = cfg.persist;
  backend->mkdirs(opts.dir);

  // Boot the service with persistence DETACHED: replay re-enacts
  // history, and none of it may be re-logged. The manager attaches
  // once the replay is complete.
  engine::ServiceConfig boot = cfg;
  boot.persist.dir.clear();
  auto svc = std::make_unique<engine::SldService>(boot);
  obs::ScopedSpan recover_span(nullptr, "persist.recover", 0,
                               svc->obs_shared()->persist_recover);
  auto pm =
      std::make_unique<PersistenceManager>(opts, backend, svc->obs_shared());

  // Replay before repairing anything: history the engine refuses
  // throws with the directory untouched.
  using Replay = engine::SldService::ReplayResult;
  History h = read_history(*backend, opts.dir);
  RecoverResult res;
  res.torn_tail_truncated = h.torn;
  if (!h.checkpoint_bytes.empty()) {
    engine::MutationQueue::Drained image;
    image.inserts = std::move(h.checkpoint.live);
    if (svc->replay(h.checkpoint.epoch, image, h.checkpoint.next_ticket) ==
        Replay::kRefused)
      throw HistoryRefused(h.checkpoint.epoch, "checkpoint");
    pm->set_last_checkpoint(h.checkpoint.epoch);
    res.checkpoint_epoch = h.checkpoint.epoch;
  }
  for (const WalRecord& rec : h.records) {
    const Replay r = svc->replay(rec.epoch, rec.batch);
    if (r == Replay::kRefused) throw HistoryRefused(rec.epoch, "WAL record");
    if (r == Replay::kApplied) ++res.records_replayed;
  }

  // Repair the directory where the history ended, so the resumed
  // writer appends right after the last replayable record.
  for (const std::string& name : h.dropped)
    backend->remove(opts.dir + "/" + name);
  if (!h.tail_segment.empty()) {
    backend->truncate(opts.dir + "/" + h.tail_segment, h.tail_bytes);
    pm->resume_segment(h.tail_segment);
  }
  res.tip_epoch = svc->epoch();
  if (res.records_replayed)
    svc->obs_shared()->stats.recovery_replayed.fetch_add(
        res.records_replayed, std::memory_order_relaxed);
  svc->attach_persistence(std::move(pm));
  res.service = std::move(svc);
  return res;
}

}  // namespace dynsld::persist
