#include "persist/checkpoint.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "engine/snapshot.hpp"
#include "obs/trace.hpp"
#include "persist/crc32c.hpp"
#include "persist/wal.hpp"

namespace dynsld::persist {

namespace {

constexpr char kMagic[8] = {'D', 'S', 'L', 'D', 'C', 'K', 'P', '1'};
// v2: EpochDelta gained per-shard patch records (shard_patch).
constexpr uint32_t kVersion = 2;

}  // namespace

// ---- SnapshotCodec ---------------------------------------------------

void SnapshotCodec::encode_shard(const engine::DendrogramSnapshot& d,
                                 ByteWriter& out) {
  // The canonical rank-ordered form: identical bytes for any two
  // snapshots of the same dendrogram, whatever slots they use.
  const engine::DendrogramSnapshot::Canonical c = d.canonical();
  out.u32(c.n);
  out.u32(c.base);
  out.pod_vec(c.u);
  out.pod_vec(c.v);
  out.pod_vec(c.weight);
  out.pod_vec(c.parent);
  out.pod_vec(c.count);
  out.pod_vec(c.leaf_parent);
  out.pod_vec(c.child_off);
  out.pod_vec(c.child_list);
  out.pod_vec(c.leaf_off);
  out.pod_vec(c.leaf_list);
  out.u32(static_cast<uint32_t>(c.levels));
  out.pod_vec(c.up);
}

void SnapshotCodec::encode(const engine::EngineSnapshot& snap,
                           ByteWriter& out) {
  out.u64(snap.epoch_);
  out.u32(snap.map_.n);
  out.u32(static_cast<uint32_t>(snap.map_.num_shards));
  out.u32(snap.map_.stride);
  for (const auto& sp : snap.shards_) encode_shard(*sp, out);
  out.pod_vec(snap.cross_->edges());
  // Delta + trace metadata: what this epoch changed and what it cost —
  // so a rehydrated snapshot introspects exactly like the original.
  const engine::EpochDelta& dl = snap.delta_;
  out.u64(dl.base_epoch);
  out.pod_vec(dl.shard_rebuilt);
  out.u32(dl.cross_inserted);
  out.u32(dl.cross_erased);
  out.f64(dl.cross_min_w);
  out.u64(dl.verts_rebuilt);
  // ShardPatch has interior padding: serialize field-wise so the file
  // bytes stay a pure function of the state.
  out.u64(dl.shard_patch.size());
  for (const engine::EpochDelta::ShardPatch& sp : dl.shard_patch) {
    out.u8(sp.mode);
    out.u8(sp.fallback);
    out.u32(sp.rounds_total);
    out.u32(sp.rounds_rerun);
    out.u64(sp.nodes_patched);
  }
  const obs::EpochTrace& tr = snap.trace_;
  out.u64(tr.epoch);
  out.u64(tr.ops);
  out.u32(static_cast<uint32_t>(tr.shards_rebuilt));
  out.u64(tr.drain_ns);
  out.u64(tr.apply_ns);
  out.u64(tr.shards_ns);
  out.u64(tr.cross_ns);
  // Captured edges (field-wise: WeightedEdge has tail padding, and the
  // file bytes should be a pure function of the state).
  out.u64(snap.edges_.size());
  for (const WeightedEdge& e : snap.edges_) {
    out.u32(e.u);
    out.u32(e.v);
    out.f64(e.weight);
    out.u32(e.id);
  }
}

engine::EpochManager::Snap SnapshotCodec::decode(
    ByteReader& in, std::shared_ptr<engine::EngineStats> stats,
    std::shared_ptr<engine::EngineObs> obs) {
  auto snap = std::shared_ptr<engine::EngineSnapshot>(
      new engine::EngineSnapshot());
  snap->epoch_ = in.u64();
  snap->map_.n = in.u32();
  snap->map_.num_shards = static_cast<int>(in.u32());
  snap->map_.stride = in.u32();
  if (!in.ok() || snap->map_.num_shards < 1 ||
      snap->map_.num_shards > 1 << 20)
    return nullptr;
  snap->shards_.reserve(snap->map_.num_shards);
  for (int k = 0; k < snap->map_.num_shards; ++k) {
    engine::DendrogramSnapshot::Canonical c;
    c.n = in.u32();
    c.base = in.u32();
    c.u = in.pod_vec<vertex_id>();
    c.v = in.pod_vec<vertex_id>();
    c.weight = in.pod_vec<double>();
    c.parent = in.pod_vec<int32_t>();
    c.count = in.pod_vec<uint64_t>();
    c.leaf_parent = in.pod_vec<int32_t>();
    c.child_off = in.pod_vec<uint32_t>();
    c.child_list = in.pod_vec<uint32_t>();
    c.leaf_off = in.pod_vec<uint32_t>();
    c.leaf_list = in.pod_vec<uint32_t>();
    c.levels = static_cast<int>(in.u32());
    c.up = in.pod_vec<int32_t>();
    if (!in.ok()) return nullptr;
    auto d = engine::DendrogramSnapshot::from_canonical(c);
    if (!d) return nullptr;
    snap->shards_.push_back(std::move(d));
  }
  snap->cross_ = std::make_shared<const engine::CrossEdgeView>(
      in.pod_vec<engine::CrossEdgeView::Edge>());
  engine::EpochDelta& dl = snap->delta_;
  dl.base_epoch = in.u64();
  dl.shard_rebuilt = in.pod_vec<char>();
  dl.cross_inserted = in.u32();
  dl.cross_erased = in.u32();
  dl.cross_min_w = in.f64();
  dl.verts_rebuilt = in.u64();
  uint64_t n_patch = in.u64();
  if (n_patch > in.remaining() / 18) return nullptr;  // 18 B encoded each
  dl.shard_patch.reserve(static_cast<size_t>(n_patch));
  for (uint64_t i = 0; i < n_patch; ++i) {
    engine::EpochDelta::ShardPatch sp;
    sp.mode = in.u8();
    sp.fallback = in.u8();
    sp.rounds_total = in.u32();
    sp.rounds_rerun = in.u32();
    sp.nodes_patched = in.u64();
    dl.shard_patch.push_back(sp);
  }
  obs::EpochTrace& tr = snap->trace_;
  tr.epoch = in.u64();
  tr.ops = in.u64();
  tr.shards_rebuilt = static_cast<int>(in.u32());
  tr.drain_ns = in.u64();
  tr.apply_ns = in.u64();
  tr.shards_ns = in.u64();
  tr.cross_ns = in.u64();
  uint64_t n_edges = in.u64();
  if (n_edges > in.remaining() / 20) return nullptr;  // 20 B encoded each
  snap->edges_.reserve(static_cast<size_t>(n_edges));
  for (uint64_t i = 0; i < n_edges; ++i) {
    WeightedEdge e;
    e.u = in.u32();
    e.v = in.u32();
    e.weight = in.f64();
    e.id = in.u32();
    snap->edges_.push_back(e);
  }
  if (!in.ok()) return nullptr;
  snap->stats_ = std::move(stats);
  snap->obs_ = std::move(obs);
  return snap;
}

// ---- CheckpointWriter ------------------------------------------------

CheckpointWriter::CheckpointWriter(std::shared_ptr<FileBackend> backend,
                                   PersistOptions opts,
                                   std::shared_ptr<engine::EngineObs> obs)
    : backend_(std::move(backend)),
      opts_(std::move(opts)),
      obs_(std::move(obs)) {}

std::string CheckpointWriter::file_name(uint64_t epoch) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "ckpt-%020" PRIu64 ".bin", epoch);
  return buf;
}

bool CheckpointWriter::parse_file_name(const std::string& name,
                                       uint64_t* epoch) {
  uint64_t e = 0;
  int consumed = 0;
  if (std::sscanf(name.c_str(), "ckpt-%20" SCNu64 ".bin%n", &e, &consumed) !=
          1 ||
      static_cast<size_t>(consumed) != name.size())
    return false;
  *epoch = e;
  return true;
}

bool CheckpointWriter::write(
    const engine::EngineSnapshot& snap, uint64_t next_ticket,
    const std::vector<engine::MutationQueue::InsertOp>& live) {
  obs::ScopedSpan span(nullptr, "persist.checkpoint", snap.epoch(),
                       obs_ ? obs_->persist_checkpoint : nullptr);
  ByteWriter payload;
  payload.u64(snap.epoch());
  payload.u64(next_ticket);
  payload.u64(live.size());
  for (const engine::MutationQueue::InsertOp& op : live) {
    payload.u64(op.ticket);
    payload.u32(op.u);
    payload.u32(op.v);
    payload.f64(op.w);
  }
  SnapshotCodec::encode(snap, payload);

  ByteWriter file;
  file.raw(kMagic, sizeof(kMagic));
  file.u32(kVersion);
  const std::string& p = payload.bytes();
  file.u32(static_cast<uint32_t>(p.size()));
  file.u32(crc32c(p.data(), p.size()));
  file.raw(p.data(), p.size());

  std::string path = opts_.dir + "/" + file_name(snap.epoch());
  if (!backend_->write_atomic(path, file.bytes())) return false;
  if (obs_)
    obs_->stats.checkpoints_written.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool CheckpointWriter::read(const std::string& bytes, CheckpointData* out) {
  constexpr size_t kHeader = sizeof(kMagic) + 4 + 8;  // magic+ver+frame
  if (bytes.size() < kHeader ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
    return false;
  ByteReader hdr(bytes.data() + sizeof(kMagic), 12);
  if (hdr.u32() != kVersion) return false;
  uint32_t len = hdr.u32();
  uint32_t crc = hdr.u32();
  if (bytes.size() - kHeader < len) return false;
  const char* payload = bytes.data() + kHeader;
  if (crc32c(payload, len) != crc) return false;
  ByteReader r(payload, len);
  out->epoch = r.u64();
  out->next_ticket = r.u64();
  uint64_t n_live = r.u64();
  if (n_live > r.remaining() / 24) return false;  // 24 B encoded each
  out->live.clear();
  out->live.reserve(static_cast<size_t>(n_live));
  for (uint64_t i = 0; i < n_live; ++i) {
    engine::MutationQueue::InsertOp op;
    op.ticket = r.u64();
    op.u = r.u32();
    op.v = r.u32();
    op.w = r.f64();
    out->live.push_back(op);
  }
  if (!r.ok()) return false;
  out->snapshot_bytes.assign(payload + (len - r.remaining()), r.remaining());
  return true;
}

// ---- Compactor -------------------------------------------------------

Compactor::Result Compactor::run(FileBackend& backend,
                                 const PersistOptions& opts,
                                 engine::EngineObs* obs) {
  Result res;
  std::vector<uint64_t> ckpts;
  std::vector<uint64_t> segs;
  for (const std::string& name : backend.list(opts.dir)) {
    uint64_t e;
    if (CheckpointWriter::parse_file_name(name, &e)) ckpts.push_back(e);
    if (WalReader::parse_segment_name(name, &e)) segs.push_back(e);
  }
  std::sort(ckpts.begin(), ckpts.end());
  std::sort(segs.begin(), segs.end());
  if (ckpts.empty()) return res;  // no horizon yet: keep everything
  const size_t retain = opts.retain_checkpoints;  // >= 1 (validate())
  size_t drop = ckpts.size() > retain ? ckpts.size() - retain : 0;
  for (size_t i = 0; i < drop; ++i) {
    if (backend.remove(opts.dir + "/" + CheckpointWriter::file_name(ckpts[i])))
      ++res.checkpoints_removed;
  }
  // Oldest surviving checkpoint: segments whose whole epoch range is
  // at or below it are covered by replay-from-that-checkpoint and can
  // go. A segment's range ends where the NEXT segment starts (rotation
  // happens at checkpoints), so segment i is removable when segment
  // i+1 starts at or below horizon + 1.
  uint64_t horizon = ckpts[drop];
  for (size_t i = 0; i + 1 < segs.size(); ++i) {
    if (segs[i + 1] > horizon + 1) break;
    if (backend.remove(opts.dir + "/" + WalReader::segment_name(segs[i])))
      ++res.segments_removed;
  }
  if (obs) {
    if (res.checkpoints_removed)
      obs->stats.checkpoints_removed.fetch_add(res.checkpoints_removed,
                                               std::memory_order_relaxed);
    if (res.segments_removed)
      obs->stats.wal_segments_removed.fetch_add(res.segments_removed,
                                                std::memory_order_relaxed);
  }
  return res;
}

}  // namespace dynsld::persist
