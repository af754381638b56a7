#include "net/replication.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <stdexcept>

#include "net/protocol.hpp"
#include "persist/checkpoint.hpp"
#include "persist/persist.hpp"
#include "persist/wal.hpp"

namespace dynsld::net {

// ---- ReplicationSource ----

ReplicationSource::ReplicationSource(engine::SldService& svc)
    : svc_(svc), obs_(svc.obs_shared()) {
  if (!svc.persistence())
    throw std::invalid_argument(
        "ReplicationSource: service has no persistence plane (the feed is "
        "the durability stream)");
  engine::SldService::EpochTap tap;
  tap.on_batch = [this](uint64_t e, const std::string& rec) {
    on_batch(e, rec);
  };
  tap.on_checkpoint = [this](uint64_t ck) { on_checkpoint(ck); };
  // Installing the tap also syncs the WAL tail to disk (under the
  // flush lock — sld_service.cpp), so everything logged before this
  // line is readable below and everything after it is tapped: the two
  // sources overlap rather than gap, and the ring dedups by epoch.
  svc_.set_epoch_tap(std::move(tap));
  prime_from_disk();
}

ReplicationSource::~ReplicationSource() {
  // Waits out any in-progress flush, so no on_batch runs past here.
  svc_.set_epoch_tap({});
}

void ReplicationSource::prime_from_disk() {
  persist::PersistenceManager* pm = svc_.persistence();
  // The directory's history as recovery would read it; a torn tail here
  // is just an append in flight (the tap carries it).
  persist::History h = persist::read_history(pm->backend(), pm->options().dir);
  std::lock_guard<std::mutex> lk(mu_);
  if (h.checkpoint.epoch > ckpt_epoch_) {
    ckpt_epoch_ = h.checkpoint.epoch;
    ckpt_bytes_ = std::move(h.checkpoint_bytes);
  }
  // Re-frame every record past the checkpoint (encode_record of a
  // decoded record reproduces the original bytes exactly).
  for (const persist::WalRecord& rec : h.records)
    if (rec.epoch > ckpt_epoch_)
      ring_.try_emplace(rec.epoch, persist::WalWriter::encode_record(
                                       rec.epoch, rec.batch));
  ring_.erase(ring_.begin(), ring_.lower_bound(ckpt_epoch_ + 1));
  tip_ = std::max(tip_, ckpt_epoch_);
  if (!ring_.empty()) tip_ = std::max(tip_, ring_.rbegin()->first);
}

void ReplicationSource::on_batch(uint64_t epoch, const std::string& record) {
  std::function<void()> wake;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ring_.try_emplace(epoch, record);
    tip_ = std::max(tip_, epoch);
    wake = wakeup_;
  }
  if (wake) wake();
}

void ReplicationSource::on_checkpoint(uint64_t checkpoint_epoch) {
  // Called under the flush lock right after the checkpoint published;
  // its bytes are final on disk (write_atomic), so read them now and
  // let the ring drop everything the checkpoint covers.
  persist::PersistenceManager* pm = svc_.persistence();
  std::string bytes;
  if (!pm->backend().read_file(
          pm->options().dir + "/" +
              persist::CheckpointWriter::file_name(checkpoint_epoch),
          &bytes))
    return;  // keep streaming from the old basis; nothing is lost
  persist::CheckpointData ck;
  if (!persist::CheckpointWriter::read(bytes, &ck)) return;
  std::lock_guard<std::mutex> lk(mu_);
  if (checkpoint_epoch <= ckpt_epoch_) return;
  ckpt_epoch_ = checkpoint_epoch;
  ckpt_bytes_ = std::move(bytes);
  ring_.erase(ring_.begin(), ring_.lower_bound(ckpt_epoch_ + 1));
  tip_ = std::max(tip_, ckpt_epoch_);
}

ReplicationSource::Bootstrap ReplicationSource::bootstrap() {
  std::lock_guard<std::mutex> lk(mu_);
  Bootstrap b;
  b.checkpoint_epoch = ckpt_epoch_;
  b.checkpoint_bytes = ckpt_bytes_;
  b.records.reserve(ring_.size());
  for (const auto& [e, bytes] : ring_) b.records.emplace_back(e, bytes);
  if (obs_) {
    obs_->stats.repl_snapshots_served.fetch_add(1, std::memory_order_relaxed);
    obs_->stats.repl_records_streamed.fetch_add(b.records.size(),
                                                std::memory_order_relaxed);
  }
  return b;
}

std::vector<std::pair<uint64_t, std::string>> ReplicationSource::records_after(
    uint64_t after) {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::pair<uint64_t, std::string>> out;
  for (auto it = ring_.upper_bound(after); it != ring_.end(); ++it)
    out.emplace_back(it->first, it->second);
  if (obs_ && !out.empty())
    obs_->stats.repl_records_streamed.fetch_add(out.size(),
                                                std::memory_order_relaxed);
  return out;
}

uint64_t ReplicationSource::tip() const {
  std::lock_guard<std::mutex> lk(mu_);
  return tip_;
}

void ReplicationSource::set_wakeup(std::function<void()> fn) {
  std::lock_guard<std::mutex> lk(mu_);
  wakeup_ = std::move(fn);
}

// ---- Replica ----

namespace {

/// Blocking frame read: recv until the parser yields one frame. False
/// on close, transport error, or protocol poison.
bool read_frame(int fd, FrameParser& parser, Frame* out) {
  for (;;) {
    switch (parser.next(out)) {
      case FrameParser::Status::kFrame:
        return true;
      case FrameParser::Status::kBad:
        return false;
      case FrameParser::Status::kNeedMore:
        break;
    }
    char buf[64 * 1024];
    long n = recv_some(fd, buf, sizeof buf);
    if (n <= 0) return false;
    parser.feed(buf, static_cast<size_t>(n));
  }
}

}  // namespace

Replica::Replica(Options opt) : opt_(std::move(opt)) {
  fd_ = tcp_connect(opt_.host, opt_.port);
  if (!fd_.valid())
    throw std::runtime_error("Replica: cannot connect to " + opt_.host);
  Hello hello;
  hello.role = kRoleReplica;
  std::string frame = encode_frame(MsgType::kHello, encode_hello(hello));
  if (!send_all(fd_.get(), frame.data(), frame.size()))
    throw std::runtime_error("Replica: hello send failed");

  FrameParser parser;
  Frame f;
  if (!read_frame(fd_.get(), parser, &f) || f.type != MsgType::kHelloAck)
    throw std::runtime_error("Replica: no hello ack (is the server a "
                             "persisted writer?)");
  HelloAck ack;
  if (!decode_hello_ack(f.payload, &ack))
    throw std::runtime_error("Replica: malformed hello ack");
  if (ack.num_vertices != opt_.cfg.num_vertices ||
      ack.num_shards != uint32_t(opt_.cfg.num_shards))
    throw std::runtime_error(
        "Replica: engine shape mismatch (writer " +
        std::to_string(ack.num_vertices) + "v/" +
        std::to_string(ack.num_shards) + "s, local config " +
        std::to_string(opt_.cfg.num_vertices) + "v/" +
        std::to_string(opt_.cfg.num_shards) + "s)");

  if (!read_frame(fd_.get(), parser, &f) || f.type != MsgType::kCheckpoint)
    throw std::runtime_error("Replica: no bootstrap checkpoint frame");

  // Local engine: never persisted (the stream is the durable history).
  engine::ServiceConfig cfg = opt_.cfg;
  cfg.persist.dir.clear();
  svc_ = std::make_unique<engine::SldService>(cfg);

  if (!f.payload.empty()) {
    persist::CheckpointData ck;
    if (!persist::CheckpointWriter::read(f.payload, &ck))
      throw std::runtime_error("Replica: corrupt bootstrap checkpoint");
    // Exactly persist::recover()'s bootstrap: the live edges as one
    // batch under the checkpoint's ticket floor, onto a fresh engine.
    engine::MutationQueue::Drained image;
    image.inserts = std::move(ck.live);
    if (svc_->replay(ck.epoch, image, ck.next_ticket) ==
        engine::SldService::ReplayResult::kRefused)
      throw std::runtime_error("Replica: bootstrap checkpoint at epoch " +
                               std::to_string(ck.epoch) +
                               " refused by the local engine");
    applied_ = ck.epoch;
  }
  live_ = true;
  // The tail thread adopts the parser mid-stream: record frames may
  // already sit buffered behind the checkpoint.
  tail_ = std::thread([this, parser = std::move(parser)]() mutable {
    Frame frame;
    for (;;) {
      if (!read_frame(fd_.get(), parser, &frame)) break;
      if (frame.type != MsgType::kWalRecord) continue;  // ignore chatter
      if (!apply_record(frame.payload)) break;
    }
    std::lock_guard<std::mutex> lk(mu_);
    live_ = false;
    cv_.notify_all();
  });
}

Replica::~Replica() {
  if (fd_.valid()) ::shutdown(fd_.get(), SHUT_RDWR);  // unblock recv
  if (tail_.joinable()) tail_.join();
}

bool Replica::apply_record(const std::string& bytes) {
  // Same validation and epoch contract as recovery: a malformed record
  // or an epoch gap desyncs the replica (serving stale is safe,
  // applying past a hole is not); a record the bootstrap already
  // covered is skipped.
  persist::WalRecord rec;
  const engine::SldService::ReplayResult r =
      persist::WalReader::decode_record(bytes, &rec)
          ? svc_->replay(rec.epoch, rec.batch)
          : engine::SldService::ReplayResult::kRefused;
  std::lock_guard<std::mutex> lk(mu_);
  if (r == engine::SldService::ReplayResult::kRefused) {
    desynced_ = true;
    cv_.notify_all();
    return false;
  }
  if (r == engine::SldService::ReplayResult::kApplied) {
    if (auto obs = svc_->obs_shared())
      obs->stats.repl_records_applied.fetch_add(1, std::memory_order_relaxed);
    applied_ = rec.epoch;
    cv_.notify_all();
  }
  return true;
}

uint64_t Replica::applied_epoch() const {
  std::lock_guard<std::mutex> lk(mu_);
  return applied_;
}

bool Replica::desynced() const {
  std::lock_guard<std::mutex> lk(mu_);
  return desynced_;
}

bool Replica::live() const {
  std::lock_guard<std::mutex> lk(mu_);
  return live_;
}

bool Replica::wait_for_epoch(uint64_t epoch, std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait_for(lk, timeout, [&] {
    return applied_ >= epoch || desynced_ || !live_;
  });
  return applied_ >= epoch;
}

}  // namespace dynsld::net
