// Durability plane tests: WAL framing and torn tails, checkpoint
// round-trips, compaction, crash-injected recovery, and AsOf time
// travel.
//
// The centerpiece is the crash-injection harness: a FaultBackend that
// kills the write path after a byte budget — mid-record, mid-header,
// mid-checkpoint, wherever the budget lands — so randomized budgets
// sweep crash points across every structure the plane writes. After
// each injected crash the directory is recovered with the real backend
// and the republished epochs must match the pre-crash run BIT FOR BIT:
// exact flat-label arrays (labels are canonical — a pure function of
// the snapshot and tau), exact size histograms, exact cluster counts.
// Every workload draws distinct edge weights, which is what makes the
// dendrogram (and hence the replayed snapshot) unique; equal-weight
// ties are the documented exactness caveat (docs/DURABILITY.md).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/cluster_view.hpp"
#include "engine/query.hpp"
#include "engine/sld_service.hpp"
#include "parallel/random.hpp"
#include "persist/bytes.hpp"
#include "persist/checkpoint.hpp"
#include "persist/crc32c.hpp"
#include "persist/file_backend.hpp"
#include "persist/persist.hpp"
#include "persist/wal.hpp"
#include "test_util.hpp"

namespace dynsld::engine {
namespace {

namespace fs = std::filesystem;

/// A unique scratch directory, recursively removed on destruction.
struct TempDir {
  std::string path;
  TempDir() {
    static std::atomic<int> seq{0};
    path = (fs::temp_directory_path() /
            ("dynsld_persist_" + std::to_string(seq.fetch_add(1)) + "_" +
             std::to_string(
                 reinterpret_cast<uintptr_t>(this) & 0xffffffu)))
               .string();
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// Crash injection: delegates to the real backend until a byte budget
/// runs out, then dies. The fatal append writes exactly the remaining
/// budget — a torn prefix on disk, like a crash mid-write(2) — and
/// every later write fails. write_atomic is all-or-nothing, honoring
/// the rename-publication contract: with insufficient budget NOTHING
/// lands. Reads and directory ops never fail (recovery uses them).
class FaultBackend : public persist::FileBackend {
 public:
  FaultBackend(std::shared_ptr<persist::FileBackend> inner, uint64_t budget)
      : inner_(std::move(inner)), budget_(budget) {}

  bool dead() const { return dead_; }

  bool mkdirs(const std::string& dir) override { return inner_->mkdirs(dir); }
  std::vector<std::string> list(const std::string& dir) override {
    return inner_->list(dir);
  }
  bool read_file(const std::string& path, std::string* out) override {
    return inner_->read_file(path, out);
  }
  bool remove(const std::string& path) override { return inner_->remove(path); }
  bool truncate(const std::string& path, uint64_t size) override {
    return inner_->truncate(path, size);
  }

  std::unique_ptr<File> open_append(const std::string& path) override {
    if (dead_) return nullptr;
    auto f = inner_->open_append(path);
    if (!f) return nullptr;
    return std::make_unique<FaultFile>(std::move(f), this);
  }

  bool write_atomic(const std::string& path,
                    const std::string& bytes) override {
    if (dead_ || budget_ < bytes.size()) {
      dead_ = true;
      return false;
    }
    budget_ -= bytes.size();
    return inner_->write_atomic(path, bytes);
  }

 private:
  class FaultFile : public File {
   public:
    FaultFile(std::unique_ptr<File> inner, FaultBackend* owner)
        : inner_(std::move(inner)), owner_(owner) {}
    bool append(const void* data, size_t len) override {
      if (owner_->dead_) return false;
      if (owner_->budget_ >= len) {
        owner_->budget_ -= len;
        return inner_->append(data, len);
      }
      // The crash: a prefix lands, the rest never will.
      inner_->append(data, static_cast<size_t>(owner_->budget_));
      inner_->sync();
      owner_->budget_ = 0;
      owner_->dead_ = true;
      return false;
    }
    bool sync() override { return !owner_->dead_ && inner_->sync(); }
    uint64_t size() const override { return inner_->size(); }

   private:
    std::unique_ptr<File> inner_;
    FaultBackend* owner_;
  };

  std::shared_ptr<persist::FileBackend> inner_;
  uint64_t budget_;
  bool dead_ = false;
};

/// Distinct, deterministic edge weights (999983 is prime and coprime
/// with the multiplier, so idx -> weight is injective below it).
double unique_weight(uint64_t idx) {
  return static_cast<double>(idx * 2654435761ull % 999983ull) / 999983.0;
}

/// Everything one epoch must reproduce bit for bit after recovery.
struct EpochFingerprint {
  std::vector<vertex_id> labels;  // exact canonical label array
  SizeHistogram hist;
  uint64_t num_clusters = 0;
};

EpochFingerprint fingerprint(const EpochManager::Snap& snap, double tau) {
  EpochFingerprint fp;
  ClusterView view(snap);
  fp.labels = view.at(tau)->flat_clustering();
  fp.hist = view.at(tau)->size_histogram();
  fp.num_clusters = view.at(tau)->num_clusters();
  return fp;
}

void expect_fingerprint_eq(const EpochFingerprint& a,
                           const EpochFingerprint& b) {
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.hist, b.hist);
  EXPECT_EQ(a.num_clusters, b.num_clusters);
}

// ---- low-level codecs -------------------------------------------------

TEST(Crc32c, KnownAnswerAndChaining) {
  // The CRC-32C check value: crc of the ASCII digits "123456789".
  const char digits[] = "123456789";
  EXPECT_EQ(persist::crc32c(digits, 9), 0xE3069283u);
  EXPECT_EQ(persist::crc32c("", 0), 0u);
  // Chaining: crc(a ++ b) == crc(b, seed = crc(a)).
  const std::string a = "hello ", b = "world";
  uint32_t whole = persist::crc32c((a + b).data(), a.size() + b.size());
  uint32_t chained =
      persist::crc32c(b.data(), b.size(), persist::crc32c(a.data(), a.size()));
  EXPECT_EQ(whole, chained);
}

TEST(Bytes, RoundTripAndUnderrunSafety) {
  persist::ByteWriter w;
  w.u8(7);
  w.u32(0xDEADBEEFu);
  w.u64(1ull << 40);
  w.f64(-0.125);
  std::vector<uint32_t> vec{1, 2, 3};
  w.pod_vec(vec);
  persist::ByteReader r(w.bytes().data(), w.bytes().size());
  EXPECT_EQ(r.u8(), 7u);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 1ull << 40);
  EXPECT_EQ(r.f64(), -0.125);
  EXPECT_EQ(r.pod_vec<uint32_t>(), vec);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
  // Underrun: zero values, sticky !ok(), no crash.
  EXPECT_EQ(r.u64(), 0u);
  EXPECT_FALSE(r.ok());
  // A pod_vec whose count field lies about the remaining bytes must
  // not allocate terabytes; it must just fail.
  persist::ByteWriter bad;
  bad.u64(1ull << 60);  // "count"
  persist::ByteReader br(bad.bytes().data(), bad.bytes().size());
  EXPECT_TRUE(br.pod_vec<uint64_t>().empty());
  EXPECT_FALSE(br.ok());
}

TEST(Wal, SegmentRoundTrip) {
  TempDir dir;
  persist::PersistOptions opts;
  opts.dir = dir.path;
  opts.fsync_policy = persist::FsyncPolicy::kEveryN;
  opts.fsync_every_n = 1;
  MutationQueue::Drained b1, b2;
  b1.inserts.push_back({0, 1, 2, 0.5});
  b1.inserts.push_back({1, 3, 4, 0.25});
  b2.erases.push_back({0, 1, 2});
  {
    persist::WalWriter w(persist::local_backend(), opts, nullptr);
    EXPECT_TRUE(w.append(1, b1));
    EXPECT_TRUE(w.append(2, b2));
    EXPECT_TRUE(w.append(3, {}));  // empty batches are legal records
  }
  std::string bytes;
  ASSERT_TRUE(persist::local_backend()->read_file(
      dir.path + "/" + persist::WalReader::segment_name(1), &bytes));
  auto scan = persist::WalReader::scan(bytes);
  ASSERT_TRUE(scan.ok);
  EXPECT_FALSE(scan.torn);
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[0].epoch, 1u);
  ASSERT_EQ(scan.records[0].batch.inserts.size(), 2u);
  EXPECT_EQ(scan.records[0].batch.inserts[1].ticket, 1u);
  EXPECT_EQ(scan.records[0].batch.inserts[1].w, 0.25);
  ASSERT_EQ(scan.records[1].batch.erases.size(), 1u);
  EXPECT_EQ(scan.records[1].batch.erases[0].v, 2u);
  EXPECT_TRUE(scan.records[2].batch.empty());
  // Name parsing is strict round-trip.
  uint64_t e = 0;
  EXPECT_TRUE(persist::WalReader::parse_segment_name(
      persist::WalReader::segment_name(42), &e));
  EXPECT_EQ(e, 42u);
  EXPECT_FALSE(persist::WalReader::parse_segment_name("wal-abc.log", &e));
  EXPECT_FALSE(persist::WalReader::parse_segment_name(
      persist::WalReader::segment_name(42) + ".tmp", &e));
}

TEST(Wal, TornTailStopsScanAndTruncates) {
  TempDir dir;
  persist::PersistOptions opts;
  opts.dir = dir.path;
  MutationQueue::Drained b;
  b.inserts.push_back({0, 1, 2, 0.5});
  {
    persist::WalWriter w(persist::local_backend(), opts, nullptr);
    ASSERT_TRUE(w.append(1, b));
    ASSERT_TRUE(w.append(2, b));
  }
  const std::string path =
      dir.path + "/" + persist::WalReader::segment_name(1);
  std::string clean;
  ASSERT_TRUE(persist::local_backend()->read_file(path, &clean));
  // Appending a valid record's PREFIX simulates a crash mid-append.
  std::string torn_rec = persist::WalWriter::encode_record(3, b);
  {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    f.write(torn_rec.data(), static_cast<std::streamsize>(torn_rec.size() / 2));
  }
  std::string dirty;
  ASSERT_TRUE(persist::local_backend()->read_file(path, &dirty));
  auto scan = persist::WalReader::scan(dirty);
  ASSERT_TRUE(scan.ok);
  EXPECT_TRUE(scan.torn);
  EXPECT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.valid_bytes, clean.size());
  // A flipped payload byte is also a tear (CRC catches it) even though
  // the length field is intact.
  std::string corrupt = clean;
  corrupt[corrupt.size() - 3] ^= 0x40;
  auto scan2 = persist::WalReader::scan(corrupt);
  ASSERT_TRUE(scan2.ok);
  EXPECT_TRUE(scan2.torn);
  EXPECT_EQ(scan2.records.size(), 1u);
  // Truncation restores a clean segment.
  ASSERT_TRUE(persist::local_backend()->truncate(path, scan.valid_bytes));
  std::string fixed;
  ASSERT_TRUE(persist::local_backend()->read_file(path, &fixed));
  EXPECT_FALSE(persist::WalReader::scan(fixed).torn);
}

TEST(Wal, FsyncPolicies) {
  MutationQueue::Drained b;
  b.inserts.push_back({0, 1, 2, 0.5});
  auto run = [&](persist::FsyncPolicy pol, uint64_t n,
                 std::chrono::milliseconds iv) {
    TempDir dir;
    persist::PersistOptions opts;
    opts.dir = dir.path;
    opts.fsync_policy = pol;
    opts.fsync_every_n = n;
    opts.fsync_interval = iv;
    auto obs = std::make_shared<EngineObs>();
    {
      persist::WalWriter w(persist::local_backend(), opts, obs);
      for (uint64_t e = 1; e <= 4; ++e) EXPECT_TRUE(w.append(e, b));
    }
    return obs->stats.wal_fsyncs.load();
  };
  EXPECT_EQ(run(persist::FsyncPolicy::kOff, 0, {}), 0u);
  EXPECT_EQ(run(persist::FsyncPolicy::kEveryN, 1, {}), 4u);
  EXPECT_EQ(run(persist::FsyncPolicy::kEveryN, 2, {}), 2u);
  // Interval 0: every append is past due.
  EXPECT_EQ(
      run(persist::FsyncPolicy::kInterval, 0, std::chrono::milliseconds(0)),
      4u);
}

TEST(Wal, SyncIfDueCoversBurstThenSilence) {
  // kInterval's clock used to be checked only inside append(), so a
  // burst followed by silence left the tail unsynced indefinitely.
  // sync_if_due() is the out-of-band deadline check.
  MutationQueue::Drained b;
  b.inserts.push_back({0, 1, 2, 0.5});
  TempDir dir;
  persist::PersistOptions opts;
  opts.dir = dir.path;
  opts.fsync_policy = persist::FsyncPolicy::kInterval;
  opts.fsync_interval = std::chrono::milliseconds(25);
  auto obs = std::make_shared<EngineObs>();
  persist::WalWriter w(persist::local_backend(), opts, obs);
  EXPECT_TRUE(w.append(1, b));  // the burst
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  // Deadline passed with no further appends: the check pays exactly the
  // one owed fsync. (On a pathologically slow machine the append itself
  // may have paid it — either way the total is one, never zero.)
  EXPECT_TRUE(w.sync_if_due());
  EXPECT_EQ(obs->stats.wal_fsyncs.load(), 1u);
  // Nothing pending: later ticks never re-sync, however long the lull.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_TRUE(w.sync_if_due());
  EXPECT_EQ(obs->stats.wal_fsyncs.load(), 1u);
}

TEST(Wal, SyncIfDueIsPolicyGated) {
  MutationQueue::Drained b;
  b.inserts.push_back({0, 1, 2, 0.5});
  for (auto pol : {persist::FsyncPolicy::kOff, persist::FsyncPolicy::kEveryN}) {
    TempDir dir;
    persist::PersistOptions opts;
    opts.dir = dir.path;
    opts.fsync_policy = pol;
    opts.fsync_every_n = 4;  // far from due
    auto obs = std::make_shared<EngineObs>();
    persist::WalWriter w(persist::local_backend(), opts, obs);
    EXPECT_TRUE(w.append(1, b));
    EXPECT_TRUE(w.sync_if_due());  // not an interval policy: no-op
    EXPECT_EQ(obs->stats.wal_fsyncs.load(), 0u);
  }
}

TEST(Persist, IntervalLullSyncedByIdleTickWithinOneTick) {
  // Service-level: the background writer's idle tick (and empty
  // flushes) must honor the interval deadline, so a lull after a burst
  // is synced within roughly interval + one writer tick.
  TempDir dir;
  ServiceConfig cfg;
  cfg.num_vertices = 16;
  cfg.persist.dir = dir.path;
  cfg.persist.fsync_policy = persist::FsyncPolicy::kInterval;
  cfg.persist.fsync_interval = std::chrono::milliseconds(25);
  cfg.flush_interval = std::chrono::milliseconds(5);  // the writer tick
  cfg.flush_threshold = 1000;  // only the interval timer flushes
  SldService svc(cfg);
  svc.start_writer();
  uint64_t base = svc.stats().wal_fsyncs;
  svc.insert(1, 2, 0.5);
  svc.flush();
  if (svc.stats().wal_fsyncs != base) {
    // The append itself paid the sync (clock already past due on a slow
    // machine): burst again immediately so records are left pending.
    base = svc.stats().wal_fsyncs;
    svc.insert(2, 3, 0.6);
    svc.flush();
  }
  // Pure silence from here. The idle tick must pay the owed fsync; the
  // loop bound is generous for CI, the expected latency is
  // interval + one tick (~30 ms).
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(2000);
  while (svc.stats().wal_fsyncs == base &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_GT(svc.stats().wal_fsyncs, base)
      << "burst-then-silence left the WAL tail unsynced past the interval";
  svc.stop_writer();
}

TEST(Persist, OptionsValidateRejectsZeroKnobs) {
  TempDir dir;
  ServiceConfig cfg;
  cfg.num_vertices = 8;
  cfg.persist.dir = dir.path;
  {
    ServiceConfig c = cfg;
    c.persist.rehydrate_cache = 0;  // used to be silently clamped to 1
    EXPECT_THROW(SldService svc(c), std::invalid_argument);
    EXPECT_THROW(persist::recover(c), std::invalid_argument);
  }
  {
    ServiceConfig c = cfg;
    c.persist.fsync_policy = persist::FsyncPolicy::kEveryN;
    c.persist.fsync_every_n = 0;
    EXPECT_THROW(SldService svc(c), std::invalid_argument);
  }
  {
    ServiceConfig c = cfg;
    c.persist.checkpoint_every = 0;
    EXPECT_THROW(SldService svc(c), std::invalid_argument);
  }
  {
    ServiceConfig c = cfg;
    c.persist.retain_checkpoints = 0;  // used to be silently clamped to 1
    EXPECT_THROW(SldService svc(c), std::invalid_argument);
    EXPECT_THROW(persist::recover(c), std::invalid_argument);
  }
  // fsync_every_n = 0 is legal when the policy never reads it.
  {
    ServiceConfig c = cfg;
    c.persist.fsync_policy = persist::FsyncPolicy::kOff;
    c.persist.fsync_every_n = 0;
    SldService svc(c);
    svc.insert(1, 2, 0.5);
    EXPECT_EQ(svc.flush(), 1u);
  }
}

TEST(AsOf, RehydrateCacheCapacityOneBoundary) {
  // Capacity 1 — the smallest legal value (and the old clamp target for
  // zero) — must behave as a real one-entry LRU: a repeat of the cached
  // epoch is a hit, alternating epochs decode every time.
  TempDir dir;
  const double tau = 0.5;
  ServiceConfig cfg;
  cfg.num_vertices = 32;
  cfg.retain_epochs = 1;  // everything historical leaves the ring fast
  cfg.persist.dir = dir.path;
  cfg.persist.checkpoint_every = 2;
  cfg.persist.retain_checkpoints = 8;
  cfg.persist.rehydrate_cache = 1;
  SldService svc(cfg);
  auto rng = test::test_rng();
  uint64_t widx = 0;
  for (int i = 0; i < 8; ++i) {
    auto [u, v] = test::random_distinct_pair(rng, 32);
    svc.insert(u, v, unique_weight(widx++));
    svc.flush();
  }
  auto asof = [&](uint64_t e) {
    QueryRequest req;
    req.queries = {NumClustersQuery{tau}};
    req.consistency = AsOf{e};
    return svc.submit(std::move(req)).get().epoch;
  };
  EXPECT_EQ(asof(2), 2u);
  EXPECT_EQ(svc.stats().asof_rehydrated, 1u);
  EXPECT_EQ(asof(2), 2u);  // cache hit: no second decode
  EXPECT_EQ(svc.stats().asof_rehydrated, 1u);
  EXPECT_EQ(asof(4), 4u);  // evicts epoch 2 (capacity one)
  EXPECT_EQ(svc.stats().asof_rehydrated, 2u);
  EXPECT_EQ(asof(2), 2u);  // decoded again
  EXPECT_EQ(svc.stats().asof_rehydrated, 3u);
}

// ---- checkpoint codec -------------------------------------------------

TEST(Checkpoint, SnapshotCodecRoundTripIsByteExact) {
  ServiceConfig cfg;
  cfg.num_vertices = 40;
  cfg.num_shards = 4;
  cfg.capture_edges = true;
  SldService svc(cfg);
  auto rng = test::test_rng();
  uint64_t widx = 0;
  std::vector<ticket_t> live;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 12; ++i) {
      auto [u, v] = test::random_distinct_pair(rng, 40);
      live.push_back(svc.insert(u, v, unique_weight(widx++)));
    }
    if (round == 2) svc.erase(live[3]);
    svc.flush();
  }
  auto snap = svc.snapshot();
  persist::ByteWriter w;
  persist::SnapshotCodec::encode(*snap, w);
  persist::ByteReader r(w.bytes().data(), w.bytes().size());
  auto decoded = persist::SnapshotCodec::decode(r, nullptr, nullptr);
  ASSERT_TRUE(decoded);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(decoded->epoch(), snap->epoch());
  EXPECT_EQ(decoded->num_tree_edges(), snap->num_tree_edges());
  EXPECT_EQ(decoded->cross().size(), snap->cross().size());
  EXPECT_EQ(decoded->captured_edges().size(), snap->captured_edges().size());
  for (double tau : {0.2, 0.5, 0.9})
    EXPECT_EQ(ThresholdView(decoded, tau).flat_clustering(),
              ThresholdView(snap, tau).flat_clustering());
  // Byte-exactness: re-encoding the decoded snapshot reproduces the
  // original encoding bit for bit.
  persist::ByteWriter w2;
  persist::SnapshotCodec::encode(*decoded, w2);
  EXPECT_EQ(w.bytes(), w2.bytes());
  // Malformed input degrades to null, never UB: truncate mid-stream.
  persist::ByteReader half(w.bytes().data(), w.bytes().size() / 2);
  EXPECT_EQ(persist::SnapshotCodec::decode(half, nullptr, nullptr), nullptr);
}

// ---- service wiring ---------------------------------------------------

TEST(Persist, FreshServiceRefusesDirWithExistingState) {
  TempDir dir;
  ServiceConfig cfg;
  cfg.num_vertices = 16;
  cfg.persist.dir = dir.path;
  {
    SldService svc(cfg);
    svc.insert(1, 2, 0.5);
    svc.flush();
  }
  EXPECT_THROW(SldService svc2(cfg), std::runtime_error);
  // recover() is the sanctioned way back in.
  auto res = persist::recover(cfg);
  ASSERT_TRUE(res.service);
  EXPECT_EQ(res.tip_epoch, 1u);
}

TEST(Persist, RecoverEmptyDirIsFreshEngine) {
  TempDir dir;
  ServiceConfig cfg;
  cfg.num_vertices = 16;
  cfg.persist.dir = dir.path;
  auto res = persist::recover(cfg);
  ASSERT_TRUE(res.service);
  EXPECT_EQ(res.tip_epoch, 0u);
  EXPECT_EQ(res.checkpoint_epoch, 0u);
  EXPECT_EQ(res.records_replayed, 0u);
  EXPECT_FALSE(res.torn_tail_truncated);
  // And it is a live durable engine: mutations flow into the WAL.
  res.service->insert(0, 1, 0.5);
  EXPECT_EQ(res.service->flush(), 1u);
  EXPECT_EQ(res.service->stats().wal_records, 1u);
  // Empty-dir recover must not throw on a second round trip either.
  res.service.reset();
  auto res2 = persist::recover(cfg);
  EXPECT_EQ(res2.tip_epoch, 1u);
  EXPECT_EQ(res2.records_replayed, 1u);
}

/// Shared workload: seeded churn against a persisted service, flushing
/// every few ops and fingerprinting every published epoch at `tau`.
/// Returns the per-epoch fingerprints of the original run.
std::map<uint64_t, EpochFingerprint> churn_workload(SldService& svc,
                                                    uint64_t seed, int steps,
                                                    double tau) {
  par::Rng rng(seed);
  const vertex_id n = svc.num_vertices();
  uint64_t widx = 0;
  std::vector<ticket_t> applied;
  std::vector<std::pair<vertex_id, vertex_id>> applied_uv;
  std::map<uint64_t, EpochFingerprint> fps;
  for (int step = 0; step < steps; ++step) {
    int ops = 1 + static_cast<int>(rng.next_bounded(5));
    for (int i = 0; i < ops; ++i) {
      if (!applied.empty() && rng.next_double() < 0.3) {
        size_t j = rng.next_bounded(applied.size());
        if (rng.next_double() < 0.5)
          svc.erase(applied[j]);
        else
          svc.erase(applied_uv[j].first, applied_uv[j].second);
        applied[j] = applied.back();
        applied.pop_back();
        applied_uv[j] = applied_uv.back();
        applied_uv.pop_back();
      } else {
        auto [u, v] = test::random_distinct_pair(rng, n);
        applied.push_back(svc.insert(u, v, unique_weight(seed * 1000 + widx++)));
        applied_uv.push_back({u, v});
      }
    }
    uint64_t before = svc.epoch();
    uint64_t e = svc.flush();
    if (e != before) fps[e] = fingerprint(svc.snapshot(), tau);
  }
  return fps;
}

TEST(Persist, RecoverWalOnlyReplaysEveryEpochBitForBit) {
  TempDir dir;
  const double tau = 0.5;
  ServiceConfig cfg;
  cfg.num_vertices = 40;
  cfg.num_shards = 4;
  cfg.retain_epochs = 256;  // ring holds the whole replayed history
  cfg.persist.dir = dir.path;
  cfg.persist.checkpoint_every = 1'000'000;  // WAL-only recovery
  std::map<uint64_t, EpochFingerprint> fps;
  {
    SldService svc(cfg);
    fps = churn_workload(svc, 17, 25, tau);
  }
  auto res = persist::recover(cfg);
  ASSERT_TRUE(res.service);
  EXPECT_EQ(res.checkpoint_epoch, 0u);
  EXPECT_FALSE(res.torn_tail_truncated);
  ASSERT_FALSE(fps.empty());
  EXPECT_EQ(res.tip_epoch, fps.rbegin()->first);
  EXPECT_EQ(res.records_replayed, fps.size());
  EXPECT_EQ(res.service->stats().recovery_replayed, fps.size());
  // EVERY republished epoch fingerprints identically, served from the
  // recovered service's retention ring.
  for (const auto& [e, fp] : fps) {
    SCOPED_TRACE("epoch=" + std::to_string(e));
    auto snap = res.service->snapshot_at(e);
    ASSERT_TRUE(snap);
    expect_fingerprint_eq(fingerprint(snap, tau), fp);
  }
}

TEST(Persist, RecoverFromCheckpointPlusWalTail) {
  TempDir dir;
  const double tau = 0.4;
  ServiceConfig cfg;
  cfg.num_vertices = 48;
  cfg.num_shards = 3;
  cfg.retain_epochs = 256;
  cfg.persist.dir = dir.path;
  cfg.persist.checkpoint_every = 4;
  std::map<uint64_t, EpochFingerprint> fps;
  uint64_t pre_ckpts = 0;
  {
    SldService svc(cfg);
    fps = churn_workload(svc, 23, 22, tau);
    pre_ckpts = svc.stats().checkpoints_written;
  }
  ASSERT_GE(pre_ckpts, 2u);
  auto res = persist::recover(cfg);
  ASSERT_TRUE(res.service);
  EXPECT_GT(res.checkpoint_epoch, 0u);
  EXPECT_EQ(res.tip_epoch, fps.rbegin()->first);
  // Replay covers exactly the epochs past the checkpoint.
  EXPECT_EQ(res.records_replayed, res.tip_epoch - res.checkpoint_epoch);
  for (const auto& [e, fp] : fps) {
    if (e < res.checkpoint_epoch) continue;  // before the replay base
    SCOPED_TRACE("epoch=" + std::to_string(e));
    auto snap = res.service->snapshot_at(e);
    ASSERT_TRUE(snap);
    expect_fingerprint_eq(fingerprint(snap, tau), fp);
  }
  // The recovered engine keeps serving and persisting: more churn, a
  // second crashless restart, still bit-for-bit.
  auto more = churn_workload(*res.service, 29, 8, tau);
  res.service.reset();
  auto res2 = persist::recover(cfg);
  ASSERT_TRUE(res2.service);
  EXPECT_EQ(res2.tip_epoch, more.rbegin()->first);
  expect_fingerprint_eq(fingerprint(res2.service->snapshot(), tau),
                        more.rbegin()->second);
}

TEST(Persist, TicketAndLedgerContinuityAfterRecovery) {
  TempDir dir;
  ServiceConfig cfg;
  cfg.num_vertices = 16;
  cfg.persist.dir = dir.path;
  ticket_t t_max = 0;
  {
    SldService svc(cfg);
    svc.insert(0, 1, 0.1);
    ticket_t t2 = svc.insert(2, 3, 0.2);
    svc.flush();
    svc.erase(t2);  // applied-then-erased: the ticket existed
    t_max = svc.insert(4, 5, 0.3);
    svc.flush();
  }
  auto res = persist::recover(cfg);
  auto& svc = *res.service;
  // New tickets never collide with history, including erased tickets.
  ticket_t fresh = svc.insert(6, 7, 0.4);
  EXPECT_GT(fresh, t_max);
  // The endpoint ledger survived: erase-by-endpoints of a pre-crash
  // edge resolves, and a dead edge does not.
  EXPECT_TRUE(svc.erase(vertex_id{0}, vertex_id{1}));
  EXPECT_FALSE(svc.erase(vertex_id{2}, vertex_id{3}));
  svc.flush();
  EXPECT_TRUE(svc.same_cluster(6, 7, 0.5));
  EXPECT_FALSE(svc.same_cluster(0, 1, 0.99));
}

// ---- the replay entry -------------------------------------------------

/// One drained batch inserting a single edge.
MutationQueue::Drained insert_batch(ticket_t t, vertex_id u, vertex_id v,
                                    double w) {
  MutationQueue::Drained b;
  b.inserts.push_back({t, u, v, w});
  return b;
}

/// SldService::replay's epoch contract, pinned once for every caller
/// (recovery and the replica both re-enact history through it): an
/// overlapping record is skipped, a gapped record is refused, and a
/// checkpoint image only bootstraps an engine still at epoch 0 —
/// skipped and refused calls leave the engine exactly as it was.
TEST(Replay, EpochContractSkipsOverlapRefusesGapsAndLateBootstraps) {
  using R = SldService::ReplayResult;
  ServiceConfig cfg;
  cfg.num_vertices = 16;
  cfg.num_shards = 2;
  SldService svc(cfg);
  EXPECT_EQ(svc.replay(1, insert_batch(0, 0, 1, 0.1)), R::kApplied);
  EXPECT_EQ(svc.replay(2, insert_batch(1, 2, 3, 0.2)), R::kApplied);
  ASSERT_EQ(svc.epoch(), 2u);

  // Overlap: epochs the engine already holds are skipped, whatever
  // their batch says.
  EXPECT_EQ(svc.replay(2, insert_batch(7, 4, 5, 0.3)), R::kCovered);
  EXPECT_EQ(svc.replay(1, insert_batch(8, 6, 7, 0.3)), R::kCovered);
  // Gap: refused, the engine stays at its epoch.
  EXPECT_EQ(svc.replay(4, insert_batch(9, 4, 5, 0.3)), R::kRefused);
  // A checkpoint image onto a non-fresh engine: refused.
  EXPECT_EQ(svc.replay(10, insert_batch(9, 4, 5, 0.3), /*ticket_floor=*/20),
            R::kRefused);
  EXPECT_EQ(svc.epoch(), 2u);
  EXPECT_EQ(svc.stats().flushes, 2u);
  EXPECT_FALSE(svc.same_cluster(4, 5, 0.9));
  EXPECT_FALSE(svc.same_cluster(6, 7, 0.9));

  // The refusals changed nothing: the next record still applies, and
  // the engine continues history as if it had logged it itself.
  EXPECT_EQ(svc.replay(3, insert_batch(2, 4, 5, 0.3)), R::kApplied);
  EXPECT_TRUE(svc.same_cluster(4, 5, 0.5));
  EXPECT_EQ(svc.stats().inserts_enqueued, 0u);  // history counted once
  EXPECT_EQ(svc.insert(8, 9, 0.4), 3u);         // tickets follow history
  EXPECT_TRUE(svc.erase(vertex_id{1}, vertex_id{0}));  // ledger replayed
  EXPECT_EQ(svc.flush(), 4u);
  EXPECT_FALSE(svc.same_cluster(0, 1, 0.9));

  // A checkpoint image bootstraps a fresh engine: the epoch jumps, the
  // ticket floor holds, and records then continue strictly after it.
  SldService fresh(cfg);
  MutationQueue::Drained image = insert_batch(5, 0, 1, 0.1);
  image.inserts.push_back({9, 2, 3, 0.2});
  EXPECT_EQ(fresh.replay(40, image, /*ticket_floor=*/30), R::kApplied);
  EXPECT_EQ(fresh.epoch(), 40u);
  EXPECT_EQ(fresh.replay(40, insert_batch(30, 4, 5, 0.3)), R::kCovered);
  EXPECT_EQ(fresh.replay(42, insert_batch(30, 4, 5, 0.3)), R::kRefused);
  EXPECT_EQ(fresh.replay(41, insert_batch(30, 4, 5, 0.3)), R::kApplied);
  EXPECT_EQ(fresh.insert(6, 7, 0.4), 31u);
  EXPECT_TRUE(fresh.same_cluster(2, 3, 0.5));
}

/// Every counter of two reports, field by field (named on failure).
void expect_counters_eq(const EngineStats::Report& a,
                        const EngineStats::Report& b) {
#define DYNSLD_EXPECT_COUNTER(name) EXPECT_EQ(a.name, b.name) << #name;
  DYNSLD_ENGINE_COUNTERS(DYNSLD_EXPECT_COUNTER)
#undef DYNSLD_EXPECT_COUNTER
}

/// Replayed history is outside input: a batch holding an insert the
/// engine cannot hold — an endpoint past num_vertices (in or out of a
/// shard's range), a self-loop, a non-finite weight — is refused whole,
/// as a WAL record and as a checkpoint image, and leaves the engine
/// exactly as it was: epoch, pending queue, counters, ticket counter.
TEST(Replay, RefusesInsertsTheEngineCannotHold) {
  using R = SldService::ReplayResult;
  ServiceConfig cfg;
  cfg.num_vertices = 32;  // two shards of 16
  cfg.num_shards = 2;
  const double inf = std::numeric_limits<double>::infinity();
  const MutationQueue::InsertOp malformed[] = {
      {5, 40, 41, 0.2},  // both past n, homed in a shard that is not there
      {5, 3, 40, 0.2},   // a cross-shard edge reaching past n
      {5, 32, 1, 0.2},   // the first id past n
      {5, 7, 7, 0.2},    // self-loop
      {5, 2, 3, std::nan("")},
      {5, 2, 3, inf},
      {5, 2, 3, -inf},
  };
  for (const MutationQueue::InsertOp& op : malformed) {
    SCOPED_TRACE("insert (" + std::to_string(op.u) + ", " +
                 std::to_string(op.v) + ", " + std::to_string(op.w) + ")");
    // A well-formed insert rides along: the refusal is of the batch.
    MutationQueue::Drained batch = insert_batch(1, 2, 3, 0.2);
    batch.inserts.push_back(op);

    // As the next WAL record of an engine with history and a pending
    // insert.
    SldService svc(cfg);
    ASSERT_EQ(svc.replay(1, insert_batch(0, 0, 1, 0.1)), R::kApplied);
    ASSERT_EQ(svc.insert(4, 5, 0.3), 1u);
    const EngineStats::Report before = svc.stats();
    EXPECT_EQ(svc.replay(2, batch), R::kRefused);
    EXPECT_EQ(svc.epoch(), 1u);
    EXPECT_EQ(svc.pending_updates(), 1u);
    expect_counters_eq(svc.stats(), before);
    // Nothing of it landed: the ticket counter did not rise past the
    // refused tickets, and the pending insert publishes as epoch 2.
    EXPECT_EQ(svc.insert(6, 7, 0.4), 2u);
    EXPECT_EQ(svc.flush(), 2u);
    EXPECT_FALSE(svc.same_cluster(2, 3, 0.9));

    // As a checkpoint image onto a fresh engine.
    SldService fresh(cfg);
    const EngineStats::Report fresh_before = fresh.stats();
    EXPECT_EQ(fresh.replay(10, batch, /*ticket_floor=*/20), R::kRefused);
    EXPECT_EQ(fresh.epoch(), 0u);
    EXPECT_EQ(fresh.pending_updates(), 0u);
    expect_counters_eq(fresh.stats(), fresh_before);
    EXPECT_EQ(fresh.insert(6, 7, 0.4), 0u);
  }
}

/// Every file of `dir` and its bytes.
std::map<std::string, std::string> dir_contents(const std::string& dir) {
  std::map<std::string, std::string> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    out[entry.path().filename().string()] =
        std::string(std::istreambuf_iterator<char>(in), {});
  }
  return out;
}

/// A directory written under num_vertices = 64 does not fit an engine
/// of 32: recover() throws HistoryRefused naming the first epoch that
/// reaches past the range — as a checkpoint image or as a WAL record —
/// instead of recovering the shorter history before it (which the next
/// writer would append over). The directory is left byte-for-byte as
/// it was, so recovering under the right config still works.
TEST(Persist, RecoverRefusesHistoryWrittenForMoreVertices) {
  for (bool with_checkpoint : {false, true}) {
    SCOPED_TRACE(with_checkpoint ? "checkpoint at epoch 2" : "WAL only");
    TempDir dir;
    ServiceConfig cfg;
    cfg.num_vertices = 64;
    cfg.num_shards = 2;
    cfg.persist.dir = dir.path;
    cfg.persist.checkpoint_every = with_checkpoint ? 2 : 1'000'000;
    {
      SldService svc(cfg);
      svc.insert(0, 1, 0.1);  // epoch 1 fits 32 vertices
      svc.flush();
      svc.insert(40, 41, 0.2);  // intra-shard past 32
      svc.insert(3, 50, 0.3);   // cross-shard past 32
      svc.flush();
      svc.insert(2, 3, 0.4);
      svc.flush();
      ASSERT_EQ(svc.stats().checkpoints_written, with_checkpoint ? 1u : 0u);
    }
    const auto files = dir_contents(dir.path);

    ServiceConfig small = cfg;
    small.num_vertices = 32;
    try {
      persist::recover(small);
      ADD_FAILURE() << "recover() accepted history past num_vertices";
    } catch (const persist::HistoryRefused& e) {
      EXPECT_EQ(e.epoch(), 2u);
      EXPECT_NE(std::string(e.what())
                    .find(with_checkpoint ? "checkpoint" : "WAL record"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(dir_contents(dir.path), files);

    auto res = persist::recover(cfg);
    ASSERT_TRUE(res.service);
    EXPECT_EQ(res.tip_epoch, 3u);
    EXPECT_TRUE(res.service->same_cluster(40, 41, 0.5));
  }
}

/// The checkpoint's live-edge table is enumerated from the router's
/// ticket table, not kept alongside it: under erase-heavy churn with
/// cross-shard edges, annihilated pairs, and MSF swaps (a non-tree edge
/// promoted when the tree edge it backs up is erased), every retained
/// checkpoint must hold exactly the test's own (ticket, u, v, w) ledger
/// at that epoch, in ascending ticket order.
TEST(Persist, CheckpointLiveTableIsTheRoutersLedger) {
  TempDir dir;
  ServiceConfig cfg;
  cfg.num_vertices = 64;
  cfg.num_shards = 4;  // 16-vertex shards
  cfg.persist.dir = dir.path;
  cfg.persist.checkpoint_every = 3;
  cfg.persist.retain_checkpoints = 64;  // keep every checkpoint to check
  using Ledger = std::map<ticket_t, MutationQueue::InsertOp>;
  Ledger ledger;
  std::map<uint64_t, Ledger> at_epoch;
  auto rng = test::test_rng();
  uint64_t widx = 0;
  size_t swaps = 0;
  SldService svc(cfg);
  auto insert = [&](vertex_id u, vertex_id v, double w) {
    ticket_t t = svc.insert(u, v, w);
    ledger[t] = MutationQueue::InsertOp{t, u, v, w};
    return t;
  };
  auto erase = [&](ticket_t t) {
    svc.erase(t);
    ledger.erase(t);
  };
  auto flush = [&] { at_epoch[svc.flush()] = ledger; };
  for (int round = 0; round < 36; ++round) {
    // An MSF swap inside one shard: a triangle whose heaviest edge is
    // non-tree until the lightest is erased in the next epoch.
    const vertex_id a = static_cast<vertex_id>(16 * (round % 4));
    const vertex_id b = a + 1 + static_cast<vertex_id>(round % 7);
    const vertex_id c = b + 1 + static_cast<vertex_id>(round % 5);
    ticket_t light = insert(a, b, 0.001 * (round + 1));
    insert(b, c, 0.002 * (round + 1));
    insert(a, c, 0.9 + 0.001 * round);  // non-tree: closes the cycle
    // Random churn: unique weights, ~half of them cross-shard; an
    // annihilated pair (insert + erase before any flush) for good
    // measure.
    for (int i = 0; i < 10; ++i) {
      auto [u, v] = test::random_distinct_pair(rng, 64);
      insert(u, v, unique_weight(widx++));
    }
    erase(insert(a, c, unique_weight(widx++)));
    flush();
    erase(light);  // promotes (a, c) unless another path already spans
    // Erase-heavy: past the warm-up, erase more than the round inserts.
    const size_t n_erase = round < 8 ? 4 : 16;
    for (size_t i = 0; i < n_erase && ledger.size() > 8; ++i) {
      auto it = ledger.begin();
      std::advance(it, rng.next_bounded(ledger.size()));
      erase(it->first);
    }
    flush();
    if (svc.same_cluster(a, b, 0.95) && !svc.same_cluster(a, b, 0.5)) ++swaps;
  }
  ASSERT_GT(swaps, 0u) << "no erase promoted a non-tree edge";
  ASSERT_GE(svc.stats().cross_ops, 1u);

  size_t checked = 0;
  for (const auto& name : persist::local_backend()->list(dir.path)) {
    uint64_t e;
    if (!persist::CheckpointWriter::parse_file_name(name, &e)) continue;
    SCOPED_TRACE("checkpoint epoch=" + std::to_string(e));
    std::string bytes;
    ASSERT_TRUE(
        persist::local_backend()->read_file(dir.path + "/" + name, &bytes));
    persist::CheckpointData ck;
    ASSERT_TRUE(persist::CheckpointWriter::read(bytes, &ck));
    ASSERT_TRUE(at_epoch.count(e));
    const Ledger& want = at_epoch[e];
    ASSERT_EQ(ck.live.size(), want.size());
    size_t i = 0;
    for (const auto& [t, op] : want) {  // std::map: ascending tickets
      EXPECT_EQ(ck.live[i].ticket, t);
      EXPECT_EQ(ck.live[i].u, op.u);
      EXPECT_EQ(ck.live[i].v, op.v);
      EXPECT_EQ(ck.live[i].w, op.w);
      ++i;
    }
    ++checked;
  }
  EXPECT_GE(checked, 10u);
}

/// A gapped WAL tail (impossible from the sequential writer: only
/// tampering makes one) ends the history like a tear does: recovery
/// stops at the last contiguous epoch, truncates the record past the
/// hole away, and the resumed engine's next epochs recover cleanly.
TEST(Persist, GappedRecordEndsHistoryAndIsTruncated) {
  TempDir dir;
  const double tau = 0.5;
  ServiceConfig cfg;
  cfg.num_vertices = 32;
  cfg.num_shards = 2;
  cfg.persist.dir = dir.path;
  cfg.persist.checkpoint_every = 1'000'000;  // one segment, WAL only
  std::map<uint64_t, EpochFingerprint> fps;
  {
    SldService svc(cfg);
    fps = churn_workload(svc, 61, 6, tau);
  }
  const uint64_t tip = fps.rbegin()->first;
  const std::string seg = dir.path + "/" + persist::WalReader::segment_name(1);
  const uint64_t clean_size = fs::file_size(seg);
  {
    std::ofstream f(seg, std::ios::binary | std::ios::app);
    const std::string rec = persist::WalWriter::encode_record(
        tip + 2, insert_batch(1000, 0, 1, 0.5));
    f.write(rec.data(), static_cast<std::streamsize>(rec.size()));
  }
  auto res = persist::recover(cfg);
  ASSERT_TRUE(res.service);
  EXPECT_EQ(res.tip_epoch, tip);
  EXPECT_FALSE(res.torn_tail_truncated);  // a gap is not a tear
  EXPECT_EQ(fs::file_size(seg), clean_size);
  expect_fingerprint_eq(fingerprint(res.service->snapshot(), tau),
                        fps.rbegin()->second);
  auto more = churn_workload(*res.service, 62, 3, tau);
  res.service.reset();
  auto res2 = persist::recover(cfg);
  EXPECT_EQ(res2.tip_epoch, more.rbegin()->first);
  expect_fingerprint_eq(fingerprint(res2.service->snapshot(), tau),
                        more.rbegin()->second);
}

// ---- crash injection --------------------------------------------------

TEST(Persist, RandomizedCrashPointsRecoverBitForBit) {
  const double tau = 0.5;
  auto rng = test::test_rng();
  int torn_seen = 0;
  for (int trial = 0; trial < 10; ++trial) {
    SCOPED_TRACE("trial=" + std::to_string(trial));
    TempDir dir;
    ServiceConfig cfg;
    cfg.num_vertices = 40;
    cfg.num_shards = 4;
    cfg.retain_epochs = 256;
    cfg.persist.dir = dir.path;
    cfg.persist.checkpoint_every = 5;
    cfg.persist.fsync_every_n = 1;
    // Budgets sweep the interesting range: death inside the first
    // records through death inside a late checkpoint.
    uint64_t budget = 40 + rng.next_bounded(6000);
    std::map<uint64_t, EpochFingerprint> fps;
    bool died = false;
    {
      // Attach the fault plane by hand: same wiring the constructor
      // does, but over the injected backend.
      ServiceConfig boot = cfg;
      boot.persist.dir.clear();
      SldService svc(boot);
      auto fault =
          std::make_shared<FaultBackend>(persist::local_backend(), budget);
      svc.attach_persistence(std::make_unique<persist::PersistenceManager>(
          cfg.persist, fault, svc.obs_shared()));
      fps = churn_workload(svc, 100 + trial, 20, tau);
      died = fault->dead();
    }
    ASSERT_FALSE(fps.empty());
    auto res = persist::recover(cfg);
    ASSERT_TRUE(res.service);
    if (res.torn_tail_truncated) ++torn_seen;
    if (!died) {
      // Budget never ran out: full history must come back.
      EXPECT_EQ(res.tip_epoch, fps.rbegin()->first);
    }
    // Whatever the recovered tip is, it is a REAL epoch the original
    // run published, and its state matches bit for bit. With
    // fsync_every_n=1 everything the WAL accepted is on disk, so the
    // tip can only trail by the records the crash swallowed.
    if (res.tip_epoch == 0) continue;  // died before the first record
    ASSERT_TRUE(fps.count(res.tip_epoch))
        << "recovered to an epoch the original never published: "
        << res.tip_epoch;
    for (const auto& [e, fp] : fps) {
      if (e < res.checkpoint_epoch || e > res.tip_epoch) continue;
      SCOPED_TRACE("epoch=" + std::to_string(e));
      auto snap = res.service->snapshot_at(e);
      ASSERT_TRUE(snap);
      expect_fingerprint_eq(fingerprint(snap, tau), fp);
    }
    // The survivor is a live engine: it accepts churn and persists it.
    auto more = churn_workload(*res.service, 200 + trial, 4, tau);
    EXPECT_EQ(res.service->epoch(), more.rbegin()->first);
  }
  // Across 10 random budgets at least one crash should land mid-write;
  // if none did, the sweep is not exercising tears at all.
  EXPECT_GT(torn_seen, 0);
}

TEST(Persist, CorruptNewestCheckpointFallsBackToOlder) {
  TempDir dir;
  const double tau = 0.6;
  ServiceConfig cfg;
  cfg.num_vertices = 32;
  cfg.num_shards = 2;
  cfg.retain_epochs = 256;
  cfg.persist.dir = dir.path;
  cfg.persist.checkpoint_every = 3;
  cfg.persist.retain_checkpoints = 8;  // keep deep history for fallback
  std::map<uint64_t, EpochFingerprint> fps;
  {
    SldService svc(cfg);
    fps = churn_workload(svc, 31, 15, tau);
    ASSERT_GE(svc.stats().checkpoints_written, 2u);
  }
  // Find the newest checkpoint and flip a payload byte.
  std::vector<std::string> ckpts;
  for (const auto& name : persist::local_backend()->list(dir.path)) {
    uint64_t e;
    if (persist::CheckpointWriter::parse_file_name(name, &e))
      ckpts.push_back(name);
  }
  ASSERT_GE(ckpts.size(), 2u);
  const std::string newest = dir.path + "/" + ckpts.back();
  {
    std::fstream f(newest, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(60);
    char c;
    f.seekg(60);
    f.get(c);
    c ^= 0x11;
    f.seekp(60);
    f.put(c);
  }
  auto res = persist::recover(cfg);
  ASSERT_TRUE(res.service);
  // Fallback: an OLDER checkpoint anchored replay, and the WAL (whose
  // segments the retention window kept) still carried it to the tip.
  uint64_t newest_epoch = 0;
  ASSERT_TRUE(
      persist::CheckpointWriter::parse_file_name(ckpts.back(), &newest_epoch));
  EXPECT_LT(res.checkpoint_epoch, newest_epoch);
  EXPECT_EQ(res.tip_epoch, fps.rbegin()->first);
  expect_fingerprint_eq(fingerprint(res.service->snapshot(), tau),
                        fps.rbegin()->second);
}

TEST(Persist, CompactionBoundsHistoryAndKeepsRecoverability) {
  TempDir dir;
  const double tau = 0.5;
  ServiceConfig cfg;
  cfg.num_vertices = 32;
  cfg.num_shards = 2;
  cfg.persist.dir = dir.path;
  cfg.persist.checkpoint_every = 2;
  cfg.persist.retain_checkpoints = 2;
  std::map<uint64_t, EpochFingerprint> fps;
  uint64_t removed_ckpts = 0, removed_segs = 0;
  {
    SldService svc(cfg);
    fps = churn_workload(svc, 41, 24, tau);
    auto r = svc.stats();
    removed_ckpts = r.checkpoints_removed;
    removed_segs = r.wal_segments_removed;
  }
  // Compaction actually ran...
  EXPECT_GT(removed_ckpts, 0u);
  EXPECT_GT(removed_segs, 0u);
  // ...and bounded the directory: at most retain_checkpoints checkpoint
  // files, and segments only above the retained horizon.
  size_t n_ckpt = 0, n_seg = 0;
  for (const auto& name : persist::local_backend()->list(dir.path)) {
    uint64_t e;
    if (persist::CheckpointWriter::parse_file_name(name, &e)) ++n_ckpt;
    if (persist::WalReader::parse_segment_name(name, &e)) ++n_seg;
  }
  EXPECT_LE(n_ckpt, cfg.persist.retain_checkpoints);
  EXPECT_LE(n_seg, cfg.persist.retain_checkpoints + 1);
  auto res = persist::recover(cfg);
  ASSERT_TRUE(res.service);
  EXPECT_EQ(res.tip_epoch, fps.rbegin()->first);
  expect_fingerprint_eq(fingerprint(res.service->snapshot(), tau),
                        fps.rbegin()->second);
}

// ---- AsOf time travel -------------------------------------------------

TEST(AsOf, RingRehydrationAndUnavailability) {
  TempDir dir;
  const double tau = 0.5;
  ServiceConfig cfg;
  cfg.num_vertices = 32;
  cfg.num_shards = 2;
  cfg.retain_epochs = 2;  // tiny ring: epochs age out fast
  cfg.persist.dir = dir.path;
  cfg.persist.checkpoint_every = 4;
  cfg.persist.retain_checkpoints = 8;
  SldService svc(cfg);
  auto rng = test::test_rng();
  std::map<uint64_t, EpochFingerprint> fps;
  uint64_t widx = 0;
  for (int i = 0; i < 12; ++i) {
    auto [u, v] = test::random_distinct_pair(rng, 32);
    svc.insert(u, v, unique_weight(widx++));
    uint64_t e = svc.flush();
    fps[e] = fingerprint(svc.snapshot(), tau);
  }
  ASSERT_EQ(svc.epoch(), 12u);

  auto asof = [&](uint64_t e) {
    QueryRequest req;
    req.queries = {FlatClusteringQuery{tau}, NumClustersQuery{tau}};
    req.consistency = AsOf{e};
    return svc.submit(std::move(req)).get();
  };

  // Ring tier: epoch 11 was just superseded (retain_epochs = 2).
  ResultSet ring = asof(11);
  EXPECT_EQ(ring.epoch, 11u);
  EXPECT_EQ(std::get<std::vector<vertex_id>>(ring.results[0]),
            fps[11].labels);
  EXPECT_EQ(std::get<uint64_t>(ring.results[1]), fps[11].num_clusters);
  EXPECT_EQ(svc.stats().asof_retained, 1u);

  // Checkpoint tier: epoch 4 is far below the ring but checkpointed.
  ResultSet cold = asof(4);
  EXPECT_EQ(cold.epoch, 4u);
  EXPECT_EQ(std::get<std::vector<vertex_id>>(cold.results[0]), fps[4].labels);
  EXPECT_EQ(std::get<uint64_t>(cold.results[1]), fps[4].num_clusters);
  EXPECT_EQ(svc.stats().asof_rehydrated, 1u);
  // Again: the rehydration LRU answers, no second decode.
  asof(4);
  EXPECT_EQ(svc.stats().asof_rehydrated, 1u);

  // Current epoch behaves like Latest (no historical tier involved).
  EXPECT_EQ(asof(12).epoch, 12u);

  // Cold epochs without a checkpoint, and future epochs, are typed
  // errors — never a silently different epoch.
  uint64_t unavailable_before = svc.stats().asof_unavailable;
  for (uint64_t bad : {uint64_t{5}, uint64_t{99}}) {
    QueryRequest req;
    req.queries = {NumClustersQuery{tau}};
    req.consistency = AsOf{bad};
    auto fut = svc.submit(std::move(req));
    try {
      fut.get();
      FAIL() << "AsOf{" << bad << "} should be unavailable";
    } catch (const QueryError& err) {
      EXPECT_EQ(err.code(), QueryErrorCode::kEpochUnavailable);
    }
  }
  EXPECT_EQ(svc.stats().asof_unavailable, unavailable_before + 2);

  // An empty AsOf request still resolves the epoch (or errors).
  QueryRequest empty;
  empty.consistency = AsOf{4};
  EXPECT_EQ(svc.submit(std::move(empty)).get().epoch, 4u);
}

TEST(AsOf, UnpersistedServiceServesRingOnly) {
  ServiceConfig cfg;
  cfg.num_vertices = 16;
  cfg.retain_epochs = 3;
  SldService svc(cfg);
  for (int i = 0; i < 6; ++i) {
    svc.insert(static_cast<vertex_id>(i), static_cast<vertex_id>(i + 1),
               unique_weight(static_cast<uint64_t>(i)));
    svc.flush();
  }
  QueryRequest ok;
  ok.queries = {NumClustersQuery{0.5}};
  ok.consistency = AsOf{5};
  EXPECT_EQ(svc.submit(std::move(ok)).get().epoch, 5u);
  QueryRequest gone;
  gone.queries = {NumClustersQuery{0.5}};
  gone.consistency = AsOf{1};
  auto fut = svc.submit(std::move(gone));
  try {
    fut.get();
    FAIL() << "epoch 1 fell off the ring and there is no rehydrator";
  } catch (const QueryError& err) {
    EXPECT_EQ(err.code(), QueryErrorCode::kEpochUnavailable);
  }
}

// ---- observability ----------------------------------------------------

TEST(Persist, CountersAndHistogramsReachTheScrapeSurface) {
  TempDir dir;
  ServiceConfig cfg;
  cfg.num_vertices = 24;
  cfg.persist.dir = dir.path;
  cfg.persist.checkpoint_every = 2;
  SldService svc(cfg);
  churn_workload(svc, 51, 10, 0.5);
  auto snap = svc.obs().registry.scrape();
  EXPECT_GT(snap.counter("engine.wal_records"), 0u);
  EXPECT_GT(snap.counter("engine.wal_bytes"), 0u);
  EXPECT_GT(snap.counter("engine.wal_fsyncs"), 0u);
  EXPECT_GT(snap.counter("engine.checkpoints_written"), 0u);
  const auto* append = snap.histogram("persist.append");
  ASSERT_NE(append, nullptr);
  EXPECT_GT(append->count, 0u);
  const auto* ckpt = snap.histogram("persist.checkpoint");
  ASSERT_NE(ckpt, nullptr);
  EXPECT_GT(ckpt->count, 0u);
  // The report mirrors the same counters (X-macro coverage in action).
  auto r = svc.stats();
  EXPECT_EQ(r.wal_records, snap.counter("engine.wal_records"));
  EXPECT_EQ(r.checkpoints_written, snap.counter("engine.checkpoints_written"));
}

// Fixture writer for the walctl_checkpoints ctest
// (tests/walctl_checkpoint_test.py): writes a durable directory holding
// two checkpoints and a WAL tail into $DYNSLD_WALCTL_DIR, which walctl
// must then list and verify clean. Disabled, so only that script runs
// it (--gtest_also_run_disabled_tests).
TEST(Walctl, DISABLED_WriteFixtureDirectory) {
  const char* dir = std::getenv("DYNSLD_WALCTL_DIR");
  if (!dir) GTEST_SKIP() << "runs only under walctl_checkpoint_test.py";
  ServiceConfig cfg;
  cfg.num_vertices = 256;
  cfg.num_shards = 2;
  cfg.persist.dir = dir;
  cfg.persist.checkpoint_every = 4;
  SldService svc(cfg);
  par::Rng rng(11);
  std::vector<ticket_t> live;
  for (int epoch = 0; epoch < 10; ++epoch) {
    for (int i = 0; i < 24; ++i) {
      if (!live.empty() && rng.next_double() < 0.3) {
        size_t j = rng.next_bounded(live.size());
        svc.erase(live[j]);
        live[j] = live.back();
        live.pop_back();
      } else {
        auto [u, v] = test::random_distinct_pair(rng, cfg.num_vertices);
        live.push_back(svc.insert(u, v, rng.next_double()));
      }
    }
    svc.flush();
  }
  EXPECT_EQ(svc.epoch(), 10u);
}

}  // namespace
}  // namespace dynsld::engine
