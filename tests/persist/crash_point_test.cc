#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "persist/bucket_log.h"
#include "persist/persist_manager.h"
#include "sdds/lh_server.h"
#include "sdds/lh_system.h"
#include "util/random.h"

// Crash-point sweep: a scripted workload runs against one log-backed bucket
// server while a fault hook tears the log's write stream at a seeded byte
// offset — truncating mid-frame or flipping a bit — and the site halts
// unacknowledged, exactly like a killed process. A restarted site must then
// recover byte-identically to the last acked pre-crash state: the record
// map, the ColumnStore mirror, and the scan results. The sweep spreads the
// tear offsets across everything the log ever writes (header, frames, and —
// in the small-floor configuration — checkpoint rewrites).

namespace essdds::sdds {
namespace {

using persist::BucketLog;
using persist::PersistManager;

#if ESSDDS_PERSIST

class AckSink : public Site {
 public:
  void OnMessage(Message& msg, Network& net) override {
    (void)net;
    received.push_back(std::move(msg));
  }
  std::vector<Message> received;
};

/// A single-bucket world: every address routes to bucket 0, the coordinator
/// is a sink (capacity is huge, so no overflow fires anyway), and the one
/// installed filter matches everything.
class OneBucketRuntime : public LhRuntime {
 public:
  OneBucketRuntime() {
    options_.bucket_capacity = size_t{1} << 20;
    filter_ = MakeScanFilter(
        [](uint64_t, ByteSpan, ByteSpan) { return true; });
  }

  SiteId SiteOfBucket(uint64_t) const override { return server_site; }
  bool BucketExists(uint64_t bucket) const override { return bucket == 0; }
  SiteId CoordinatorSite() const override { return sink_site; }
  SiteId CreateBucket(uint64_t, uint32_t) override {
    ADD_FAILURE() << "no splits in this harness";
    return kInvalidSite;
  }
  const ScanFilter& FilterById(uint64_t) const override { return *filter_; }
  const LhOptions& options() const override { return options_; }
  void RetireLastBucket() override {}

  SiteId server_site = kInvalidSite;
  SiteId sink_site = kInvalidSite;

 private:
  LhOptions options_;
  std::unique_ptr<ScanFilter> filter_;
};

struct Op {
  MsgType type = MsgType::kInsert;
  uint64_t key = 0;
  Bytes value;
};

/// The scripted workload, generated once: a deterministic mix of fresh
/// inserts, overwrites, deletes of live keys, and deletes of absent keys.
std::vector<Op> BuildScript(uint64_t seed, size_t ops) {
  Rng rng(seed);
  std::vector<Op> script;
  std::vector<uint64_t> live;
  for (size_t i = 0; i < ops; ++i) {
    Op op;
    const uint64_t roll = rng.Uniform(10);
    if (roll < 5 || live.empty()) {
      op.type = MsgType::kInsert;
      op.key = rng.Next();
      live.push_back(op.key);
    } else if (roll < 7) {
      op.type = MsgType::kInsert;  // overwrite
      op.key = live[rng.Uniform(live.size())];
    } else if (roll < 9) {
      op.type = MsgType::kDelete;
      const size_t at = rng.Uniform(live.size());
      op.key = live[at];
      live.erase(live.begin() + static_cast<long>(at));
    } else {
      op.type = MsgType::kDelete;  // absent key
      op.key = rng.Next() | 1;
    }
    if (op.type == MsgType::kInsert) {
      op.value = ToBytes("record-" + std::to_string(op.key) + "-");
      const size_t pad = rng.Uniform(32);
      op.value.insert(op.value.end(), pad, static_cast<uint8_t>(rng.Next()));
    }
    script.push_back(std::move(op));
  }
  return script;
}

struct RunOutcome {
  std::map<uint64_t, Bytes> acked;  // state as of the last acknowledged op
  bool halted = false;
  uint64_t cumulative_bytes = 0;  // total bytes the log ever wrote
};

/// Runs the script against a fresh log-backed bucket in `dir`, optionally
/// arming the tear. Tracks the acked state: an op counts only when its ack
/// came back; once the site halts, nothing further applies.
RunOutcome RunWorkload(const std::string& dir, const std::vector<Op>& script,
                       size_t checkpoint_min, const BucketLog::TearSpec* tear) {
  PersistManager pm({.dir = dir, .checkpoint_min_bytes = checkpoint_min},
                    nullptr);
  SimNetwork net;
  OneBucketRuntime rt;
  AckSink sink;
  rt.sink_site = net.Register(&sink);
  LhBucketServer server(&rt, rt.options(), /*bucket_number=*/0, /*level=*/0);
  rt.server_site = net.Register(&server);
  server.set_site(rt.server_site);
  BucketLog* log = pm.OpenBucketLog(0, 0, /*fresh=*/true);
  EXPECT_NE(log, nullptr);
  server.AttachLog(log);
  if (tear != nullptr) log->ArmTear(*tear);

  RunOutcome out;
  uint64_t request_id = 1;
  for (const Op& op : script) {
    Message m;
    m.type = op.type;
    m.from = rt.sink_site;
    m.reply_to = rt.sink_site;
    m.to = rt.server_site;
    m.request_id = request_id++;
    m.key = op.key;
    m.value = op.value;
    const size_t acks_before = sink.received.size();
    net.Send(std::move(m));
    if (sink.received.size() == acks_before) {
      // No ack: the append tore and the site crashed. Everything from here
      // on is dropped silently.
      EXPECT_TRUE(server.halted());
      out.halted = true;
      break;
    }
    if (op.type == MsgType::kInsert) {
      out.acked[op.key] = op.value;
    } else {
      out.acked.erase(op.key);
    }
  }
  // Consistency of the harness itself: an un-torn run acks everything.
  if (tear == nullptr) {
    EXPECT_FALSE(out.halted);
  }
  out.cumulative_bytes = log->cumulative_bytes_written();
  return out;
}

/// Restarts over `dir` and asserts the recovered bucket matches `want`
/// byte-for-byte: replayed records, the restored store, and scan results.
void VerifyRecovery(const std::string& dir,
                    const std::map<uint64_t, Bytes>& want,
                    const std::string& label) {
  PersistManager pm({.dir = dir}, nullptr);
  std::vector<PersistManager::RecoveredBucket> live = pm.Recover();
  std::map<uint64_t, Bytes> recovered;
  if (live.empty()) {
    // Only legal when nothing was ever acked (the tear hit the file header
    // before the first append succeeded).
    EXPECT_TRUE(want.empty()) << label << ": acked records vanished";
  } else {
    ASSERT_EQ(live.size(), 1u) << label;
    recovered = std::move(live[0].records);
  }
  EXPECT_EQ(recovered, want) << label << ": record map differs";

  // Restore a server from the replayed state and check its store plus what
  // a scan actually returns.
  SimNetwork net;
  OneBucketRuntime rt;
  AckSink sink;
  rt.sink_site = net.Register(&sink);
  LhBucketServer server(&rt, rt.options(), 0, live.empty() ? 0 : live[0].level);
  rt.server_site = net.Register(&server);
  server.set_site(rt.server_site);
  server.RestoreRecovered(recovered);
  EXPECT_EQ(server.records(), recovered) << label << ": restored store differs";

  Message scan;
  scan.type = MsgType::kScan;
  scan.from = rt.sink_site;
  scan.reply_to = rt.sink_site;
  scan.to = rt.server_site;
  scan.request_id = 1;
  scan.filter_id = 0;
  scan.assumed_level = server.level();
  net.Send(std::move(scan));
  ASSERT_EQ(sink.received.size(), 1u) << label;
  const Message& reply = sink.received[0];
  ASSERT_EQ(reply.type, MsgType::kScanReply) << label;
  ASSERT_EQ(reply.records.size(), want.size()) << label << ": scan hit count";
  auto it = want.begin();
  for (size_t i = 0; i < reply.records.size(); ++i, ++it) {
    EXPECT_EQ(reply.records[i].key, it->first) << label << " hit " << i;
    EXPECT_EQ(reply.records[i].value, it->second) << label << " hit " << i;
  }
}

class CrashPointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = (std::filesystem::path(::testing::TempDir()) /
             ("essdds_crash_" +
              std::string(::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name())))
                .string();
    std::filesystem::remove_all(base_);
  }
  void TearDown() override { std::filesystem::remove_all(base_); }

  std::string Dir(const std::string& name) {
    const std::string d = base_ + "/" + name;
    std::filesystem::create_directories(d);
    return d;
  }

  /// One sweep: `points` tears spread across the full write stream of the
  /// dry run, alternating truncate and bit-flip, each verified to recover
  /// exactly the acked prefix.
  void Sweep(size_t checkpoint_min, size_t points, uint64_t seed) {
    const std::vector<Op> script = BuildScript(seed, /*ops=*/140);
    const RunOutcome dry =
        RunWorkload(Dir("dry"), script, checkpoint_min, nullptr);
    ASSERT_GT(dry.cumulative_bytes, 0u);

    Rng jitter(seed ^ 0x9E3779B97F4A7C15ull);
    size_t halted_runs = 0;
    for (size_t i = 0; i < points; ++i) {
      BucketLog::TearSpec spec;
      spec.at_cumulative_byte =
          dry.cumulative_bytes * i / points + jitter.Uniform(7);
      spec.corrupt = (i % 2) == 1;
      const std::string label =
          "tear@" + std::to_string(spec.at_cumulative_byte) +
          (spec.corrupt ? "/corrupt" : "/truncate") + " ckpt_min=" +
          std::to_string(checkpoint_min);
      const std::string dir = Dir("pt" + std::to_string(i));
      const RunOutcome torn = RunWorkload(dir, script, checkpoint_min, &spec);
      if (torn.halted) ++halted_runs;
      VerifyRecovery(dir, torn.acked, label);
      std::filesystem::remove_all(dir);
    }
    // The sweep must actually hit the write stream, not fly past it.
    EXPECT_GT(halted_runs, points * 3 / 4)
        << "tear offsets mostly missed the write stream";
  }

  std::string base_;
};

TEST_F(CrashPointTest, SweepWithoutCheckpoints) {
  // 64 KiB floor: this workload never checkpoints, so every tear lands in
  // the header or a plain appended frame.
  Sweep(/*checkpoint_min=*/64 * 1024, /*points=*/30, /*seed=*/11);
}

TEST_F(CrashPointTest, SweepThroughCheckpointRewrites) {
  // A tiny floor makes the log rewrite itself continually: many tears land
  // inside a checkpoint's tmp-file write, which must leave the old log
  // intact (the rename never happens).
  Sweep(/*checkpoint_min=*/192, /*points=*/30, /*seed=*/13);
}

// ---- Multi-bucket sweep: crashes inside split and merge record transfers.
//
// The single-bucket harness above never restructures, so it cannot reach
// the transfer windows: the instants between the two-phase log writes of a
// split carve-out or a merge dissolution. Here a full LhSystem grows (many
// splits), shrinks (merges), and regrows (bucket-number reuse) while a tear
// is armed on ONE chosen bucket's log; the moment it fires counts as a
// whole-process SIGKILL and the workload stops. A fresh system over the
// directory must then recover every acknowledged record exactly once —
// transfers interrupted between the receiver's bulk-put and the sender's
// erase/clear leave the records in both logs, and the recovery repair rule
// must collapse the duplicate, never lose the data.

constexpr uint64_t kNoTearBucket = ~uint64_t{0};

/// LhSystem that arms a tear on one bucket's log the moment that log exists
/// — which for split-created buckets is inside the restructuring itself, so
/// low offsets land in the critical peer bulk-put write.
class TearingSystem : public LhSystem {
 public:
  TearingSystem(LhOptions options, uint64_t tear_bucket,
                const BucketLog::TearSpec* spec)
      : LhSystem(std::move(options)), tear_bucket_(tear_bucket) {
    if (spec != nullptr) {
      spec_ = *spec;
      arming_ = true;
      if (tear_bucket_ == 0) Arm(0);
    }
  }

  SiteId CreateBucket(uint64_t bucket, uint32_t level) override {
    const SiteId site = LhSystem::CreateBucket(bucket, level);
    if (arming_ && bucket == tear_bucket_) Arm(bucket);
    return site;
  }

  /// True once the armed tear killed its log — the simulated SIGKILL.
  bool TearFired() const {
    return armed_log_ != nullptr && armed_log_->crashed();
  }

 private:
  void Arm(uint64_t bucket) {
    BucketLog* log = persist()->log(bucket);
    // Bucket-number reuse replaces the log object; re-arm the incarnation
    // actually receiving writes (the old one never fired, or we'd have
    // stopped already).
    if (log == nullptr || log == armed_log_) return;
    log->ArmTear(spec_);
    armed_log_ = log;
  }

  uint64_t tear_bucket_ = kNoTearBucket;
  BucketLog::TearSpec spec_;
  bool arming_ = false;
  BucketLog* armed_log_ = nullptr;
};

LhOptions SystemOptions(const std::string& dir) {
  LhOptions o;
  o.bucket_capacity = 8;
  o.merge_threshold = 0.4;
  o.data_dir = dir;
  return o;
}

/// Deterministic grow/shrink/regrow script: phase one splits the file out
/// to many buckets, phase two merges most of them away, phase three splits
/// again over reused bucket numbers.
std::vector<Op> GrowShrinkScript() {
  Rng rng(77);
  std::vector<Op> script;
  auto insert = [&](uint64_t k) {
    Op op;
    op.type = MsgType::kInsert;
    op.key = k;
    op.value = ToBytes("sys-" + std::to_string(k) + "-");
    const size_t pad = rng.Uniform(24);
    op.value.insert(op.value.end(), pad, static_cast<uint8_t>(rng.Next()));
    script.push_back(std::move(op));
  };
  for (uint64_t k = 1; k <= 120; ++k) insert(k);
  for (uint64_t k = 1; k <= 96; ++k) {
    Op op;
    op.type = MsgType::kDelete;
    op.key = k;
    script.push_back(op);
  }
  for (uint64_t k = 200; k < 240; ++k) insert(k);
  return script;
}

struct SysOutcome {
  std::map<uint64_t, Bytes> acked;
  bool crashed = false;
};

/// Runs the script against a log-backed LhSystem, driving raw key ops from
/// an ack sink (forwarding routes them from bucket 0). Stops at the first
/// missing ack or the instant the armed tear fires: every site of the
/// simulated multicomputer lives in this one process, so the tear is a
/// whole-process crash, not a single-site outage.
SysOutcome RunSystemWorkload(const std::string& dir,
                             const std::vector<Op>& script,
                             uint64_t tear_bucket,
                             const BucketLog::TearSpec* spec,
                             std::map<uint64_t, uint64_t>* log_bytes_out) {
  TearingSystem sys(SystemOptions(dir), tear_bucket, spec);
  AckSink sink;
  const SiteId sink_site = sys.network().Register(&sink);

  SysOutcome out;
  uint64_t request_id = 1;
  for (const Op& op : script) {
    Message m;
    m.type = op.type;
    m.from = sink_site;
    m.reply_to = sink_site;
    m.to = sys.bucket(0).site();
    m.request_id = request_id++;
    m.key = op.key;
    m.value = op.value;
    const size_t acks_before = sink.received.size();
    sys.network().Send(std::move(m));
    if (sink.received.size() == acks_before) {
      out.crashed = true;
      break;
    }
    if (op.type == MsgType::kInsert) {
      out.acked[op.key] = op.value;
    } else {
      out.acked.erase(op.key);
    }
    if (sys.TearFired()) {
      // The op itself was acked (append-before-ack ran before the
      // restructuring), but the split/merge it triggered died partway.
      out.crashed = true;
      break;
    }
  }
  if (log_bytes_out != nullptr) {
    for (uint64_t b = 0;; ++b) {
      BucketLog* log = sys.persist()->log(b);
      if (log == nullptr) break;
      (*log_bytes_out)[b] = log->cumulative_bytes_written();
    }
  }
  return out;
}

/// Restarts a fresh system over `dir` and checks the acked state came back
/// exactly once: the merged record map, the total count
/// (a duplicated transfer would inflate it), and real client lookups (which
/// exercise recovered levels, extent, and routing).
void VerifySystemRecovery(const std::string& dir,
                          const std::map<uint64_t, Bytes>& want,
                          const std::string& label) {
  LhSystem sys(SystemOptions(dir));
  std::map<uint64_t, Bytes> got;
  uint64_t total = 0;
  for (uint64_t b = 0; b < sys.bucket_count(); ++b) {
    const LhBucketServer& srv = sys.bucket(b);
    total += srv.records().size();
    for (const auto& [k, v] : srv.records()) got[k] = v;
  }
  EXPECT_EQ(total, want.size())
      << label << ": acked records lost, duplicated, or phantom";
  EXPECT_EQ(got, want) << label << ": recovered state differs";

  LhClient* c = sys.NewClient();
  for (const auto& [k, v] : want) {
    Result<Bytes> r = c->Lookup(k);
    ASSERT_TRUE(r.ok()) << label << ": acked key " << k << " unservable";
    EXPECT_EQ(*r, v) << label << ": key " << k;
  }
}

TEST_F(CrashPointTest, MultiBucketSplitMergeSweep) {
  const std::vector<Op> script = GrowShrinkScript();
  std::map<uint64_t, uint64_t> dry_bytes;
  const SysOutcome dry =
      RunSystemWorkload(Dir("dry"), script, kNoTearBucket, nullptr, &dry_bytes);
  ASSERT_FALSE(dry.crashed);
  ASSERT_GE(dry_bytes.size(), 4u) << "workload never split";

  // Sweep tear offsets across every bucket's write stream. Bucket 0 (the
  // longest-lived log, target of the final merges) gets the densest sweep;
  // split-created buckets get points clustered where their transfers live.
  size_t crashed_runs = 0;
  size_t point = 0;
  Rng jitter(0x5eed);
  for (const auto& [bucket, bytes] : dry_bytes) {
    const size_t points_here = bucket == 0 ? 10 : 4;
    for (size_t i = 0; i < points_here; ++i, ++point) {
      BucketLog::TearSpec spec;
      spec.at_cumulative_byte = bytes * i / points_here + jitter.Uniform(5);
      spec.corrupt = (point % 2) == 1;
      const std::string label =
          "bucket " + std::to_string(bucket) + " tear@" +
          std::to_string(spec.at_cumulative_byte) +
          (spec.corrupt ? "/corrupt" : "/truncate");
      const std::string dir = Dir("pt" + std::to_string(point));
      const SysOutcome torn =
          RunSystemWorkload(dir, script, bucket, &spec, nullptr);
      if (torn.crashed) ++crashed_runs;
      VerifySystemRecovery(dir, torn.acked, label);
      std::filesystem::remove_all(dir);
    }
  }
  EXPECT_GE(point, 50u) << "sweep thinner than the durability bar requires";
  EXPECT_GT(crashed_runs, point / 2)
      << "tear offsets mostly missed the write streams";
}

TEST_F(CrashPointTest, TearDuringCheckpointKeepsOldLogIntact) {
  const std::vector<Op> script = BuildScript(/*seed=*/17, /*ops=*/60);
  const std::string dry_dir = Dir("dry");
  PersistManager pm({.dir = dry_dir, .checkpoint_min_bytes = 192}, nullptr);
  BucketLog* log = pm.OpenBucketLog(0, 0, /*fresh=*/true);
  ASSERT_NE(log, nullptr);

  // Build up some acked state, then force a checkpoint whose write tears.
  std::map<uint64_t, Bytes> state;
  for (uint64_t k = 0; k < 12; ++k) {
    state[k] = ToBytes("stable-" + std::to_string(k));
    ASSERT_TRUE(log->AppendPut(k, ByteSpan(state[k])));
  }
  log->ArmTear({.at_cumulative_byte = log->cumulative_bytes_written() + 40,
                .corrupt = false});
  EXPECT_FALSE(log->Checkpoint(0, false, state));
  EXPECT_TRUE(log->crashed());

  // The old log (with every acked frame) is what recovery sees; the torn
  // .tmp is swept.
  VerifyRecovery(dry_dir, state, "tear inside checkpoint tmp write");
  EXPECT_FALSE(std::filesystem::exists(pm.LogPath(0) + ".tmp"));
}

#endif  // ESSDDS_PERSIST

}  // namespace
}  // namespace essdds::sdds
