// Fault/recovery scenario suite for the LH*RS-style parity subsystem
// (DESIGN.md §16): parity rows stay synchronized with the data buckets
// through splits, merges, and record churn; killing up to m sites —
// including mid-split — ends with every lost bucket reconstructed
// byte-identically on a fresh site;
// degraded reads and scans serve from the decoded shadow while the rebuild
// hold lasts; and every scenario replays bit-for-bit from its printed
// seed, because all scheduling is virtual-time and seeded.

#include <algorithm>
#include <bit>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "gf/gf2n.h"
#include "persist/persist_manager.h"
#include "sdds/event_network.h"
#include "sdds/lh_system.h"
#include "sdds/parity_server.h"
#include "sdds/rs_code.h"
#include "tests/util/fuzz_util.h"
#include "util/bytes.h"
#include "util/random.h"

namespace essdds::sdds {
namespace {

/// `prefix` + decimal key, built by append rather than operator+ (GCC 12's
/// -Wrestrict false-positives on the temporary-chaining form under -O2,
/// and CI compiles with -Werror).
Bytes TaggedValue(const char* prefix, uint64_t key) {
  std::string s(prefix);
  s += std::to_string(key);
  return ToBytes(s);
}

LhOptions RecoveryOptions(uint64_t seed, size_t k = 4, size_t m = 1) {
  LhOptions o;
  o.bucket_capacity = 8;
  o.merge_threshold = 0.0;  // recovery scenarios run without shrinking
  o.parity_group_size = k;
  o.parity_count = m;
  o.network_mode = NetworkMode::kEvent;
  o.event_net.seed = seed;
  // Tight timings so one client retry burst walks the whole detect ->
  // probe -> declare -> reconstruct pipeline inside the test's patience.
  // The probe window must exceed a full ping+pong round trip (2 x
  // max_latency_us = 4ms) or a live-but-distant bucket gets falsely
  // declared dead — and a false declaration beyond m is unrecoverable.
  o.request_timeout_us = 3'000;
  o.ping_timeout_us = 6'000;
  return o;
}

/// Re-encodes parity row `j` of `group` from the live data buckets — the
/// ground truth every ParityServer row is checked against.
std::map<uint64_t, Bytes> ExpectedRow(const LhSystem& sys, uint64_t group,
                                      int j) {
  const int k = static_cast<int>(sys.options().parity_group_size);
  const int m = static_cast<int>(sys.options().parity_count);
  const gf::GfField& field = gf::GfField::Of(8);
  RsCode code = RsCode::Create(k, m).value();
  std::map<uint64_t, Bytes> row;
  for (int i = 0; i < k; ++i) {
    const uint64_t b = group * static_cast<uint64_t>(k) + i;
    if (b >= sys.bucket_count()) break;
    const LhBucketServer& s = sys.bucket(b);
    const uint8_t coeff = code.ParityCoeff(j, i);
    for (const auto& [key, rank] : s.rank_of()) {
      Bytes buf = RankBuffer(key, s.records().at(key));
      for (auto& byte : buf) {
        byte = static_cast<uint8_t>(field.Mul(coeff, byte));
      }
      Bytes& acc = row[rank];
      acc = XorBytes(acc, buf);
    }
  }
  for (auto it = row.begin(); it != row.end();) {
    it = it->second.empty() ? row.erase(it) : std::next(it);
  }
  return row;
}

/// Asserts every parity row of every instantiated group equals its
/// re-encode from the live data buckets.
void ExpectParityInSync(const LhSystem& sys, const std::string& context) {
  const uint64_t k = sys.options().parity_group_size;
  const int m = static_cast<int>(sys.options().parity_count);
  const uint64_t groups = (sys.bucket_count() + k - 1) / k;
  for (uint64_t g = 0; g < groups; ++g) {
    for (int j = 0; j < m; ++j) {
      EXPECT_EQ(sys.parity_bucket(g, j).parity(), ExpectedRow(sys, g, j))
          << context << ": parity row (group " << g << ", index " << j
          << ") diverged from the data";
    }
  }
}

std::map<uint64_t, Bytes> Contents(const LhSystem& sys) {
  std::map<uint64_t, Bytes> all;
  for (uint64_t b = 0; b < sys.bucket_count(); ++b) {
    for (const auto& [key, value] : sys.bucket(b).records()) {
      all.emplace(key, value);
    }
  }
  return all;
}

void KillBucket(LhSystem& sys, uint64_t b) {
  ASSERT_NE(sys.event_network(), nullptr);
  sys.event_network()->KillSite(sys.bucket(b).site());
}

class CollectorSite : public Site {
 public:
  void OnMessage(Message& msg, Network& net) override {
    (void)net;
    replies.push_back(std::move(msg));
  }
  std::vector<Message> replies;
};

/// Pumps every event due strictly before `horizon_us` and stops — unlike
/// PumpUntilIdle it never crosses a far-future timer, so a rebuild hold's
/// degraded window stays open while the test looks at it.
void PumpBefore(LhSystem& sys, uint64_t horizon_us) {
  EventNetwork* net = sys.event_network();
  while (net->next_event_due_us() < horizon_us) net->Pump();
}

/// Hand-driven scan fan-out (one kScan per bucket, accurate levels): the
/// client's Scan would PumpUntilIdle and fast-forward virtual time through
/// the rebuild hold, so observing a degraded scan requires driving the
/// fan-out below the hold's horizon.
std::vector<std::pair<uint64_t, Bytes>> ManualScan(
    LhSystem& sys, CollectorSite& collector, SiteId collector_site,
    uint64_t filter, const std::vector<uint32_t>& levels,
    uint64_t horizon_us) {
  collector.replies.clear();
  const uint64_t extent = levels.size();
  for (uint64_t a = 0; a < extent; ++a) {
    Message req;
    req.type = MsgType::kScan;
    req.from = collector_site;
    req.reply_to = collector_site;
    req.request_id = 1'000'000 + a;
    req.key = a;
    req.filter_id = filter;
    req.assumed_level = levels[a];
    req.to = sys.SiteOfBucket(a);
    sys.network().Send(std::move(req));
  }
  for (int round = 0; round < 64 && collector.replies.size() < extent;
       ++round) {
    PumpBefore(sys, horizon_us);
    sys.network().DrainDeferredScans();
  }
  EXPECT_EQ(collector.replies.size(), extent)
      << "degraded fan-out incomplete";
  std::vector<std::pair<uint64_t, Bytes>> hits;
  for (Message& m : collector.replies) {
    EXPECT_EQ(m.type, MsgType::kScanReply);
    for (WireRecord& r : m.records) hits.emplace_back(r.key, r.value);
  }
  std::sort(hits.begin(), hits.end());
  return hits;
}

// ---------------------------------------------------------------------
// Parity maintenance (no faults)
// ---------------------------------------------------------------------

TEST(RecoveryTest, ParityRowsMirrorDataThroughSplitsAndChurn) {
  LhOptions o = RecoveryOptions(/*seed=*/11, /*k=*/4, /*m=*/2);
  LhSystem sys(o);
  LhClient* c = sys.NewClient();
  for (uint64_t key = 1; key <= 60; ++key) {
    c->Insert(key, TaggedValue("v", key));
  }
  for (uint64_t key = 2; key <= 40; key += 2) {
    ASSERT_TRUE(c->Delete(key).ok());
  }
  for (uint64_t key = 1; key <= 20; ++key) {
    c->Insert(key, TaggedValue("w", key));  // overwrite
  }
  sys.network().PumpUntilIdle();
  ASSERT_GT(sys.bucket_count(), 4u) << "workload should have split";
  ExpectParityInSync(sys, "after split-heavy churn");
}

TEST(RecoveryTest, ParityRowsMirrorDataThroughMerges) {
  LhOptions o = RecoveryOptions(/*seed=*/12, /*k=*/4, /*m=*/2);
  o.merge_threshold = 0.4;  // parity itself must survive shrinking
  LhSystem sys(o);
  LhClient* c = sys.NewClient();
  for (uint64_t key = 1; key <= 60; ++key) {
    c->Insert(key, TaggedValue("v", key));
  }
  sys.network().PumpUntilIdle();
  const size_t grown = sys.bucket_count();
  for (uint64_t key = 1; key <= 55; ++key) {
    c->Delete(key);
  }
  sys.network().PumpUntilIdle();
  EXPECT_LT(sys.bucket_count(), grown) << "deletes should have merged";
  ExpectParityInSync(sys, "after grow-then-shrink");
}

// ---------------------------------------------------------------------
// Site-kill reconstruction
// ---------------------------------------------------------------------

TEST(RecoveryTest, KilledBucketReconstructsByteIdentical) {
  LhSystem sys(RecoveryOptions(/*seed=*/21));
  LhClient* c = sys.NewClient();
  for (uint64_t key = 1; key <= 48; ++key) {
    c->Insert(key, TaggedValue("v", key));
  }
  sys.network().PumpUntilIdle();
  ASSERT_GE(sys.bucket_count(), 5u);

  // Pick a victim that actually holds records.
  uint64_t victim = 0;
  for (uint64_t b = 0; b < sys.bucket_count(); ++b) {
    if (sys.bucket(b).record_count() > 0) victim = b;
  }
  const std::map<uint64_t, Bytes> healthy = sys.bucket(victim).records();
  const uint32_t healthy_level = sys.bucket(victim).level();
  ASSERT_FALSE(healthy.empty());
  const SiteId dead_site = sys.bucket(victim).site();
  KillBucket(sys, victim);

  // Read every record the dead bucket owned: the first lookup's retries
  // report the dead site, the coordinator probes and declares, the parity
  // proxy reconstructs, and every op converges to the correct value.
  for (const auto& [key, value] : healthy) {
    auto r = c->Lookup(key);
    ASSERT_TRUE(r.ok()) << "key " << key << " lost with the site";
    EXPECT_EQ(*r, value) << "key " << key << " decoded wrong";
  }
  sys.network().PumpUntilIdle();

  EXPECT_FALSE(sys.bucket_dead(victim));
  EXPECT_NE(sys.bucket(victim).site(), dead_site) << "rebuilt on a new site";
  EXPECT_EQ(sys.bucket(victim).records(), healthy)
      << "reconstruction must be byte-identical";
  EXPECT_EQ(sys.bucket(victim).level(), healthy_level);
  ExpectParityInSync(sys, "after reconstruction");

  // The rebuilt bucket is a full citizen: mutations flow and parity tracks.
  for (const auto& [key, value] : healthy) {
    (void)value;
    c->Insert(key, TaggedValue("post-recovery-", key));
  }
  sys.network().PumpUntilIdle();
  ExpectParityInSync(sys, "after post-recovery writes");

  if (obs::kMetricsEnabled) {
    const std::string json = sys.network().metrics().ToJson();
    EXPECT_NE(json.find("recovery.rebuilt_buckets"), std::string::npos);
    EXPECT_NE(json.find("recovery.decode_us"), std::string::npos);
    EXPECT_NE(json.find("recovery.reconstruction_us"), std::string::npos);
    EXPECT_NE(json.find("coord.dead_sites"), std::string::npos);
    EXPECT_NE(json.find("coord.dead_site_reports"), std::string::npos);
  }
}

TEST(RecoveryTest, ReconstructsValuesWithTrailingZeroBytes) {
  // Regression: canonical trimming strips trailing 0x00 bytes from rank
  // buffers, so a value ending in zeros (one ciphertext in 256 does)
  // RS-decodes to a buffer shorter than its length prefix claims. The
  // parser must zero-extend instead of rejecting the reconstruction.
  LhSystem sys(RecoveryOptions(/*seed=*/33));
  LhClient* c = sys.NewClient();
  std::map<uint64_t, Bytes> model;
  for (uint64_t key = 1; key <= 40; ++key) {
    Bytes value(6 + key % 9, static_cast<uint8_t>(0xA0 + key));
    // 0..4 trailing zero bytes; every fifth value is all zeros.
    value.resize(value.size() + key % 5, 0);
    if (key % 5 == 0) std::fill(value.begin(), value.end(), 0);
    c->Insert(key, value);
    model[key] = std::move(value);
  }
  // Trimming can also cut into the key field and the length prefix: empty
  // values under keys whose low bytes are zero.
  for (uint64_t key : {uint64_t{1} << 8, uint64_t{1} << 16, uint64_t{1} << 32}) {
    c->Insert(key, Bytes{});
    model[key] = Bytes{};
  }
  sys.network().PumpUntilIdle();
  ASSERT_GE(sys.bucket_count(), 2u);

  // Kill every nonempty bucket in turn so each awkward record is decoded
  // at least once, wherever it hashed.
  for (uint64_t victim = 0; victim < sys.bucket_count(); ++victim) {
    const std::map<uint64_t, Bytes> healthy = sys.bucket(victim).records();
    if (healthy.empty()) continue;
    KillBucket(sys, victim);
    for (const auto& [key, value] : healthy) {
      auto r = c->Lookup(key);
      ASSERT_TRUE(r.ok()) << "key " << key << " lost with bucket " << victim;
      EXPECT_EQ(*r, value) << "key " << key << " decoded wrong";
    }
    sys.network().PumpUntilIdle();
    EXPECT_EQ(sys.bucket(victim).records(), healthy)
        << "bucket " << victim << " reconstruction must be byte-identical";
  }
  EXPECT_EQ(Contents(sys), model);
  ExpectParityInSync(sys, "after trailing-zero reconstructions");
}

TEST(RecoveryTest, TwoSimultaneousKillsWithDoubleParity) {
  LhSystem sys(RecoveryOptions(/*seed=*/22, /*k=*/4, /*m=*/2));
  LhClient* c = sys.NewClient();
  for (uint64_t key = 1; key <= 48; ++key) {
    c->Insert(key, TaggedValue("v", key));
  }
  sys.network().PumpUntilIdle();
  ASSERT_GE(sys.bucket_count(), 4u);

  // Two dead members of group 0 at once: decoding needs both parity rows.
  const uint64_t victims[2] = {1, 2};
  std::map<uint64_t, Bytes> healthy[2];
  for (int i = 0; i < 2; ++i) {
    healthy[i] = sys.bucket(victims[i]).records();
    ASSERT_FALSE(healthy[i].empty());
  }
  KillBucket(sys, victims[0]);
  KillBucket(sys, victims[1]);

  for (int i = 0; i < 2; ++i) {
    for (const auto& [key, value] : healthy[i]) {
      auto r = c->Lookup(key);
      ASSERT_TRUE(r.ok()) << "key " << key << " lost with site " << i;
      EXPECT_EQ(*r, value);
    }
  }
  sys.network().PumpUntilIdle();
  for (int i = 0; i < 2; ++i) {
    EXPECT_FALSE(sys.bucket_dead(victims[i]));
    EXPECT_EQ(sys.bucket(victims[i]).records(), healthy[i])
        << "victim " << victims[i] << " not byte-identical";
  }
  ExpectParityInSync(sys, "after double reconstruction");
}

TEST(RecoveryTest, KillLoadingSplitTargetMidSplit) {
  LhSystem sys(RecoveryOptions(/*seed=*/23));
  LhClient* c = sys.NewClient();
  std::map<uint64_t, Bytes> model;
  uint64_t key = 1;
  // Fill until an overflow report is one insert away, without settling.
  for (; key <= 8; ++key) {
    model[key] = TaggedValue("v", key);
    c->Insert(key, model[key]);
  }
  sys.network().PumpUntilIdle();
  const size_t before = sys.bucket_count();
  // The next inserts trigger a split; catch the target while it loads.
  for (; key <= 12 && sys.bucket_count() == before; ++key) {
    model[key] = TaggedValue("v", key);
    c->Insert(key, model[key]);
    for (int p = 0; p < 200 && sys.bucket_count() == before; ++p) {
      if (!sys.network().Pump()) break;
    }
  }
  ASSERT_GT(sys.bucket_count(), before) << "no split triggered";
  const uint64_t target = sys.bucket_count() - 1;
  ASSERT_TRUE(sys.bucket(target).loading())
      << "split target already settled; timing drifted";
  KillBucket(sys, target);

  // Converge: every key (including the ones the in-flight transfer was
  // carrying toward the dead target) must be readable again.
  for (const auto& [k2, v2] : model) {
    auto r = c->Lookup(k2);
    ASSERT_TRUE(r.ok()) << "key " << k2 << " lost in the mid-split kill";
    EXPECT_EQ(*r, v2);
  }
  sys.network().PumpUntilIdle();
  EXPECT_FALSE(sys.bucket_dead(target));
  EXPECT_FALSE(sys.bucket(target).loading())
      << "redelivered transfer must have settled the rebuilt target";
  EXPECT_EQ(Contents(sys), model);
  ExpectParityInSync(sys, "after mid-split target kill");
}

TEST(RecoveryTest, KillSplitSourceMidSplit) {
  LhSystem sys(RecoveryOptions(/*seed=*/24));
  LhClient* c = sys.NewClient();
  std::map<uint64_t, Bytes> model;
  uint64_t key = 1;
  for (; key <= 8; ++key) {
    model[key] = TaggedValue("v", key);
    c->Insert(key, model[key]);
  }
  sys.network().PumpUntilIdle();
  const size_t before = sys.bucket_count();
  for (; key <= 12 && sys.bucket_count() == before; ++key) {
    model[key] = TaggedValue("v", key);
    c->Insert(key, model[key]);
    for (int p = 0; p < 200 && sys.bucket_count() == before; ++p) {
      if (!sys.network().Pump()) break;
    }
  }
  ASSERT_GT(sys.bucket_count(), before) << "no split triggered";
  // Kill the bucket the coordinator ordered to split (the split pointer
  // was 0 for the first split).
  KillBucket(sys, 0);

  for (const auto& [k2, v2] : model) {
    auto r = c->Lookup(k2);
    ASSERT_TRUE(r.ok()) << "key " << k2 << " lost in the source kill";
    EXPECT_EQ(*r, v2);
  }
  sys.network().PumpUntilIdle();
  EXPECT_FALSE(sys.bucket_dead(0));
  EXPECT_EQ(Contents(sys), model);
  ExpectParityInSync(sys, "after mid-split source kill");
}

TEST(RecoveryTest, KillSplitSourceBetweenTransferAndAck) {
  // The source dies after shipping its records and before their ack
  // lands: the ack parks for the rebuilt source, which owes no log write
  // (nothing is logged here) and finishes the split from what the ack
  // names — the release to the target and kSplitDone to the coordinator.
  LhSystem sys(RecoveryOptions(/*seed=*/25));
  LhClient* c = sys.NewClient();
  std::map<uint64_t, Bytes> model;
  uint64_t key = 1;
  for (; key <= 8; ++key) {
    model[key] = TaggedValue("v", key);
    c->Insert(key, model[key]);
  }
  sys.network().PumpUntilIdle();
  // The next inserts trigger the first split (source: bucket 0); pump
  // event by event to catch the transfer in flight.
  bool caught = false;
  for (; key <= 12 && !caught; ++key) {
    model[key] = TaggedValue("v", key);
    c->Insert(key, model[key]);
    for (int p = 0; p < 200 && !caught; ++p) {
      caught = sys.bucket(0).transfer_pending();
      if (!caught && !sys.network().Pump()) break;
    }
  }
  ASSERT_TRUE(caught) << "no transfer caught in flight; timing drifted";
  KillBucket(sys, 0);

  for (const auto& [k2, v2] : model) {
    auto r = c->Lookup(k2);
    ASSERT_TRUE(r.ok()) << "key " << k2 << " lost in the source kill";
    EXPECT_EQ(*r, v2);
  }
  sys.network().PumpUntilIdle();
  EXPECT_FALSE(sys.bucket_dead(0));
  EXPECT_FALSE(sys.bucket(0).transfer_pending());
  ASSERT_EQ(sys.bucket_count(), 2u);
  EXPECT_FALSE(sys.bucket(1).loading()) << "target never released";
  EXPECT_EQ(sys.coordinator().Image().BucketCount(), 2u)
      << "the coordinator never saw kSplitDone";
  EXPECT_EQ(Contents(sys), model);
  ExpectParityInSync(sys, "after source kill between transfer and ack");
}

TEST(RecoveryTest, KillMergeVictimBetweenTransferAndAck) {
  // A merge victim dies after its parent adopted the records and before
  // the ack lands, so it is still in the file. Its parity mirror says
  // retired: the proxy forwards its reads to the parent instead of
  // answering from the empty shadow, the rebuilt victim forwards too, and
  // the parked ack lets it report kMergeDone. Its rebuild checkpoint is
  // retired, so restarts need no repair — also after further merges have
  // retired the parent.
  LhOptions o = RecoveryOptions(/*seed=*/26);
  o.merge_threshold = 0.4;
  o.recovery_hold_us = 10'000'000;  // wide-open degraded window
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "essdds_merge_victim_kill")
          .string();
  std::filesystem::remove_all(dir);
  if (persist::kPersistEnabled) o.data_dir = dir;
  std::map<uint64_t, Bytes> model;
  uint64_t victim = 0;
  {
    LhSystem sys(o);
    LhClient* c = sys.NewClient();
    const uint64_t match_all =
        sys.InstallFilter([](uint64_t, ByteSpan, ByteSpan) { return true; });
    CollectorSite collector;
    const SiteId collector_site = sys.network().Register(&collector);
    for (uint64_t key = 1; key <= 48; ++key) {
      model[key] = TaggedValue("v", key);
      c->Insert(key, model[key]);
    }
    sys.network().PumpUntilIdle();
    ASSERT_GE(sys.bucket_count(), 5u);

    // Delete, pumping event by event, until the last bucket has shipped
    // its records and its parent has adopted them (stepped down a level).
    uint64_t parent = 0;
    bool caught = false;
    for (uint64_t key = 1; key <= 48 && !caught; ++key) {
      model.erase(key);
      ASSERT_TRUE(c->Delete(key).ok());
      for (int p = 0; p < 200 && !caught; ++p) {
        victim = sys.bucket_count() - 1;
        parent = victim - std::bit_floor(victim);
        caught = sys.bucket(victim).transfer_pending() &&
                 sys.bucket(parent).level() < sys.bucket(victim).level();
        if (!caught && !sys.network().Pump()) break;
      }
    }
    ASSERT_TRUE(caught) << "no merge caught awaiting its ack; timing drifted";
    ASSERT_TRUE(sys.bucket(victim).retired());
    ASSERT_EQ(Contents(sys), model);
    const uint32_t victim_level = sys.bucket(victim).level();
    std::map<uint64_t, Bytes> moved;  // records addressed to the victim
    for (const auto& [key, value] : sys.bucket(parent).records()) {
      const uint64_t mask = (uint64_t{1} << victim_level) - 1;
      if ((LhKeyImage(key, o) & mask) == victim) moved.emplace(key, value);
    }
    ASSERT_FALSE(moved.empty()) << "the merge moved nothing";
    std::vector<uint32_t> levels;
    for (uint64_t b = 0; b < sys.bucket_count(); ++b) {
      levels.push_back(sys.bucket(b).level());
    }
    KillBucket(sys, victim);

    // A client image that still counts the victim reports it dead; the
    // coordinator probes and declares, and the proxy decodes its shadow.
    Message report;
    report.type = MsgType::kDeadSite;
    report.from = collector_site;
    report.to = sys.CoordinatorSite();
    report.key = moved.begin()->first;
    sys.network().Send(std::move(report));
    const uint64_t horizon = sys.network().now_us() + 200'000;
    PumpBefore(sys, horizon);
    ASSERT_TRUE(sys.bucket_dead(victim));

    // During the hold every read addressed to the victim reaches the
    // parent through the proxy.
    collector.replies.clear();
    uint64_t request_id = 2'000'000;
    for (const auto& [key, value] : moved) {
      (void)value;
      Message req;
      req.type = MsgType::kLookup;
      req.from = collector_site;
      req.reply_to = collector_site;
      req.request_id = request_id++;
      req.key = key;
      req.bucket_to_split = victim;
      req.to = sys.SiteOfBucket(victim);
      sys.network().Send(std::move(req));
    }
    PumpBefore(sys, horizon);
    ASSERT_TRUE(sys.bucket_dead(victim))
        << "rebuild should still be held back while degraded reads serve";
    ASSERT_EQ(collector.replies.size(), moved.size());
    for (const Message& reply : collector.replies) {
      ASSERT_EQ(reply.type, MsgType::kLookupReply);
      EXPECT_TRUE(reply.found) << "key " << reply.key << " read as lost";
      EXPECT_EQ(reply.value, moved.at(reply.key));
    }
    const auto hits = ManualScan(sys, collector, collector_site, match_all,
                                 levels, horizon);
    ASSERT_TRUE(sys.bucket_dead(victim)) << "scan outlasted the hold";
    const std::map<uint64_t, Bytes> scanned(hits.begin(), hits.end());
    EXPECT_EQ(scanned, model)
        << "degraded scan must reach the victim's records at the parent";

    // The hold elapses: the victim is rebuilt retired, the parked ack
    // finishes the merge, and the coordinator retires it.
    sys.network().PumpUntilIdle();
    EXPECT_EQ(sys.bucket_count(), victim) << "the merge never finished";
    EXPECT_EQ(sys.coordinator().Image().BucketCount(), victim);
    EXPECT_EQ(Contents(sys), model);
    ExpectParityInSync(sys, "after merge victim kill between transfer and ack");
    for (const auto& [key, value] : model) {
      auto r = c->Lookup(key);
      ASSERT_TRUE(r.ok()) << "key " << key << " lost after the rebuild";
      EXPECT_EQ(*r, value);
    }
    if (!persist::kPersistEnabled) return;

    // Shrink further, until the victim's parent is merged away as well.
    for (auto it = model.begin();
         it != model.end() && sys.bucket_count() > parent;) {
      ASSERT_TRUE(c->Delete(it->first).ok());
      it = model.erase(it);
      sys.network().PumpUntilIdle();
    }
    ASSERT_LE(sys.bucket_count(), parent) << "the parent was never merged";
    ASSERT_EQ(Contents(sys), model);
  }
  // Restart over the same directory: the rebuilt victim's log says
  // retired, so nothing is repaired and no live bucket follows a gap.
  LhSystem sys(o);
  EXPECT_EQ(Contents(sys), model);
  EXPECT_EQ(
      sys.network().metrics().counter("persist.repaired_transfers").value(),
      0u);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Degraded-mode serving
// ---------------------------------------------------------------------

TEST(RecoveryTest, DegradedReadsAndScansServeDuringRebuildHold) {
  LhOptions o = RecoveryOptions(/*seed=*/31);
  o.recovery_hold_us = 10'000'000;  // wide-open degraded window
  LhSystem sys(o);
  LhClient* c = sys.NewClient();
  for (uint64_t key = 1; key <= 48; ++key) {
    c->Insert(key, TaggedValue("v", key));
  }
  const uint64_t match_all =
      sys.InstallFilter([](uint64_t, ByteSpan, ByteSpan) { return true; });
  CollectorSite collector;
  const SiteId collector_site = sys.network().Register(&collector);
  sys.network().PumpUntilIdle();
  const std::map<uint64_t, Bytes> model = Contents(sys);
  std::vector<uint32_t> levels;
  for (uint64_t b = 0; b < sys.bucket_count(); ++b) {
    levels.push_back(sys.bucket(b).level());
  }
  const auto baseline = ManualScan(sys, collector, collector_site, match_all,
                                   levels, sys.network().now_us() + 200'000);
  ASSERT_EQ(baseline.size(), model.size());

  uint64_t victim = 0;
  for (uint64_t b = 0; b < sys.bucket_count(); ++b) {
    if (sys.bucket(b).record_count() > 0) victim = b;
  }
  const std::map<uint64_t, Bytes> healthy = sys.bucket(victim).records();
  KillBucket(sys, victim);

  // Every read during the hold is served from the decoded shadow.
  for (const auto& [key, value] : healthy) {
    auto r = c->Lookup(key);
    ASSERT_TRUE(r.ok()) << "degraded read of key " << key << " failed";
    EXPECT_EQ(*r, value);
  }
  ASSERT_TRUE(sys.bucket_dead(victim))
      << "rebuild should still be held back while degraded reads serve";

  // A scan with the dead member still un-rebuilt must return the exact
  // healthy result set — the proxy answers for the dead bucket.
  const auto degraded = ManualScan(sys, collector, collector_site, match_all,
                                   levels, sys.network().now_us() + 200'000);
  ASSERT_TRUE(sys.bucket_dead(victim))
      << "scan outlasted the hold; timings drifted";
  EXPECT_EQ(degraded, baseline)
      << "degraded scan must be byte-identical to the healthy baseline";

  if (obs::kMetricsEnabled) {
    const std::string json = sys.network().metrics().ToJson();
    EXPECT_NE(json.find("recovery.degraded_reads"), std::string::npos);
    EXPECT_NE(json.find("recovery.degraded_scans"), std::string::npos);
  }

  // Let the hold elapse: rebuild installs, the file heals completely.
  sys.network().PumpUntilIdle();
  EXPECT_FALSE(sys.bucket_dead(victim));
  EXPECT_EQ(sys.bucket(victim).records(), healthy);
  EXPECT_EQ(Contents(sys), model);
  ExpectParityInSync(sys, "after the hold elapsed");
}

TEST(RecoveryTest, DegradedScanModesAgreeByteForByte) {
  // Serial, pooled, and sharded scan execution over a file with one dead
  // group member must return identical, complete hit sets: degraded
  // evaluation happens inline at the proxy regardless of executor mode,
  // and the live buckets answer through their usual mode-specific path.
  std::vector<std::vector<std::pair<uint64_t, Bytes>>> results;
  struct ModeSpec {
    size_t threads;
    size_t shard_min;
    const char* name;
  };
  const ModeSpec modes[] = {
      {0, 0, "serial"}, {4, 0, "pooled"}, {4, 1, "sharded"}};
  for (const ModeSpec& mode : modes) {
    SCOPED_TRACE(mode.name);
    LhOptions o = RecoveryOptions(/*seed=*/32);
    o.recovery_hold_us = 10'000'000;
    o.scan_threads = mode.threads;
    o.scan_shard_min_records = mode.shard_min;
    LhSystem sys(o);
    LhClient* c = sys.NewClient();
    for (uint64_t key = 1; key <= 48; ++key) {
      c->Insert(key, TaggedValue("v", key));
    }
    const uint64_t match_all =
        sys.InstallFilter([](uint64_t, ByteSpan, ByteSpan) { return true; });
    CollectorSite collector;
    const SiteId collector_site = sys.network().Register(&collector);
    sys.network().PumpUntilIdle();
    std::vector<uint32_t> levels;
    for (uint64_t b = 0; b < sys.bucket_count(); ++b) {
      levels.push_back(sys.bucket(b).level());
    }

    uint64_t victim = 0;
    for (uint64_t b = 0; b < sys.bucket_count(); ++b) {
      if (sys.bucket(b).record_count() > 0) victim = b;
    }
    const std::map<uint64_t, Bytes> healthy = sys.bucket(victim).records();
    KillBucket(sys, victim);
    // Declare via one degraded read, then scan inside the hold window.
    auto probe = c->Lookup(healthy.begin()->first);
    ASSERT_TRUE(probe.ok());
    ASSERT_TRUE(sys.bucket_dead(victim));
    auto hits = ManualScan(sys, collector, collector_site, match_all, levels,
                           sys.network().now_us() + 200'000);
    ASSERT_TRUE(sys.bucket_dead(victim)) << "scan outlasted the hold";
    ASSERT_EQ(hits.size(), 48u) << "degraded scan dropped records";
    results.push_back(std::move(hits));
  }
  EXPECT_EQ(results[0], results[1]) << "pooled diverged from serial";
  EXPECT_EQ(results[0], results[2]) << "sharded diverged from serial";
}

// ---------------------------------------------------------------------
// Parity-site failure
// ---------------------------------------------------------------------

TEST(RecoveryTest, ParitySiteRebuildRestoresTheRowAndRecovery) {
  LhSystem sys(RecoveryOptions(/*seed=*/41));
  LhClient* c = sys.NewClient();
  for (uint64_t key = 1; key <= 48; ++key) {
    c->Insert(key, TaggedValue("v", key));
  }
  sys.network().PumpUntilIdle();

  // Kill parity bucket 0 of group 0 and rebuild it in-process.
  const SiteId dead_parity = sys.parity_bucket(0, 0).site();
  sys.event_network()->KillSite(dead_parity);
  sys.RebuildParityBucket(0, 0);
  EXPECT_NE(sys.parity_bucket(0, 0).site(), dead_parity);
  EXPECT_EQ(sys.parity_bucket(0, 0).parity(), ExpectedRow(sys, 0, 0))
      << "re-encoded row must match the data";

  // The rebuilt row keeps tracking...
  for (uint64_t key = 1; key <= 10; ++key) {
    c->Insert(key, TaggedValue("w", key));
  }
  sys.network().PumpUntilIdle();
  ExpectParityInSync(sys, "after parity rebuild plus churn");

  // ...and can carry a subsequent data-site reconstruction.
  uint64_t victim = 1;
  const std::map<uint64_t, Bytes> healthy = sys.bucket(victim).records();
  ASSERT_FALSE(healthy.empty());
  KillBucket(sys, victim);
  for (const auto& [key, value] : healthy) {
    auto r = c->Lookup(key);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, value);
  }
  sys.network().PumpUntilIdle();
  EXPECT_EQ(sys.bucket(victim).records(), healthy);
  ExpectParityInSync(sys, "after recovery through the rebuilt parity row");
}

// ---------------------------------------------------------------------
// Restart re-encode (persistence path)
// ---------------------------------------------------------------------

TEST(RecoveryTest, RestartReencodesParityFromRecoveredData) {
  if (!persist::kPersistEnabled) {
    GTEST_SKIP() << "persistence compiled out";
  }
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "essdds_parity_restart")
          .string();
  std::filesystem::remove_all(dir);
  LhOptions o = RecoveryOptions(/*seed=*/51);
  o.data_dir = dir;
  std::map<uint64_t, Bytes> model;
  {
    LhSystem sys(o);
    LhClient* c = sys.NewClient();
    for (uint64_t key = 1; key <= 48; ++key) {
      model[key] = TaggedValue("v", key);
      c->Insert(key, model[key]);
    }
    sys.network().PumpUntilIdle();
  }
  // Restart over the same directory: parity rows are re-encoded from the
  // replayed buckets and immediately able to carry a reconstruction.
  LhSystem sys(o);
  ASSERT_GT(sys.recovered_bucket_count(), 0u);
  EXPECT_EQ(Contents(sys), model);
  ExpectParityInSync(sys, "after restart re-encode");

  LhClient* c = sys.NewClient();
  uint64_t victim = 1;
  const std::map<uint64_t, Bytes> healthy = sys.bucket(victim).records();
  ASSERT_FALSE(healthy.empty());
  KillBucket(sys, victim);
  for (const auto& [key, value] : healthy) {
    auto r = c->Lookup(key);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, value);
  }
  sys.network().PumpUntilIdle();
  EXPECT_EQ(sys.bucket(victim).records(), healthy);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Seeded kill sweep: random kill points mid-workload, protocol faults on,
// full convergence, byte-identical replays.
// ---------------------------------------------------------------------

struct SweepDigest {
  std::map<uint64_t, Bytes> contents;
  uint64_t virtual_end_us = 0;
  uint64_t retries = 0;
  size_t rebuilt = 0;

  friend bool operator==(const SweepDigest&, const SweepDigest&) = default;
};

SweepDigest RunKillSweep(uint64_t seed, size_t m) {
  LhOptions o = RecoveryOptions(seed, /*k=*/4, m);
  o.event_net.protocol_drop_prob = 0.05;
  o.event_net.protocol_duplicate_prob = 0.05;
  LhSystem sys(o);
  LhClient* c = sys.NewClient();
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + m);

  std::map<uint64_t, Bytes> model;
  const size_t nops = 140;
  // Kill up to m sites at seeded points mid-workload.
  const size_t kills = 1 + rng.Uniform(m);
  std::set<size_t> kill_at;
  while (kill_at.size() < kills) kill_at.insert(20 + rng.Uniform(80));
  size_t killed = 0;

  for (size_t i = 0; i < nops; ++i) {
    if (kill_at.count(i) && sys.bucket_count() > 1) {
      // Only kill a bucket in a group that still has parity headroom.
      std::map<uint64_t, size_t> dead_per_group;
      const uint64_t kk = o.parity_group_size;
      for (uint64_t b = 0; b < sys.bucket_count(); ++b) {
        if (sys.event_network()->site_killed(sys.bucket(b).site())) {
          ++dead_per_group[b / kk];
        }
      }
      std::vector<uint64_t> eligible;
      for (uint64_t b = 0; b < sys.bucket_count(); ++b) {
        if (sys.event_network()->site_killed(sys.bucket(b).site())) continue;
        if (dead_per_group[b / kk] < m) eligible.push_back(b);
      }
      if (!eligible.empty()) {
        const uint64_t victim = eligible[rng.Uniform(eligible.size())];
        sys.event_network()->KillSite(sys.bucket(victim).site());
        ++killed;
      }
    }
    const uint64_t key = 1 + rng.Uniform(64);
    const uint64_t pick = rng.Uniform(100);
    if (pick < 60) {
      std::string tag = "s";
      tag += std::to_string(seed);
      tag += '-';
      tag += std::to_string(i);
      tag += '-';
      tag += std::to_string(key);
      Bytes value = ToBytes(tag);
      c->Insert(key, value);
      model[key] = std::move(value);
    } else if (pick < 85) {
      auto r = c->Lookup(key);
      auto it = model.find(key);
      EXPECT_EQ(r.ok(), it != model.end())
          << "lookup(" << key << ") diverged from the model at op " << i
          << "; replay: sweep seed " << seed;
      if (r.ok() && it != model.end()) {
        EXPECT_EQ(*r, it->second)
            << "lookup(" << key << ") wrong bytes; replay: sweep seed "
            << seed;
      }
    } else {
      const bool had = model.erase(key) > 0;
      EXPECT_EQ(c->Delete(key).ok(), had)
          << "delete(" << key << ") diverged; replay: sweep seed " << seed;
    }
  }
  sys.network().PumpUntilIdle();

  // Convergence: every surviving record byte-identical to the model, no
  // bucket left declared dead, parity rows back in sync.
  EXPECT_EQ(Contents(sys), model) << "replay: sweep seed " << seed;
  for (uint64_t b = 0; b < sys.bucket_count(); ++b) {
    EXPECT_FALSE(sys.bucket_dead(b))
        << "bucket " << b << " still dead; replay: sweep seed " << seed;
  }
  ExpectParityInSync(sys, "sweep seed " + std::to_string(seed));

  SweepDigest digest;
  digest.contents = Contents(sys);
  digest.virtual_end_us = sys.network().now_us();
  digest.retries = c->retry_count();
  digest.rebuilt = killed;
  return digest;
}

TEST(RecoveryTest, SeededKillSweepSingleParity) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE("sweep seed " + std::to_string(seed));
    RunKillSweep(seed, /*m=*/1);
  }
}

TEST(RecoveryTest, SeededKillSweepDoubleParity) {
  for (uint64_t seed = 101; seed <= 125; ++seed) {
    SCOPED_TRACE("sweep seed " + std::to_string(seed));
    RunKillSweep(seed, /*m=*/2);
  }
}

TEST(RecoveryTest, SweepReplaysBitForBit) {
  // The whole pipeline — workload, kill points, network schedule, probe
  // timers, reconstruction — is driven by seeded virtual time: the same
  // seed must reproduce the same final state, the same virtual clock, and
  // the same retry count.
  for (uint64_t seed : {7u, 19u}) {
    SCOPED_TRACE("sweep seed " + std::to_string(seed));
    const SweepDigest a = RunKillSweep(seed, /*m=*/1);
    const SweepDigest b = RunKillSweep(seed, /*m=*/1);
    EXPECT_TRUE(a == b) << "seed " << seed << " did not replay bit-for-bit";
  }
}

// ---------------------------------------------------------------------
// Parity wire fuzz: every new Deserialize entry point holds the junk-in ->
// error-out guarantee (see tests/util/fuzz_util.h).
// ---------------------------------------------------------------------

TEST(RecoveryWireFuzzTest, ParseRankBufferNeverCrashes) {
  test::RandomBytesTrials(0xA11CE, 400, 96, [](ByteSpan junk) {
    (void)ParseRankBuffer(junk);  // must not crash/throw/over-allocate
  });
  const Bytes wire = RankBuffer(77, ToBytes("payload"));
  // Rank buffers are an equivalence class modulo trailing zeros, so a
  // truncated prefix is indistinguishable from a canonically trimmed buffer
  // whose dropped tail was zero: every prefix must parse, to the record
  // whose missing bytes are zero.
  auto trimmed = [](ByteSpan b) {
    Bytes t(b.begin(), b.end());
    while (!t.empty() && t.back() == 0) t.pop_back();
    return t;
  };
  test::TruncationSweep(wire, [&trimmed](ByteSpan prefix, size_t len) {
    auto parsed = ParseRankBuffer(prefix);
    ASSERT_TRUE(parsed.ok()) << "prefix of " << len << " bytes";
    if (len == 0) {
      EXPECT_FALSE(parsed.value().present)
          << "empty buffer is the canonical unoccupied rank";
    } else {
      EXPECT_EQ(trimmed(RankBuffer(parsed.value().key, parsed.value().value)),
                trimmed(prefix))
          << "prefix of " << len << " bytes must parse as its zero-extension";
    }
  });
  test::SingleByteMutations(0xB0B, wire, [](ByteSpan mutated, size_t) {
    (void)ParseRankBuffer(mutated);
  });
  // Round trip and zero-padding tolerance (RS decode pads to the longest
  // survivor).
  Bytes padded = wire;
  padded.resize(padded.size() + 9, 0);
  auto parsed = ParseRankBuffer(padded);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().present);
  EXPECT_EQ(parsed.value().key, 77u);
  EXPECT_EQ(parsed.value().value, ToBytes("payload"));
  // Nonzero trailing garbage is NOT padding.
  padded.back() = 1;
  EXPECT_FALSE(ParseRankBuffer(padded).ok());
}

TEST(RecoveryWireFuzzTest, ParseRankBufferRestoresTrimmedZeros) {
  // The regression that motivated zero-extension: a record value ending in
  // 0x00 (one in 256 ciphertexts) loses those bytes to canonical trimming,
  // so the parser sees a length prefix larger than the remaining payload
  // and must restore the difference instead of rejecting its own decode.
  const Bytes value = {0xAB, 0xCD, 0x00, 0x00};
  Bytes wire = RankBuffer(42, value);
  while (!wire.empty() && wire.back() == 0) wire.pop_back();
  auto parsed = ParseRankBuffer(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().key, 42u);
  EXPECT_EQ(parsed.value().value, value);

  // Trimming can eat the whole tail of the encoding: an empty value under a
  // key whose low bytes are zero leaves just the marker plus the key's
  // nonzero prefix.
  Bytes deep = RankBuffer(uint64_t{1} << 16, Bytes{});
  while (!deep.empty() && deep.back() == 0) deep.pop_back();
  ASSERT_LT(deep.size(), 9u);
  auto short_parsed = ParseRankBuffer(deep);
  ASSERT_TRUE(short_parsed.ok());
  EXPECT_EQ(short_parsed.value().key, uint64_t{1} << 16);
  EXPECT_TRUE(short_parsed.value().value.empty());

  // Junk in, error out: an implausible declared length must not turn
  // zero-extension into a giant allocation.
  Bytes bomb = RankBuffer(7, ToBytes("x"));
  bomb[9] = 0xFF;  // length prefix -> ~4 GiB
  bomb[10] = 0xFF;
  bomb[11] = 0xFF;
  bomb[12] = 0xFF;
  EXPECT_FALSE(ParseRankBuffer(bomb).ok());
}

TEST(RecoveryWireFuzzTest, DecodeParityEntryNeverCrashes) {
  test::RandomBytesTrials(0xC0DE, 400, 96, [](ByteSpan junk) {
    (void)DecodeParityEntry(junk);
  });
  ParityEntry entry;
  entry.op = 0;
  entry.record_key = 123456789;
  entry.delta = ToBytes("delta-bytes");
  const Bytes wire = EncodeParityEntry(entry);
  auto round = DecodeParityEntry(wire);
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round.value().op, entry.op);
  EXPECT_EQ(round.value().record_key, entry.record_key);
  EXPECT_EQ(round.value().delta, entry.delta);
  test::TruncationSweep(wire, [](ByteSpan prefix, size_t len) {
    EXPECT_FALSE(DecodeParityEntry(prefix).ok())
        << "truncation to " << len << " bytes must be rejected";
  });
  test::SingleByteMutations(0xD00D, wire, [](ByteSpan mutated, size_t) {
    (void)DecodeParityEntry(mutated);
  });
  // Unknown op codes are rejected.
  Bytes bad_op = wire;
  bad_op[0] = 2;
  EXPECT_FALSE(DecodeParityEntry(bad_op).ok());
}

TEST(RecoveryWireFuzzTest, DecodeSeqTargetsNeverCrashes) {
  test::RandomBytesTrials(0xFEED, 400, 128, [](ByteSpan junk) {
    (void)DecodeSeqTargets(junk);
  });
  const std::map<int, uint64_t> targets = {{0, 17}, {2, 0}, {3, 999999}};
  const Bytes wire = EncodeSeqTargets(targets);
  auto round = DecodeSeqTargets(wire);
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round.value(), targets);
  test::TruncationSweep(wire, [](ByteSpan prefix, size_t len) {
    if (len > 0) {
      EXPECT_FALSE(DecodeSeqTargets(prefix).ok())
          << "truncation to " << len << " bytes must be rejected";
    }
  });
  test::SingleByteMutations(0xBEEF, wire, [](ByteSpan mutated, size_t) {
    (void)DecodeSeqTargets(mutated);
  });
}

}  // namespace
}  // namespace essdds::sdds
