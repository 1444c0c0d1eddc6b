#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "sdds/lh_system.h"
#include "tests/util/numbered_value.h"
#include "util/random.h"

namespace essdds::sdds {
namespace {

LhOptions ShrinkingOptions() {
  return LhOptions{.bucket_capacity = 8, .merge_threshold = 0.25};
}

TEST(LhShrinkTest, FileShrinksAfterMassDeletes) {
  LhSystem sys(ShrinkingOptions());
  LhClient* c = sys.NewClient();
  Rng rng(1);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 2000; ++i) {
    keys.push_back(rng.Next());
    c->Insert(keys.back(), test::NumberedValue(keys.back()));
  }
  const size_t peak = sys.bucket_count();
  ASSERT_GT(peak, 64u);

  for (size_t i = 0; i < keys.size() - 50; ++i) {
    ASSERT_TRUE(c->Delete(keys[i]).ok());
  }
  EXPECT_LT(sys.bucket_count(), peak / 2)
      << "file did not shrink (peak " << peak << ")";
  // The survivors are all still reachable.
  for (size_t i = keys.size() - 50; i < keys.size(); ++i) {
    auto r = c->Lookup(keys[i]);
    ASSERT_TRUE(r.ok()) << "key " << keys[i];
    EXPECT_EQ(*r, test::NumberedValue(keys[i]));
  }
}

TEST(LhShrinkTest, CoordinatorStateStaysConsistent) {
  LhSystem sys(ShrinkingOptions());
  LhClient* c = sys.NewClient();
  Rng rng(2);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 1000; ++i) {
    keys.push_back(rng.Next());
    c->Insert(keys.back(), test::NumberedValue(keys.back()));
  }
  for (uint64_t k : keys) ASSERT_TRUE(c->Delete(k).ok());
  // Extent must equal 2^i + n at all times; check the final state.
  const uint32_t i = sys.coordinator().level();
  const uint64_t n = sys.coordinator().split_pointer();
  EXPECT_EQ(sys.bucket_count(), (uint64_t{1} << i) + n);
  // Bucket levels follow the split pointer exactly as during growth.
  for (uint64_t b = 0; b < sys.bucket_count(); ++b) {
    const uint32_t expected = (b < n || b >= (uint64_t{1} << i)) ? i + 1 : i;
    EXPECT_EQ(sys.bucket(b).level(), expected) << "bucket " << b;
  }
  EXPECT_EQ(sys.TotalRecords(), 0u);
}

TEST(LhShrinkTest, GrowShrinkGrowCycleKeepsAllRecords) {
  LhSystem sys(ShrinkingOptions());
  LhClient* c = sys.NewClient();
  Rng rng(3);
  std::set<uint64_t> live;
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (int i = 0; i < 800; ++i) {
      uint64_t k = rng.Next();
      c->Insert(k, test::NumberedValue(k));
      live.insert(k);
    }
    // Delete ~75%.
    auto it = live.begin();
    while (it != live.end()) {
      if (rng.Bernoulli(0.75)) {
        ASSERT_TRUE(c->Delete(*it).ok());
        it = live.erase(it);
      } else {
        ++it;
      }
    }
    EXPECT_EQ(sys.TotalRecords(), live.size());
    for (uint64_t k : live) {
      ASSERT_TRUE(c->Lookup(k).ok()) << "cycle " << cycle << " key " << k;
    }
  }
}

TEST(LhShrinkTest, StaleAheadClientStillReachesEverything) {
  LhSystem sys(ShrinkingOptions());
  LhClient* writer = sys.NewClient();
  Rng rng(4);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 1500; ++i) {
    keys.push_back(rng.Next());
    writer->Insert(keys.back(), test::NumberedValue(keys.back()));
  }
  // Warm the writer's image at peak size.
  for (uint64_t k : keys) ASSERT_TRUE(writer->Lookup(k).ok());
  const uint64_t image_at_peak = writer->image().BucketCount();

  // Shrink the file drastically via a second client.
  LhClient* deleter = sys.NewClient();
  for (size_t i = 100; i < keys.size(); ++i) {
    ASSERT_TRUE(deleter->Delete(keys[i]).ok());
  }
  ASSERT_LT(sys.bucket_count(), image_at_peak)
      << "test needs the file to be smaller than the writer's image";

  // The writer's image is now AHEAD of the file; stub folding must still
  // route every request correctly.
  for (size_t i = 0; i < 100; ++i) {
    auto r = writer->Lookup(keys[i]);
    ASSERT_TRUE(r.ok()) << "key " << keys[i];
  }
  // And a scan from the stale-ahead client sees each record exactly once.
  const uint64_t match_all = sys.InstallFilter(
      [](uint64_t, ByteSpan, ByteSpan) { return true; });
  auto result = writer->Scan(match_all, {});
  EXPECT_EQ(result.hits.size(), sys.TotalRecords());
  std::set<uint64_t> seen;
  for (const auto& hit : result.hits) {
    EXPECT_TRUE(seen.insert(hit.key).second) << "duplicate " << hit.key;
  }
  EXPECT_EQ(result.buckets_answered, sys.bucket_count());
}

class ProbeSite : public Site {
 public:
  void OnMessage(Message& msg, Network& net) override {
    (void)net;
    received.push_back(std::move(msg));
  }
  std::vector<Message> received;
};

TEST(LhShrinkTest, RetiredBucketForwardsStaleKeyRequests) {
  LhSystem sys(ShrinkingOptions());
  LhClient* c = sys.NewClient();
  Rng rng(7);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 1500; ++i) {
    keys.push_back(rng.Next());
    c->Insert(keys.back(), test::NumberedValue(keys.back()));
  }
  const size_t peak = sys.bucket_count();
  ASSERT_GT(peak, 2u);
  // The highest-numbered bucket at peak is retired first by the merges.
  const SiteId retired_site = sys.bucket(peak - 1).site();

  for (size_t i = 100; i < keys.size(); ++i) {
    ASSERT_TRUE(c->Delete(keys[i]).ok());
  }
  ASSERT_LT(sys.bucket_count(), peak - 1)
      << "test needs bucket " << peak - 1 << " to be retired";

  // A maximally stale client addresses the retired bucket directly: the
  // request must be forwarded along the parent chain and answered from
  // wherever the record lives now — never served from the retired bucket's
  // empty map (and never crash the server).
  ProbeSite probe;
  const SiteId probe_site = sys.network().Register(&probe);
  Message req;
  req.type = MsgType::kLookup;
  req.from = probe_site;
  req.reply_to = probe_site;
  req.request_id = 77;
  req.key = keys[0];
  req.to = retired_site;
  sys.network().Send(std::move(req));

  ASSERT_EQ(probe.received.size(), 1u);
  const Message& reply = probe.received[0];
  EXPECT_EQ(reply.type, MsgType::kLookupReply);
  EXPECT_TRUE(reply.found) << "record lost behind the retired bucket";
  EXPECT_EQ(reply.value, test::NumberedValue(keys[0]));

  // Same for a delete of a key that never existed: routed, answered, no
  // phantom state.
  Message del;
  del.type = MsgType::kDelete;
  del.from = probe_site;
  del.reply_to = probe_site;
  del.request_id = 78;
  del.key = keys[0] ^ 0x5a5a5a5a5a5a5a5aull;
  del.to = retired_site;
  sys.network().Send(std::move(del));
  ASSERT_EQ(probe.received.size(), 2u);
  EXPECT_EQ(probe.received[1].type, MsgType::kDeleteAck);
  EXPECT_FALSE(probe.received[1].found);
}

TEST(LhShrinkTest, RetiredBucketForwardsStaleScans) {
  LhSystem sys(ShrinkingOptions());
  LhClient* c = sys.NewClient();
  Rng rng(8);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 1200; ++i) {
    keys.push_back(rng.Next());
    c->Insert(keys.back(), test::NumberedValue(keys.back()));
  }
  const size_t peak = sys.bucket_count();
  ASSERT_GT(peak, 2u);
  const SiteId retired_site = sys.bucket(peak - 1).site();
  for (size_t i = 50; i < keys.size(); ++i) {
    ASSERT_TRUE(c->Delete(keys[i]).ok());
  }
  ASSERT_LT(sys.bucket_count(), peak - 1);

  const uint64_t match_all =
      sys.InstallFilter([](uint64_t, ByteSpan, ByteSpan) { return true; });
  ProbeSite probe;
  const SiteId probe_site = sys.network().Register(&probe);
  Message scan;
  scan.type = MsgType::kScan;
  scan.from = probe_site;
  scan.reply_to = probe_site;
  scan.request_id = 79;
  scan.filter_id = match_all;
  // A level high enough that the serving bucket propagates to no children:
  // the probe expects exactly the one reply from wherever the scan folds.
  scan.assumed_level = 31;
  scan.to = retired_site;
  sys.network().Send(std::move(scan));
  // The serving bucket queued its evaluation; the drain sends the reply.
  sys.network().DrainDeferredScans();

  ASSERT_EQ(probe.received.size(), 1u);
  const Message& reply = probe.received[0];
  EXPECT_EQ(reply.type, MsgType::kScanReply);
  // The reply comes from a live bucket (under its own bucket number) and
  // carries that bucket's records — not the retired bucket's empty map.
  ASSERT_LT(reply.key, sys.bucket_count());
  EXPECT_EQ(reply.records.size(), sys.bucket(reply.key).record_count());
}

TEST(LhShrinkTest, NeverShrinksBelowOneBucket) {
  LhSystem sys(ShrinkingOptions());
  LhClient* c = sys.NewClient();
  for (uint64_t k = 0; k < 20; ++k) c->Insert(k, test::NumberedValue(k));
  for (uint64_t k = 0; k < 20; ++k) ASSERT_TRUE(c->Delete(k).ok());
  EXPECT_GE(sys.bucket_count(), 1u);
  // The file still works.
  c->Insert(99, test::NumberedValue(99));
  EXPECT_TRUE(c->Lookup(99).ok());
}

TEST(LhShrinkTest, DisabledByDefault) {
  LhSystem sys(LhOptions{.bucket_capacity = 8});
  LhClient* c = sys.NewClient();
  Rng rng(5);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 500; ++i) {
    keys.push_back(rng.Next());
    c->Insert(keys.back(), test::NumberedValue(keys.back()));
  }
  const size_t peak = sys.bucket_count();
  for (uint64_t k : keys) ASSERT_TRUE(c->Delete(k).ok());
  EXPECT_EQ(sys.bucket_count(), peak);  // no merging without opting in
}

TEST(LhShrinkTest, MergeTrafficIsAccounted) {
  LhSystem sys(ShrinkingOptions());
  LhClient* c = sys.NewClient();
  Rng rng(6);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 600; ++i) {
    keys.push_back(rng.Next());
    c->Insert(keys.back(), test::NumberedValue(keys.back()));
  }
  sys.network().ResetStats();
  for (uint64_t k : keys) ASSERT_TRUE(c->Delete(k).ok());
  const NetworkStats& st = sys.network().stats();
  EXPECT_GT(st.per_type.at(MsgType::kUnderflow), 0u);
  EXPECT_GT(st.per_type.at(MsgType::kMerge), 0u);
  EXPECT_EQ(st.per_type.at(MsgType::kMerge),
            st.per_type.at(MsgType::kMergeDone));
  EXPECT_EQ(st.per_type.at(MsgType::kMerge),
            st.per_type.at(MsgType::kTransfer));
  // A merge parent serves once it has adopted: one ack, no release.
  EXPECT_EQ(st.per_type.at(MsgType::kMerge),
            st.per_type.at(MsgType::kTransferAck));
}

}  // namespace
}  // namespace essdds::sdds
