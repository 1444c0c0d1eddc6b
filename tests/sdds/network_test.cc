#include "sdds/network.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sdds/lh_options.h"

namespace essdds::sdds {
namespace {

class RecordingSite : public Site {
 public:
  void OnMessage(Message& msg, Network& net) override {
    received.push_back(msg);
    if (bounce_to != kInvalidSite && msg.hops < 3) {
      Message fwd = msg;
      fwd.from = id;
      fwd.to = bounce_to;
      fwd.hops = msg.hops + 1;
      net.Send(fwd);
    }
  }

  SiteId id = kInvalidSite;
  SiteId bounce_to = kInvalidSite;
  std::vector<Message> received;
};

TEST(SimNetworkTest, DeliversSynchronously) {
  SimNetwork net;
  RecordingSite a, b;
  a.id = net.Register(&a);
  b.id = net.Register(&b);
  Message m;
  m.type = MsgType::kLookup;
  m.from = a.id;
  m.to = b.id;
  m.key = 42;
  net.Send(m);
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].key, 42u);
  EXPECT_TRUE(a.received.empty());
}

TEST(SimNetworkTest, CountsMessagesBytesAndForwards) {
  SimNetwork net;
  RecordingSite a, b, c;
  a.id = net.Register(&a);
  b.id = net.Register(&b);
  c.id = net.Register(&c);
  b.bounce_to = c.id;  // b forwards everything to c
  Message m;
  m.type = MsgType::kInsert;
  m.from = a.id;
  m.to = b.id;
  m.value = Bytes(100, 'x');
  net.Send(m);
  const NetworkStats& st = net.stats();
  EXPECT_EQ(st.total_messages, 2u);  // a->b plus b->c forward
  EXPECT_EQ(st.forwarded_messages, 1u);
  EXPECT_GT(st.total_bytes, 200u);  // two 100-byte payloads + headers
  EXPECT_EQ(st.per_type.at(MsgType::kInsert), 2u);
  net.ResetStats();
  EXPECT_EQ(net.stats().total_messages, 0u);
}

TEST(SimNetworkTest, SiteCountTracksRegistrations) {
  SimNetwork net;
  RecordingSite sites[5];
  for (auto& s : sites) s.id = net.Register(&s);
  EXPECT_EQ(net.site_count(), 5u);
  // Ids are dense and ordered.
  for (SiteId i = 0; i < 5; ++i) EXPECT_EQ(sites[i].id, i);
}

TEST(MessageTest, EveryTypeHasAName) {
  for (int t = 0; t <= static_cast<int>(MsgType::kRecoveryTick); ++t) {
    EXPECT_NE(MsgTypeToString(static_cast<MsgType>(t)), "Unknown")
        << "type " << t;
  }
}

TEST(MessageTest, EncodedSizeScalesWithPayload) {
  Message small;
  small.type = MsgType::kInsert;
  small.value = Bytes(10, 'a');
  Message large = small;
  large.value = Bytes(1000, 'a');
  EXPECT_EQ(large.EncodedSize() - small.EncodedSize(), 990u);

  Message scan;
  scan.type = MsgType::kScan;
  scan.filter_arg = Bytes(64, 'q');
  EXPECT_GT(scan.EncodedSize(), 64u);

  Message reply;
  reply.type = MsgType::kScanReply;
  reply.records.push_back(WireRecord{1, Bytes(50, 'r')});
  reply.records.push_back(WireRecord{2, Bytes(50, 'r')});
  EXPECT_GE(reply.EncodedSize(), 116u);  // 2*(8+50) + header
}

TEST(MessageTest, IamCostsExtraBytes) {
  Message m;
  m.type = MsgType::kLookupReply;
  const size_t without = m.EncodedSize();
  m.has_iam = true;
  m.iam_level = 3;
  m.iam_address = 5;
  // u32 level + u64 address; the flag rides in the presence mask.
  EXPECT_EQ(m.EncodedSize(), without + 12);
}

TEST(FileImageTest, BucketCountAndAssumedLevels) {
  FileImage img{.level = 2, .split_pointer = 1};
  EXPECT_EQ(img.BucketCount(), 5u);
  // Buckets 0 (split) and 4 (its child) are at level 3; 1..3 at level 2.
  EXPECT_EQ(img.AssumedLevel(0), 3u);
  EXPECT_EQ(img.AssumedLevel(1), 2u);
  EXPECT_EQ(img.AssumedLevel(3), 2u);
  EXPECT_EQ(img.AssumedLevel(4), 3u);
}

TEST(LhKeyHashTest, BijectiveOnSamplesAndWellSpread) {
  // splitmix64 finalizer: distinct inputs give distinct outputs and low
  // bits look uniform.
  std::set<uint64_t> images;
  int low_bit_ones = 0;
  for (uint64_t k = 0; k < 4096; ++k) {
    const uint64_t h = LhKeyHash(k);
    EXPECT_TRUE(images.insert(h).second);
    low_bit_ones += static_cast<int>(h & 1);
  }
  EXPECT_GT(low_bit_ones, 1850);
  EXPECT_LT(low_bit_ones, 2250);
}

TEST(LhKeyHashTest, ImageRespectsOption) {
  LhOptions hashed{.hash_keys = true};
  LhOptions raw{.hash_keys = false};
  EXPECT_EQ(LhKeyImage(123, raw), 123u);
  EXPECT_EQ(LhKeyImage(123, hashed), LhKeyHash(123));
  EXPECT_NE(LhKeyImage(123, hashed), 123u);
}

}  // namespace
}  // namespace essdds::sdds
