#include "sdds/event_network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "sdds/lh_system.h"
#include "tests/util/numbered_value.h"

namespace essdds::sdds {
namespace {

class RecordingSite : public Site {
 public:
  void OnMessage(Message& msg, Network& net) override {
    (void)net;
    received.push_back(msg);
  }
  std::vector<Message> received;
};

Message KeyedMessage(MsgType type, SiteId from, SiteId to, uint64_t key) {
  Message m;
  m.type = type;
  m.from = from;
  m.to = to;
  m.key = key;
  return m;
}

TEST(EventNetworkTest, SendSchedulesAndPumpDelivers) {
  EventNetwork net;
  RecordingSite a, b;
  const SiteId sa = net.Register(&a);
  const SiteId sb = net.Register(&b);
  net.Send(KeyedMessage(MsgType::kLookup, sa, sb, 42));
  // Nothing is delivered until the requester pumps.
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net.stats().total_messages, 1u);
  EXPECT_EQ(net.queued_events(), 1u);

  EXPECT_TRUE(net.Pump());
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].key, 42u);
  EXPECT_GE(net.now_us(), net.options().min_latency_us);
  EXPECT_FALSE(net.Pump()) << "idle after the only event";
}

TEST(EventNetworkTest, SameSeedSameSchedule) {
  auto run = [](uint64_t seed) {
    EventNetworkOptions opts;
    opts.seed = seed;
    EventNetwork net(opts);
    RecordingSite a, b, c;
    const SiteId sa = net.Register(&a);
    const SiteId sb = net.Register(&b);
    const SiteId sc = net.Register(&c);
    for (uint64_t k = 0; k < 40; ++k) {
      net.Send(KeyedMessage(MsgType::kLookup, k % 2 ? sa : sb, sc, k));
    }
    net.PumpUntilIdle();
    std::vector<uint64_t> order;
    for (const Message& m : c.received) order.push_back(m.key);
    return order;
  };
  EXPECT_EQ(run(7), run(7)) << "a seed must replay bit-for-bit";
  EXPECT_NE(run(7), run(8)) << "different seeds should schedule differently";
}

TEST(EventNetworkTest, CrossLinkTrafficReorders) {
  // Two senders, one receiver: per-message latencies reorder the arrivals
  // relative to the send order even with FIFO links.
  EventNetworkOptions opts;
  opts.seed = 123;
  opts.min_latency_us = 1;
  opts.max_latency_us = 10'000;
  EventNetwork net(opts);
  RecordingSite a, b, c;
  const SiteId sa = net.Register(&a);
  const SiteId sb = net.Register(&b);
  const SiteId sc = net.Register(&c);
  for (uint64_t k = 0; k < 50; ++k) {
    net.Send(KeyedMessage(MsgType::kLookup, k % 2 ? sa : sb, sc, k));
  }
  net.PumpUntilIdle();
  ASSERT_EQ(c.received.size(), 50u);
  std::vector<uint64_t> order;
  for (const Message& m : c.received) order.push_back(m.key);
  EXPECT_FALSE(std::is_sorted(order.begin(), order.end()))
      << "50 random latencies should produce at least one inversion";
}

TEST(EventNetworkTest, FifoLinkNeverReordersWithinOneLink) {
  EventNetworkOptions opts;
  opts.seed = 99;
  opts.min_latency_us = 1;
  opts.max_latency_us = 50'000;  // huge jitter: FIFO must still hold
  EventNetwork net(opts);
  RecordingSite a, b;
  const SiteId sa = net.Register(&a);
  const SiteId sb = net.Register(&b);
  for (uint64_t k = 0; k < 100; ++k) {
    net.Send(KeyedMessage(MsgType::kLookup, sa, sb, k));
  }
  net.PumpUntilIdle();
  ASSERT_EQ(b.received.size(), 100u);
  for (uint64_t k = 0; k < 100; ++k) EXPECT_EQ(b.received[k].key, k);
}

TEST(EventNetworkTest, DropsCountSeparatelyAndOnlyEligibleTypes) {
  EventNetworkOptions opts;
  opts.seed = 5;
  opts.drop_prob = 0.5;
  EventNetwork net(opts);
  RecordingSite a, b;
  const SiteId sa = net.Register(&a);
  const SiteId sb = net.Register(&b);
  for (uint64_t k = 0; k < 200; ++k) {
    net.Send(KeyedMessage(MsgType::kLookup, sa, sb, k));  // eligible
  }
  for (uint64_t k = 0; k < 50; ++k) {
    net.Send(KeyedMessage(MsgType::kTransfer, sa, sb, k));  // protected
  }
  net.PumpUntilIdle();
  const NetworkStats& st = net.stats();
  // Every send is charged once, dropped or not.
  EXPECT_EQ(st.total_messages, 250u);
  EXPECT_GT(st.dropped_messages, 50u) << "p=0.5 over 200 eligible sends";
  EXPECT_LT(st.dropped_messages, 150u);
  EXPECT_EQ(b.received.size(), 250u - st.dropped_messages);
  // Bulk record transfers are never dropped: all 50 arrived.
  size_t moves = 0;
  for (const Message& m : b.received) {
    if (m.type == MsgType::kTransfer) ++moves;
  }
  EXPECT_EQ(moves, 50u);
}

TEST(EventNetworkTest, DuplicatesDeliverTwiceButCountOnceInTotals) {
  EventNetworkOptions opts;
  opts.seed = 11;
  opts.duplicate_prob = 1.0;
  EventNetwork net(opts);
  RecordingSite a, b;
  const SiteId sa = net.Register(&a);
  const SiteId sb = net.Register(&b);
  for (uint64_t k = 0; k < 20; ++k) {
    net.Send(KeyedMessage(MsgType::kInsert, sa, sb, k));
  }
  net.PumpUntilIdle();
  EXPECT_EQ(net.stats().total_messages, 20u);
  EXPECT_EQ(net.stats().duplicated_messages, 20u);
  EXPECT_EQ(net.stats().per_type.at(MsgType::kInsert), 20u);
  EXPECT_EQ(b.received.size(), 40u);
}

TEST(EventNetworkTest, ScriptDropDiscardsExactlyTheNthSend) {
  EventNetwork net;
  RecordingSite a, b;
  const SiteId sa = net.Register(&a);
  const SiteId sb = net.Register(&b);
  net.ScriptDrop(MsgType::kLookup, 2);
  for (uint64_t k = 0; k < 4; ++k) {
    net.Send(KeyedMessage(MsgType::kLookup, sa, sb, k));
  }
  net.PumpUntilIdle();
  ASSERT_EQ(b.received.size(), 3u);
  std::vector<uint64_t> keys;
  for (const Message& m : b.received) keys.push_back(m.key);
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(keys, (std::vector<uint64_t>{0, 2, 3}));
  EXPECT_EQ(net.stats().dropped_messages, 1u);
}

TEST(EventNetworkTest, PauseParksDeliveriesUntilResume) {
  EventNetwork net;
  RecordingSite a, b;
  const SiteId sa = net.Register(&a);
  const SiteId sb = net.Register(&b);
  net.PauseSite(sb);
  net.Send(KeyedMessage(MsgType::kLookup, sa, sb, 1));
  net.Send(KeyedMessage(MsgType::kLookup, sa, sb, 2));
  net.PumpUntilIdle();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net.parked_messages(), 2u);

  net.ResumeSite(sb);
  net.PumpUntilIdle();
  ASSERT_EQ(b.received.size(), 2u);
  EXPECT_EQ(net.parked_messages(), 0u);
}

TEST(EventNetworkTest, TimedPauseResumesByItself) {
  EventNetwork net;
  RecordingSite a, b;
  const SiteId sa = net.Register(&a);
  const SiteId sb = net.Register(&b);
  net.PauseSite(sb, /*duration_us=*/1'000'000);
  net.Send(KeyedMessage(MsgType::kLookup, sa, sb, 7));
  net.PumpUntilIdle();  // pumps the parked delivery, the resume, the redelivery
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_GE(net.now_us(), 1'000'000u);
}

// --- full-system behaviour over the event network ---

LhOptions EventOptions(uint64_t seed) {
  LhOptions o;
  o.bucket_capacity = 8;
  o.network_mode = NetworkMode::kEvent;
  o.event_net.seed = seed;
  return o;
}

TEST(EventNetworkSystemTest, InsertLookupDeleteAcrossSplits) {
  LhSystem sys(EventOptions(2024));
  LhClient* c = sys.NewClient();
  for (uint64_t k = 0; k < 200; ++k) {
    EXPECT_FALSE(c->Insert(k, test::NumberedValue(k)));
  }
  sys.network().PumpUntilIdle();  // let restructuring settle
  EXPECT_GT(sys.bucket_count(), 1u) << "capacity 8 must have split";
  EXPECT_EQ(sys.TotalRecords(), 200u);
  for (uint64_t k = 0; k < 200; ++k) {
    auto r = c->Lookup(k);
    ASSERT_TRUE(r.ok()) << "key " << k;
    EXPECT_EQ(*r, test::NumberedValue(k));
  }
  EXPECT_TRUE(c->Delete(77).ok());
  EXPECT_TRUE(c->Lookup(77).status().IsNotFound());
  EXPECT_EQ(c->retry_count(), 0u) << "no faults, no retries";
}

// Satellite regression: the first kLookup reply is lost; the client must
// recover with exactly one retransmission.
TEST(EventNetworkSystemTest, ScriptedReplyLossRecoversWithExactlyOneRetry) {
  LhSystem sys(EventOptions(31337));
  EventNetwork* net = sys.event_network();
  ASSERT_NE(net, nullptr);
  LhClient* c = sys.NewClient();
  c->Insert(9, ToBytes("payload"));
  sys.network().PumpUntilIdle();
  sys.network().ResetStats();

  net->ScriptDrop(MsgType::kLookupReply, 1);
  auto r = c->Lookup(9);
  ASSERT_TRUE(r.ok()) << "client must recover from the lost reply";
  EXPECT_EQ(*r, ToBytes("payload"));

  EXPECT_EQ(c->retry_count(), 1u) << "exactly one retransmission";
  const NetworkStats& st = sys.network().stats();
  EXPECT_EQ(st.dropped_messages, 1u);
  EXPECT_EQ(st.retried_messages, 1u);
  // Two kLookup sends crossed the wire (original + retry), two replies were
  // produced, one was dropped.
  EXPECT_EQ(st.per_type.at(MsgType::kLookup), 2u);
  EXPECT_EQ(st.per_type.at(MsgType::kLookupReply), 2u);
}

TEST(EventNetworkSystemTest, ScriptedRequestLossAlsoRecovers) {
  LhSystem sys(EventOptions(4242));
  EventNetwork* net = sys.event_network();
  LhClient* c = sys.NewClient();
  c->Insert(3, ToBytes("x"));
  sys.network().PumpUntilIdle();

  net->ScriptDrop(MsgType::kDelete, 1);
  EXPECT_TRUE(c->Delete(3).ok());
  EXPECT_EQ(c->retry_count(), 1u);
  EXPECT_TRUE(c->Lookup(3).status().IsNotFound());
}

TEST(EventNetworkSystemTest, PausedBucketDelaysButDoesNotLose) {
  LhSystem sys(EventOptions(777));
  EventNetwork* net = sys.event_network();
  LhClient* c = sys.NewClient();
  c->Insert(1, ToBytes("one"));
  sys.network().PumpUntilIdle();

  // Stall the root bucket's site across several client timeouts; the
  // lookup must still complete once the site recovers.
  net->PauseSite(sys.bucket(0).site(), /*duration_us=*/50'000'000);
  auto r = c->Lookup(1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, ToBytes("one"));
  EXPECT_GT(c->retry_count(), 0u) << "timeouts must have fired while paused";
  sys.network().PumpUntilIdle();  // flush the other retries' replies
  EXPECT_GT(c->stale_reply_count(), 0u)
      << "the piled-up retries all get answered on resume; the extras are "
         "discarded as stale";
}

TEST(EventNetworkSystemTest, StatsToStringReportsFaultCounters) {
  NetworkStats st;
  st.total_messages = 10;
  EXPECT_EQ(st.ToString().find("dropped"), std::string::npos)
      << "fault counters stay out of the fault-free line";
  st.dropped_messages = 2;
  st.retried_messages = 1;
  const std::string s = st.ToString();
  EXPECT_NE(s.find("dropped=2"), std::string::npos);
  EXPECT_NE(s.find("duplicated=0"), std::string::npos);
  EXPECT_NE(s.find("retried=1"), std::string::npos);
}

TEST(EventNetworkSystemTest, HugeTimeoutBackoffSaturatesInsteadOfWrapping) {
  // Regression: with request_timeout_us in the top bit range, the backoff
  // shift (timeout << attempts) wrapped uint64_t, planting the retry
  // deadline in the past — every pump became another retransmission until
  // the retry cap aborted the run. The shift and the deadline addition must
  // saturate instead.
  LhOptions o = EventOptions(909);
  o.request_timeout_us = (uint64_t{1} << 63) + 5;
  LhSystem sys(o);
  EventNetwork* net = sys.event_network();
  LhClient* c = sys.NewClient();
  c->Insert(4, ToBytes("durable"));
  sys.network().PumpUntilIdle();

  net->ScriptDrop(MsgType::kLookupReply, 1);
  auto r = c->Lookup(4);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, ToBytes("durable"));
  EXPECT_EQ(c->retry_count(), 1u) << "saturated backoff must not hot-loop";
}

TEST(EventNetworkSystemTest, BackoffCapShiftSaturatesNearMaxTimeout) {
  // The cap shift is 6: a timeout just past UINT64_MAX >> 6 overflows
  // exactly at the capped attempt. Drop six consecutive replies so the
  // backoff walks the full shift ladder; the sixth doubling must pin the
  // deadline at the far future, not wrap it to now.
  LhOptions o = EventOptions(910);
  o.request_timeout_us = (UINT64_MAX >> 6) + 1;
  LhSystem sys(o);
  EventNetwork* net = sys.event_network();
  LhClient* c = sys.NewClient();
  c->Insert(5, ToBytes("still-here"));
  sys.network().PumpUntilIdle();

  for (uint64_t occurrence = 1; occurrence <= 6; ++occurrence) {
    net->ScriptDrop(MsgType::kLookupReply, occurrence);
  }
  auto r = c->Lookup(5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, ToBytes("still-here"));
  EXPECT_EQ(c->retry_count(), 6u);
}

}  // namespace
}  // namespace essdds::sdds
