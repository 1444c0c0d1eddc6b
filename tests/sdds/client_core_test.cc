#include "sdds/client_core.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/bytes.h"

namespace essdds::sdds {
namespace {

constexpr SiteId kClient = 7;
constexpr SiteId kCoordinator = 0;
constexpr SiteId kFirstBucketSite = 100;

// Drives a ClientCore by hand: the test is the clock and the network.
class ClientCoreTest : public ::testing::Test {
 protected:
  ClientCoreTest() {
    options_.hash_keys = false;  // addresses are the keys' low bits
    options_.request_timeout_us = 100;
    options_.max_request_retries = 3;
  }

  ClientCore& core() {
    if (core_ == nullptr) {
      core_ = std::make_unique<ClientCore>(
          kClient, kCoordinator,
          [](uint64_t bucket) {
            return static_cast<SiteId>(kFirstBucketSite + bucket);
          },
          options_, metrics_, trace_);
    }
    return *core_;
  }

  // The reply a bucket server would send for `req`.
  static Message ReplyTo(const Message& req) {
    Message reply;
    reply.type = req.type == MsgType::kInsert   ? MsgType::kInsertAck
                 : req.type == MsgType::kLookup ? MsgType::kLookupReply
                                                : MsgType::kDeleteAck;
    reply.from = req.to;
    reply.to = req.reply_to;
    reply.request_id = req.request_id;
    reply.trace_id = req.trace_id;
    reply.key = req.key;
    return reply;
  }

  // A reply carrying an IAM from a bucket at `level` and `address`.
  static Message WithIam(Message reply, uint32_t level, uint64_t address) {
    reply.has_iam = true;
    reply.iam_level = level;
    reply.iam_address = address;
    return reply;
  }

  LhOptions options_;
  obs::MetricRegistry metrics_;
  obs::TraceRing trace_;
  std::unique_ptr<ClientCore> core_;
};

TEST_F(ClientCoreTest, BackoffDoublesUpToSixShiftsAndSaturates) {
  for (uint32_t attempts = 0; attempts <= 9; ++attempts) {
    const uint64_t factor = uint64_t{1} << std::min<uint32_t>(attempts, 6);
    EXPECT_EQ(ClientCore::BackoffDeadline(1000, 100, attempts),
              1000 + 100 * factor)
        << "attempts " << attempts;
  }
  // A timeout near 2^63: the first doubling overflows the shift, and the
  // deadline must pin at the far future instead of wrapping into the past.
  const uint64_t huge = (uint64_t{1} << 63) + 5;
  EXPECT_EQ(ClientCore::BackoffDeadline(10, huge, 0), huge + 10);
  EXPECT_EQ(ClientCore::BackoffDeadline(10, huge, 1), UINT64_MAX);
  EXPECT_EQ(ClientCore::BackoffDeadline(UINT64_MAX - 1, 100, 0), UINT64_MAX);
  // Just past UINT64_MAX >> 6 overflows exactly at the capped shift.
  const uint64_t edge = (UINT64_MAX >> 6) + 1;
  EXPECT_EQ(ClientCore::BackoffDeadline(0, edge, 5), edge << 5);
  EXPECT_EQ(ClientCore::BackoffDeadline(0, edge, 6), UINT64_MAX);
}

TEST_F(ClientCoreTest, TickRetransmitsOnTheBackoffSchedule) {
  options_.max_request_retries = 10;
  const Message req = core().StartKeyOp(MsgType::kLookup, 3, {}, /*now=*/0);
  uint64_t deadline = 100;
  for (uint32_t attempt = 1; attempt <= 8; ++attempt) {
    EXPECT_TRUE(core().Tick(deadline).empty())
        << "retried at its deadline, attempt " << attempt;
    std::vector<ClientCore::Expiry> due = core().Tick(deadline + 1);
    ASSERT_EQ(due.size(), 1u) << "attempt " << attempt;
    ASSERT_EQ(due[0].sends.size(), 1u);
    const Message& again = due[0].sends[0];
    EXPECT_EQ(again.request_id, req.request_id) << "retries keep the id";
    EXPECT_EQ(again.trace_id, req.trace_id);
    EXPECT_FALSE(due[0].failed.has_value());
    deadline = deadline + 1 + (uint64_t{100} << std::min<uint32_t>(attempt, 6));
  }
  EXPECT_EQ(core().retry_count(), 8u);
  EXPECT_EQ(metrics_.counter("client.retries").value(),
            obs::kMetricsEnabled ? 8u : 0u);
}

TEST_F(ClientCoreTest, HugeTimeoutNeverExpiresAfterTheFirstRetry) {
  options_.request_timeout_us = (uint64_t{1} << 63) + 5;
  const Message req = core().StartKeyOp(MsgType::kLookup, 3, {}, 0);
  ASSERT_EQ(core().Expire(req.request_id, 1000).sends.size(), 1u);
  EXPECT_TRUE(core().Tick(UINT64_MAX).empty())
      << "a saturated deadline must not wrap into the past";
  EXPECT_EQ(core().retry_count(), 1u);
}

TEST_F(ClientCoreTest, RetryIsReaddressedUnderTheRepairedImage) {
  // Fresh image: one bucket, so every key goes to bucket 0.
  const Message a = core().StartKeyOp(MsgType::kLookup, 5, {}, 0);
  const Message b = core().StartKeyOp(MsgType::kLookup, 6, {}, 0);
  EXPECT_EQ(a.to, kFirstBucketSite);
  EXPECT_EQ(a.bucket_to_split, 0u);

  // b's reply carries an IAM from bucket 1 at level 3: i' = 2, n' = 2, so
  // the image now holds six buckets.
  ASSERT_TRUE(core().OnReply(WithIam(ReplyTo(b), 3, 1), 10).has_value());
  EXPECT_EQ(core().image().level, 2u);
  EXPECT_EQ(core().image().split_pointer, 2u);

  // a's retry: 5 & 3 = 1 is below n', so h_3 gives bucket 5.
  ClientCore::Expiry e = core().Expire(a.request_id, 20);
  ASSERT_EQ(e.sends.size(), 1u);
  EXPECT_EQ(e.sends[0].type, MsgType::kLookup);
  EXPECT_EQ(e.sends[0].bucket_to_split, 5u);
  EXPECT_EQ(e.sends[0].to, kFirstBucketSite + 5);
}

TEST_F(ClientCoreTest, RetransmissionCarriesThePayload) {
  const Message req =
      core().StartKeyOp(MsgType::kInsert, 9, ToBytes("payload"), 0);
  EXPECT_EQ(req.value, ToBytes("payload"));
  ClientCore::Expiry e = core().Expire(req.request_id, 1);
  ASSERT_EQ(e.sends.size(), 1u);
  EXPECT_EQ(e.sends[0].value, ToBytes("payload"));
}

TEST_F(ClientCoreTest, ExhaustionYieldsUnavailableAndOneDeadSiteReport) {
  std::string log;
  obs::EventLog::Global().set_capture(&log);
  obs::EventLog::Global().set_rate_limit_per_sec(0);
  const Message req = core().StartKeyOp(MsgType::kDelete, 42, {}, 0);
  size_t reports = 0;
  std::optional<ClientCore::Completion> failed;
  for (uint64_t t = 1; !failed.has_value(); ++t) {
    ASSERT_LE(t, options_.max_request_retries + 1);
    ClientCore::Expiry e = core().Expire(req.request_id, t);
    for (const Message& m : e.sends) {
      if (m.type != MsgType::kDeadSite) continue;
      ++reports;
      EXPECT_EQ(m.to, kCoordinator);
      EXPECT_EQ(m.key, 42u) << "the report names the record key";
      EXPECT_EQ(m.trace_id, req.trace_id);
    }
    failed = std::move(e.failed);
  }
  obs::EventLog::Global().set_capture(nullptr);
  obs::EventLog::Global().set_rate_limit_per_sec(20);

  EXPECT_EQ(reports, 1u) << "without parity only exhaustion reports";
  EXPECT_EQ(failed->request_id, req.request_id);
  ASSERT_FALSE(failed->reply.ok());
  EXPECT_TRUE(failed->reply.status().IsUnavailable())
      << failed->reply.status().ToString();
  EXPECT_EQ(core().retry_count(), options_.max_request_retries);
  EXPECT_EQ(core().inflight(), 0u);
  if (obs::kMetricsEnabled) {
    EXPECT_NE(log.find("\"op_unavailable\""), std::string::npos) << log;
  }
  // The op is gone: its late reply is stale.
  EXPECT_FALSE(core().OnReply(ReplyTo(req), 99).has_value());
  EXPECT_EQ(core().stale_reply_count(), 1u);
}

TEST_F(ClientCoreTest, ParityReportsFromTheSecondRetryOn) {
  options_.parity_group_size = 4;
  const Message req = core().StartKeyOp(MsgType::kLookup, 1, {}, 0);
  std::vector<size_t> reports_per_expiry;
  for (uint64_t t = 1; t <= options_.max_request_retries + 1; ++t) {
    size_t reports = 0;
    for (const Message& m : core().Expire(req.request_id, t).sends) {
      reports += m.type == MsgType::kDeadSite;
    }
    reports_per_expiry.push_back(reports);
  }
  // Retries 1..3, then exhaustion; retries from the second on report.
  EXPECT_EQ(reports_per_expiry, (std::vector<size_t>{0, 1, 1, 1}));
  static_assert(ClientCore::kReportDeadAfterRetries == 2);
}

TEST_F(ClientCoreTest, LateReplyAfterCompletionCountsStaleExactlyOnce) {
  const Message req = core().StartKeyOp(MsgType::kLookup, 4, {}, 0);
  const Message reply = ReplyTo(req);
  std::optional<ClientCore::Completion> done = core().OnReply(reply, 5);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->request_id, req.request_id);
  EXPECT_EQ(done->trace_id, req.trace_id);
  ASSERT_TRUE(done->reply.ok());
  EXPECT_EQ(core().stale_reply_count(), 0u);

  EXPECT_FALSE(core().OnReply(reply, 6).has_value());
  EXPECT_EQ(core().stale_reply_count(), 1u);
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(metrics_.counter("client.stale_replies").value(), 1u);
    EXPECT_EQ(metrics_.histogram("client.lookup_us").count(), 1u);
    EXPECT_EQ(metrics_.histogram("client.lookup_us").max(), 5u);
  }
}

TEST_F(ClientCoreTest, IamNeverShrinksTheImage) {
  const Message a = core().StartKeyOp(MsgType::kLookup, 1, {}, 0);
  const Message b = core().StartKeyOp(MsgType::kLookup, 2, {}, 0);
  // Level 4, address 2: i' = 3, n' = 3 — eleven buckets.
  ASSERT_TRUE(core().OnReply(WithIam(ReplyTo(a), 4, 2), 1).has_value());
  const FileImage grown = core().image();
  EXPECT_EQ(grown.BucketCount(), 11u);
  // A smaller image (level 2, address 0: i' = 1, n' = 1 — three buckets)
  // from a concurrent, staler path must not regress it.
  ASSERT_TRUE(core().OnReply(WithIam(ReplyTo(b), 2, 0), 2).has_value());
  EXPECT_EQ(core().image(), grown);
  EXPECT_EQ(core().iam_count(), 2u);
  EXPECT_EQ(metrics_.counter("client.iams").value(),
            obs::kMetricsEnabled ? 2u : 0u);
}

TEST_F(ClientCoreTest, DuplicateScanRepliesCollapseInBucketOrder) {
  // Grow the image to four buckets: level 2, address 1 wraps to i' = 2.
  const Message op = core().StartKeyOp(MsgType::kLookup, 1, {}, 0);
  ASSERT_TRUE(core().OnReply(WithIam(ReplyTo(op), 2, 1), 1).has_value());
  ASSERT_EQ(core().image().BucketCount(), 4u);

  const std::vector<Message> fanout = core().StartScan(3, ToBytes("arg"), 10);
  ASSERT_EQ(fanout.size(), 4u);
  for (uint64_t a = 0; a < fanout.size(); ++a) {
    EXPECT_EQ(fanout[a].type, MsgType::kScan);
    EXPECT_EQ(fanout[a].key, a);
    EXPECT_EQ(fanout[a].to, kFirstBucketSite + a);
    EXPECT_EQ(fanout[a].filter_id, 3u);
    EXPECT_EQ(fanout[a].filter_arg, ToBytes("arg"));
    EXPECT_EQ(fanout[a].request_id, fanout[0].request_id);
  }
  auto reply_from = [&](uint64_t bucket, uint64_t record_key) {
    Message r;
    r.type = MsgType::kScanReply;
    r.request_id = fanout[0].request_id;
    r.key = bucket;
    r.records.push_back({record_key, ToBytes(std::to_string(bucket))});
    return r;
  };
  // Out of order, with bucket 1 answering twice (a stale-ahead image after
  // merges): the first answer stands.
  for (const Message& r : {reply_from(3, 30), reply_from(1, 10),
                           reply_from(1, 11), reply_from(0, 0),
                           reply_from(2, 20)}) {
    EXPECT_FALSE(core().OnReply(r, 20).has_value());
  }
  EXPECT_EQ(core().scan_replies().size(), 4u);
  const ScanResult result = core().FinishScan(30);
  EXPECT_EQ(result.buckets_answered, 4u);
  std::vector<uint64_t> keys;
  for (const WireRecord& r : result.hits) keys.push_back(r.key);
  EXPECT_EQ(keys, (std::vector<uint64_t>{0, 10, 20, 30}));
  EXPECT_EQ(core().stale_reply_count(), 0u);

  // The scan is closed: a straggler is stale.
  EXPECT_FALSE(core().OnReply(reply_from(2, 20), 40).has_value());
  EXPECT_EQ(core().stale_reply_count(), 1u);
}

TEST_F(ClientCoreTest, TraceIdsAreClusterUniquePerClient) {
  const Message a = core().StartKeyOp(MsgType::kInsert, 1, {}, 0);
  const Message b = core().StartKeyOp(MsgType::kInsert, 2, {}, 0);
  EXPECT_NE(a.request_id, b.request_id);
  if (!obs::kMetricsEnabled) {
    EXPECT_EQ(a.trace_id, 0u);
    return;
  }
  EXPECT_EQ(a.trace_id >> 32, kClient);
  EXPECT_NE(a.trace_id, b.trace_id);
  EXPECT_EQ(core().last_trace_id(), b.trace_id);
}

}  // namespace
}  // namespace essdds::sdds
