#include <gtest/gtest.h>

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sdds/event_network.h"
#include "sdds/lh_system.h"
#include "tests/util/numbered_value.h"
#include "util/bytes.h"

namespace essdds::sdds {
namespace {

using obs::HopKind;

LhOptions EventOptions(uint64_t seed, double drop_prob) {
  LhOptions o;
  o.bucket_capacity = 16;
  o.network_mode = NetworkMode::kEvent;
  o.event_net.seed = seed;
  o.event_net.drop_prob = drop_prob;
  return o;
}

// ---------------------------------------------------------------------------
// Per-op latency histograms

TEST(ObsIntegrationTest, PerOpLatencyHistogramsPopulate) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  LhSystem sys(EventOptions(/*seed=*/42, /*drop_prob=*/0.0));
  const uint64_t filter = sys.InstallFilter(
      [](uint64_t, ByteSpan, ByteSpan) { return true; });
  LhClient* c = sys.NewClient();
  for (uint64_t k = 0; k < 40; ++k) c->Insert(k, test::NumberedValue(k));
  for (uint64_t k = 0; k < 40; ++k) ASSERT_TRUE(c->Lookup(k).ok());
  ASSERT_TRUE(c->Delete(7).ok());
  const LhClient::ScanResult scan = c->Scan(filter, {});
  EXPECT_EQ(scan.hits.size(), 39u);

  obs::MetricRegistry& m = sys.network().metrics();
  EXPECT_EQ(m.histogram("client.insert_us").count(), 40u);
  EXPECT_EQ(m.histogram("client.lookup_us").count(), 40u);
  EXPECT_EQ(m.histogram("client.delete_us").count(), 1u);
  EXPECT_EQ(m.histogram("client.scan_us").count(), 1u);
  // The event network charges at least one link latency per round trip, so
  // latencies are nonzero virtual microseconds.
  EXPECT_GT(m.histogram("client.lookup_us").Summarize().p50, 0u);
  EXPECT_GE(m.histogram("client.lookup_us").max(),
            m.histogram("client.lookup_us").Summarize().p50);
}

TEST(ObsIntegrationTest, ClientIamCounterMatchesIamCount) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  LhOptions o;
  o.bucket_capacity = 4;
  LhSystem sys(o);
  LhClient* writer = sys.NewClient();
  for (uint64_t k = 0; k < 200; ++k) writer->Insert(k, ToBytes("v"));
  ASSERT_GT(sys.bucket_count(), 8u);
  obs::MetricRegistry& m = sys.network().metrics();
  EXPECT_EQ(m.counter("client.iams").value(), writer->iam_count());

  // A fresh client starts with a one-bucket image: stale, repaired by IAMs
  // on its forwarded lookups, and each repair lands in the shared counter.
  sys.network().ResetStats();
  LhClient* reader = sys.NewClient();
  for (uint64_t k = 0; k < 200; ++k) ASSERT_TRUE(reader->Lookup(k).ok());
  EXPECT_GT(reader->iam_count(), 0u);
  EXPECT_EQ(m.counter("client.iams").value(), reader->iam_count());
}

TEST(ObsIntegrationTest, PerSiteSendCountersSumToNetworkTotals) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  LhSystem sys(EventOptions(/*seed=*/7, /*drop_prob=*/0.0));
  LhClient* c = sys.NewClient();
  for (uint64_t k = 0; k < 60; ++k) c->Insert(k, test::NumberedValue(k));
  sys.network().PumpUntilIdle();

  obs::MetricRegistry& m = sys.network().metrics();
  uint64_t msgs = 0, bytes = 0;
  for (SiteId s = 0; s < sys.network().site_count(); ++s) {
    msgs += m.counter("net.site." + std::to_string(s) + ".msgs_sent").value();
    bytes +=
        m.counter("net.site." + std::to_string(s) + ".bytes_sent").value();
  }
  EXPECT_EQ(msgs, sys.network().stats().total_messages);
  EXPECT_EQ(bytes, sys.network().stats().total_bytes);
}

TEST(ObsIntegrationTest, PerBucketRecordGaugesTrackContents) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  LhOptions o;
  o.bucket_capacity = 64;  // no split: everything stays in bucket 0
  LhSystem sys(o);
  LhClient* c = sys.NewClient();
  for (uint64_t k = 0; k < 5; ++k) c->Insert(k, test::NumberedValue(k));
  EXPECT_EQ(sys.network().metrics().gauge("bucket.0.records").value(), 5);
  ASSERT_TRUE(c->Delete(3).ok());
  EXPECT_EQ(sys.network().metrics().gauge("bucket.0.records").value(), 4);
}

TEST(ObsIntegrationTest, ScanBatchHistogramsRecordInDeferredMode) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  LhOptions o;
  o.bucket_capacity = 8;
  o.scan_threads = 4;
  LhSystem sys(o);
  const uint64_t filter = sys.InstallFilter(
      [](uint64_t, ByteSpan, ByteSpan) { return true; });
  LhClient* c = sys.NewClient();
  for (uint64_t k = 0; k < 40; ++k) c->Insert(k, test::NumberedValue(k));
  const LhClient::ScanResult scan = c->Scan(filter, {});
  EXPECT_EQ(scan.hits.size(), 40u);

  obs::MetricRegistry& m = sys.network().metrics();
  ASSERT_GE(m.histogram("scan.batch_tasks").count(), 1u);
  EXPECT_GE(m.histogram("scan.batch_tasks").max(),
            static_cast<uint64_t>(scan.buckets_answered));
}

// ---------------------------------------------------------------------------
// Acceptance: 50-seed sweep, fault-injected tail visibly fatter

TEST(ObsIntegrationTest, FaultInjectionFattensLatencyTailAcrossFiftySeeds) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  constexpr int kSeeds = 50;
  constexpr uint64_t kOps = 30;
  obs::Histogram clean_lookup, faulty_lookup;
  obs::Histogram clean_scan, faulty_scan;
  uint64_t faulty_retries = 0;

  for (int seed = 1; seed <= kSeeds; ++seed) {
    for (const double drop : {0.0, 0.15}) {
      LhSystem sys(EventOptions(static_cast<uint64_t>(seed), drop));
      const uint64_t filter = sys.InstallFilter(
          [](uint64_t, ByteSpan, ByteSpan) { return true; });
      LhClient* c = sys.NewClient();
      for (uint64_t k = 0; k < kOps; ++k) c->Insert(k, test::NumberedValue(k));
      for (uint64_t k = 0; k < kOps; ++k) ASSERT_TRUE(c->Lookup(k).ok());
      const LhClient::ScanResult scan = c->Scan(filter, {});
      ASSERT_EQ(scan.hits.size(), kOps);

      obs::MetricRegistry& m = sys.network().metrics();
      if (drop == 0.0) {
        clean_lookup.MergeFrom(m.histogram("client.lookup_us"));
        clean_scan.MergeFrom(m.histogram("client.scan_us"));
        EXPECT_EQ(m.counter("client.retries").value(), 0u)
            << "seed " << seed << ": fault-free run retried";
      } else {
        faulty_lookup.MergeFrom(m.histogram("client.lookup_us"));
        faulty_scan.MergeFrom(m.histogram("client.scan_us"));
        faulty_retries += m.counter("client.retries").value();
      }
    }
  }

  const obs::Histogram::Summary cl = clean_lookup.Summarize();
  const obs::Histogram::Summary fl = faulty_lookup.Summarize();
  const obs::Histogram::Summary cs = clean_scan.Summarize();
  const obs::Histogram::Summary fs = faulty_scan.Summarize();
  // The per-op latency report the issue asks the sweep to produce.
  std::cout << "lookup_us fault-free: p50=" << cl.p50 << " p95=" << cl.p95
            << " p99=" << cl.p99 << " max=" << cl.max << " n=" << cl.count
            << "\nlookup_us drop=0.15: p50=" << fl.p50 << " p95=" << fl.p95
            << " p99=" << fl.p99 << " max=" << fl.max << " n=" << fl.count
            << "\nscan_us   fault-free: p50=" << cs.p50 << " p95=" << cs.p95
            << " p99=" << cs.p99 << " max=" << cs.max
            << "\nscan_us   drop=0.15: p50=" << fs.p50 << " p95=" << fs.p95
            << " p99=" << fs.p99 << " max=" << fs.max
            << "\nretries(faulty)=" << faulty_retries << "\n";

  ASSERT_EQ(cl.count, uint64_t{kSeeds} * kOps);
  ASSERT_EQ(fl.count, uint64_t{kSeeds} * kOps);
  EXPECT_GT(faulty_retries, 0u);
  // A dropped request or reply costs at least one extra round trip (the
  // client detects the loss when the network idles and retransmits), so
  // retried ops accumulate strictly more link latency than any clean op.
  EXPECT_GT(fl.p99, cl.p99) << "retries should fatten the lookup tail";
  EXPECT_GT(fl.p99, cl.max)
      << "faulty p99 should exceed even the fault-free worst case";
  EXPECT_LT(cl.p99, 100'000u) << "fault-free lookups never wait on a timeout";
}

// ---------------------------------------------------------------------------
// Causal hop traces

TEST(ObsIntegrationTest, ScriptedDropLeavesCompleteCausalTrace) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  LhSystem sys(EventOptions(/*seed=*/3, /*drop_prob=*/0.0));
  LhClient* c = sys.NewClient();
  c->Insert(5, test::NumberedValue(5));
  sys.network().PumpUntilIdle();

  // Deterministically lose the first lookup's reply: the client must time
  // out, retransmit, and accept the retry's reply — and the trace ring must
  // hold that whole causal chain under the op's trace id.
  sys.event_network()->ScriptDrop(MsgType::kLookupReply, 1);
  ASSERT_TRUE(c->Lookup(5).ok());
  EXPECT_EQ(c->retry_count(), 1u);

  const uint64_t id = c->last_trace_id();
  ASSERT_NE(id, 0u);
  const std::vector<obs::TraceEvent> hops =
      sys.network().trace().Snapshot(id);
  auto count = [&hops](HopKind kind) {
    size_t n = 0;
    for (const obs::TraceEvent& ev : hops) n += ev.kind == kind;
    return n;
  };
  EXPECT_EQ(count(HopKind::kOpStart), 1u);
  EXPECT_EQ(count(HopKind::kDrop), 1u);
  EXPECT_EQ(count(HopKind::kRetry), 1u);
  EXPECT_EQ(count(HopKind::kOpDone), 1u);
  // request + dropped reply + retransmission + accepted reply.
  EXPECT_GE(count(HopKind::kSend), 4u);
  EXPECT_GE(count(HopKind::kDeliver), 3u);
  // Causal order: start before the drop, the drop before the retry, the
  // retry before completion.
  auto first = [&hops](HopKind kind) {
    for (size_t i = 0; i < hops.size(); ++i) {
      if (hops[i].kind == kind) return i;
    }
    return hops.size();
  };
  EXPECT_LT(first(HopKind::kOpStart), first(HopKind::kDrop));
  EXPECT_LT(first(HopKind::kDrop), first(HopKind::kRetry));
  EXPECT_LT(first(HopKind::kRetry), first(HopKind::kOpDone));

  // The human-readable dump renders the same chain.
  const std::string dump = sys.network().TraceDump(id);
  for (const char* needle :
       {"op-start", "send", "drop", "retry", "deliver", "op-done",
        "Lookup", "LookupReply"}) {
    EXPECT_NE(dump.find(needle), std::string::npos)
        << "dump lacks \"" << needle << "\":\n"
        << dump;
  }
}

// ---------------------------------------------------------------------------
// Slow-op log lines

// Routes structured log lines into a string, unthrottled, for one scope.
class LogCapture {
 public:
  LogCapture() {
    obs::EventLog::Global().set_capture(&lines_);
    obs::EventLog::Global().set_rate_limit_per_sec(0);
  }
  ~LogCapture() {
    obs::EventLog::Global().set_capture(nullptr);
    obs::EventLog::Global().set_rate_limit_per_sec(20);
  }
  std::string& lines() { return lines_; }

 private:
  std::string lines_;
};

size_t CountOccurrences(const std::string& haystack, const std::string& s) {
  size_t n = 0;
  for (size_t at = haystack.find(s); at != std::string::npos;
       at = haystack.find(s, at + 1)) {
    ++n;
  }
  return n;
}

// Every link takes exactly 1000 virtual us, so each round trip takes 2000.
LhOptions FixedLatencyOptions(uint64_t slow_op_us) {
  LhOptions o = EventOptions(/*seed=*/5, /*drop_prob=*/0.0);
  o.event_net.min_latency_us = o.event_net.max_latency_us = 1000;
  o.slow_op_us = slow_op_us;
  return o;
}

TEST(ObsIntegrationTest, SlowOpEmitsOneLineCarryingItsTraceId) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  LhSystem sys(FixedLatencyOptions(/*slow_op_us=*/1500));
  LhClient* c = sys.NewClient();
  LogCapture capture;
  c->Insert(5, test::NumberedValue(5));
  sys.network().PumpUntilIdle();
  capture.lines().clear();

  ASSERT_TRUE(c->Lookup(5).ok());
  const uint64_t id = c->last_trace_id();
  ASSERT_NE(id, 0u);
  const std::string& log = capture.lines();
  EXPECT_EQ(CountOccurrences(log, "\"event\":\"slow_op\""), 1u) << log;
  EXPECT_EQ(CountOccurrences(log, "\"op\":\"Lookup\""), 1u) << log;
  EXPECT_EQ(CountOccurrences(log, "\"trace_id\":" + std::to_string(id)), 1u)
      << log;
}

TEST(ObsIntegrationTest, SlowOpThresholdZeroEmitsNothing) {
  LhSystem sys(FixedLatencyOptions(/*slow_op_us=*/0));
  LhClient* c = sys.NewClient();
  LogCapture capture;
  c->Insert(5, test::NumberedValue(5));
  ASSERT_TRUE(c->Lookup(5).ok());
  sys.network().PumpUntilIdle();
  EXPECT_EQ(CountOccurrences(capture.lines(), "slow_op"), 0u)
      << capture.lines();
}

TEST(ObsIntegrationTest, SplitTriggeredByInsertCarriesItsTraceId) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  LhOptions o;
  o.bucket_capacity = 4;  // overflow quickly
  LhSystem sys(o);
  LhClient* c = sys.NewClient();
  uint64_t k = 0;
  while (sys.network().metrics().counter("coord.splits").value() == 0) {
    ASSERT_LT(k, 100u) << "no split after 100 inserts";
    c->Insert(k, test::NumberedValue(k));
    ++k;
  }
  // Synchronous network: the whole overflow -> split -> move chain ran
  // inside the insert that tipped the bucket, under that insert's trace id.
  const uint64_t id = c->last_trace_id();
  ASSERT_NE(id, 0u);
  const std::vector<obs::TraceEvent> hops =
      sys.network().trace().Snapshot(id);
  auto saw_type = [&hops](MsgType t) {
    for (const obs::TraceEvent& ev : hops) {
      if (ev.msg_type == static_cast<uint8_t>(t)) return true;
    }
    return false;
  };
  EXPECT_TRUE(saw_type(MsgType::kInsert));
  EXPECT_TRUE(saw_type(MsgType::kOverflow));
  EXPECT_TRUE(saw_type(MsgType::kSplit));
  EXPECT_TRUE(saw_type(MsgType::kTransfer));
  EXPECT_TRUE(saw_type(MsgType::kTransferAck));
  EXPECT_TRUE(saw_type(MsgType::kSplitDone));
  EXPECT_EQ(sys.bucket_count(), 2u);
}

// ---------------------------------------------------------------------------
// Reset semantics and exports

TEST(ObsIntegrationTest, ResetStatsGivesPhaseLocalNumbers) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  LhSystem sys(EventOptions(/*seed=*/11, /*drop_prob=*/0.0));
  LhClient* c = sys.NewClient();

  // Phase 1: inserts only.
  for (uint64_t k = 0; k < 20; ++k) c->Insert(k, test::NumberedValue(k));
  sys.network().PumpUntilIdle();
  ASSERT_EQ(sys.network().metrics().histogram("client.insert_us").count(),
            20u);
  ASSERT_GT(sys.network().stats().total_messages, 0u);

  // The one reset point zeroes the flat stats, the registry, and the ring.
  sys.network().ResetStats();
  EXPECT_EQ(sys.network().stats().total_messages, 0u);
  EXPECT_EQ(sys.network().metrics().histogram("client.insert_us").count(),
            0u);
  EXPECT_EQ(sys.network().trace().size(), 0u);

  // Phase 2: lookups only — the numbers must describe just this phase,
  // through the instrument references sites cached before the reset.
  for (uint64_t k = 0; k < 20; ++k) ASSERT_TRUE(c->Lookup(k).ok());
  obs::MetricRegistry& m = sys.network().metrics();
  EXPECT_EQ(m.histogram("client.insert_us").count(), 0u);
  EXPECT_EQ(m.histogram("client.lookup_us").count(), 20u);
  const NetworkStats& s = sys.network().stats();
  EXPECT_EQ(s.per_type.count(MsgType::kInsert), 0u);
  EXPECT_EQ(s.per_type.at(MsgType::kLookup), 20u);
  EXPECT_GT(sys.network().trace().size(), 0u);
}

TEST(ObsIntegrationTest, NetworkStatsToJsonCarriesAllCounters) {
  LhSystem sys;
  LhClient* c = sys.NewClient();
  c->Insert(1, test::NumberedValue(1));
  ASSERT_TRUE(c->Lookup(1).ok());
  const std::string json = sys.network().stats().ToJson();
  for (const char* needle :
       {"\"total_messages\":4", "\"total_bytes\":", "\"forwarded_messages\":0",
        "\"dropped_messages\":0", "\"retried_messages\":0", "\"per_type\":",
        "\"Insert\":1", "\"LookupReply\":1"}) {
    EXPECT_NE(json.find(needle), std::string::npos)
        << "missing " << needle << " in " << json;
  }
}

TEST(ObsIntegrationTest, RegistryToJsonExportsClientHistograms) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  LhSystem sys;
  LhClient* c = sys.NewClient();
  c->Insert(1, test::NumberedValue(1));
  const std::string json = sys.network().metrics().ToJson();
  EXPECT_NE(json.find("\"client.insert_us\""), std::string::npos);
  EXPECT_NE(json.find("\"bucket.0.records\""), std::string::npos);
  EXPECT_NE(json.find("\"net.site."), std::string::npos);
}

}  // namespace
}  // namespace essdds::sdds
