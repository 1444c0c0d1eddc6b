// Interleaving-exploration harness: drives identical randomized workloads
// (insert / lookup / delete / scan mixes from two clients) through the
// synchronous SimNetwork and the discrete-event EventNetwork across many
// seeds, asserting that every run converges and that the event runs produce
// results equivalent to the synchronous baseline. Any failure prints the
// workload seed; replaying that seed reproduces the exact schedule, because
// both the workload generator and the network draw from seeded generators
// and no wall-clock time is involved.

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/trace.h"
#include "sdds/event_network.h"
#include "sdds/lh_system.h"
#include "util/bytes.h"
#include "util/random.h"

namespace essdds::sdds {
namespace {

struct OpRecord {
  char kind = '?';  // 'i'nsert, 'l'ookup, 'd'elete, 's'can
  uint64_t key = 0;
  bool flag = false;  // insert: replaced; lookup: found; delete: found
  Bytes value;        // lookup result when found
  std::vector<std::pair<uint64_t, Bytes>> hits;  // scan hits, sorted by key

  friend bool operator==(const OpRecord&, const OpRecord&) = default;
};

struct WorkloadResult {
  std::vector<OpRecord> ops;
  std::map<uint64_t, Bytes> contents;  // final records, merged over buckets
  uint64_t retries = 0;
  uint64_t iams = 0;
  NetworkStats stats;
  /// Snapshot of the run's trace ring (empty with metrics compiled out);
  /// failure messages render its tail so a failing seed ships its own
  /// causal history.
  std::vector<obs::TraceEvent> trace;
};

/// Formats the last `n` recorded hops for a failure message. The assertion
/// macros evaluate their streamed message only on failure, so passing seeds
/// never pay for the formatting.
std::string TraceTail(const std::vector<obs::TraceEvent>& trace,
                      size_t n = 48) {
  if (!obs::kMetricsEnabled) return "\n(trace ring compiled out)";
  std::string out = "\ntrace ring tail (last " +
                    std::to_string(std::min(n, trace.size())) + " of " +
                    std::to_string(trace.size()) + " hops):\n";
  const size_t start = trace.size() > n ? trace.size() - n : 0;
  for (size_t i = start; i < trace.size(); ++i) {
    out += "  " + obs::FormatTraceEvent(trace[i], [](uint8_t t) {
      return MsgTypeToString(static_cast<MsgType>(t));
    }) + "\n";
  }
  return out;
}

constexpr size_t kDefaultOps = 120;

/// The shared workload shape: small buckets force frequent splits, an
/// aggressive merge threshold forces shrinking, and a 96-key space makes
/// overwrite / delete-miss / re-insert patterns common.
LhOptions BaseOptions() {
  LhOptions o;
  o.bucket_capacity = 8;
  o.merge_threshold = 0.4;
  return o;
}

std::map<uint64_t, Bytes> Contents(const LhSystem& sys) {
  std::map<uint64_t, Bytes> all;
  for (uint64_t b = 0; b < sys.bucket_count(); ++b) {
    for (const auto& [k, v] : sys.bucket(b).records()) {
      all.emplace(k, v);
    }
  }
  return all;
}

/// Runs `nops` seeded operations against a fresh LhSystem built from
/// `options`. The op sequence depends only on `seed`, never on the network
/// mode, so a sync and an event run with the same seed perform the very
/// same application-level work.
WorkloadResult RunWorkload(LhOptions options, uint64_t seed,
                           size_t nops = kDefaultOps) {
  LhSystem sys(options);
  const uint64_t filter =
      sys.InstallFilter([](uint64_t key, ByteSpan, ByteSpan arg) {
        return !arg.empty() && key % 3 == static_cast<uint64_t>(arg[0]) % 3;
      });
  LhClient* clients[2] = {sys.NewClient(), sys.NewClient()};

  Rng rng(seed ^ 0x77073096ee0e612cULL);
  WorkloadResult out;
  out.ops.reserve(nops);
  for (size_t i = 0; i < nops; ++i) {
    LhClient* c = clients[rng.Uniform(2)];
    OpRecord rec;
    rec.key = 1 + rng.Uniform(96);
    const uint64_t pick = rng.Uniform(100);
    if (pick < 55) {
      rec.kind = 'i';
      rec.flag = c->Insert(
          rec.key,
          ToBytes("v" + std::to_string(rec.key) + "-" + std::to_string(i)));
    } else if (pick < 75) {
      rec.kind = 'l';
      auto r = c->Lookup(rec.key);
      rec.flag = r.ok();
      if (r.ok()) rec.value = *std::move(r);
    } else if (pick < 90) {
      rec.kind = 'd';
      rec.flag = c->Delete(rec.key).ok();
    } else {
      rec.kind = 's';
      auto scan = c->Scan(filter, Bytes(1, static_cast<uint8_t>(i % 3)));
      rec.hits.reserve(scan.hits.size());
      for (WireRecord& h : scan.hits) {
        rec.hits.emplace_back(h.key, std::move(h.value));
      }
      std::sort(rec.hits.begin(), rec.hits.end());
    }
    out.ops.push_back(std::move(rec));
  }

  // Convergence: drain whatever restructuring traffic is still in flight.
  sys.network().PumpUntilIdle();
  out.contents = Contents(sys);
  out.retries = clients[0]->retry_count() + clients[1]->retry_count();
  out.iams = clients[0]->iam_count() + clients[1]->iam_count();
  out.stats = sys.network().stats();
  out.trace = sys.network().trace().Snapshot();

  // Post-convergence self-consistency, regardless of mode or faults: the
  // merged bucket contents are exactly what a fresh client can read back.
  EXPECT_EQ(sys.TotalRecords(), out.contents.size())
      << "replay: workload seed " << seed << TraceTail(out.trace);
  LhClient* probe = sys.NewClient();
  for (const auto& [k, v] : out.contents) {
    auto r = probe->Lookup(k);
    EXPECT_TRUE(r.ok() && *r == v)
        << "key " << k << " unreadable after convergence; replay: workload "
        << "seed " << seed << TraceTail(sys.network().trace().Snapshot());
  }
  return out;
}

/// Asserts per-operation result equality. Used for fault-free comparisons,
/// where the event schedule must not change any application-visible result.
void ExpectSameResults(const WorkloadResult& sync, const WorkloadResult& ev,
                       uint64_t seed, const char* config) {
  ASSERT_EQ(sync.ops.size(), ev.ops.size());
  for (size_t i = 0; i < sync.ops.size(); ++i) {
    ASSERT_TRUE(sync.ops[i] == ev.ops[i])
        << "op " << i << " (kind '" << sync.ops[i].kind << "', key "
        << sync.ops[i].key << ") diverged under " << config
        << "; replay: workload seed " << seed << TraceTail(ev.trace);
  }
  ASSERT_TRUE(sync.contents == ev.contents)
      << "final contents diverged under " << config
      << "; replay: workload seed " << seed << TraceTail(ev.trace);
}

// Tentpole sweep: 200 seeds, fault-free event network. Every
// application-visible result — insert replaced flags, lookup outcomes and
// values, delete outcomes, scan hit sets, final contents — must be
// byte-identical to the synchronous baseline, even though splits and merges
// now stay in flight across operations and messages reorder across links.
TEST(InterleavingTest, TwoHundredSeedsMatchSynchronousBaseline) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("workload seed " + std::to_string(seed));
    WorkloadResult sync = RunWorkload(BaseOptions(), seed);

    LhOptions ev = BaseOptions();
    ev.network_mode = NetworkMode::kEvent;
    ev.event_net.seed = seed;
    WorkloadResult event = RunWorkload(ev, seed);

    ExpectSameResults(sync, event, seed, "event network (fault-free)");
    ASSERT_EQ(event.retries, 0u)
        << "fault-free run retried; replay: workload seed " << seed;
  }
}

// Without the FIFO-link guarantee even same-link messages reorder (UDP-like
// delivery). The protocol must still produce identical results.
TEST(InterleavingTest, NonFifoLinksStillMatchBaseline) {
  for (uint64_t seed = 300; seed < 350; ++seed) {
    SCOPED_TRACE("workload seed " + std::to_string(seed));
    WorkloadResult sync = RunWorkload(BaseOptions(), seed);

    LhOptions ev = BaseOptions();
    ev.network_mode = NetworkMode::kEvent;
    ev.event_net.seed = seed;
    ev.event_net.fifo_links = false;
    ev.event_net.min_latency_us = 1;
    ev.event_net.max_latency_us = 5000;
    WorkloadResult event = RunWorkload(ev, seed);

    ExpectSameResults(sync, event, seed, "non-FIFO event network");
  }
}

// Thread-pool scans riding the event network over a second seed band:
// splits and merges stay in flight across the scans' deferred tasks, which
// the buckets resolve before mutating. 21 seeds must still match the serial
// synchronous baseline bit for bit — scan hit sets, per-op flags, and final
// contents.
TEST(InterleavingTest, ThreadedScansOnSecondSeedBandMatchBaseline) {
  for (uint64_t seed = 700; seed <= 720; ++seed) {
    SCOPED_TRACE("workload seed " + std::to_string(seed));
    WorkloadResult sync = RunWorkload(BaseOptions(), seed);

    LhOptions ev = BaseOptions();
    ev.scan_threads = 4;
    ev.network_mode = NetworkMode::kEvent;
    ev.event_net.seed = seed;
    WorkloadResult event = RunWorkload(ev, seed);

    ExpectSameResults(sync, event, seed,
                      "thread-pool scans on the event network");
  }
}

// Fault sweep: drops and duplicates on client key traffic. The runs must
// complete (no CHECK crash, every op eventually answered via retries) and
// converge to a self-consistent file — RunWorkload itself verifies that a
// fresh client can read back every record after quiescence. Per-op flags
// are exempt here: a duplicated delete legitimately reports NotFound on its
// second execution, a retried insert legitimately reports "replaced".
TEST(InterleavingTest, FaultInjectionSweepConvergesViaRetries) {
  uint64_t total_dropped = 0;
  uint64_t total_duplicated = 0;
  uint64_t total_retried = 0;
  for (uint64_t seed = 1000; seed < 1100; ++seed) {
    SCOPED_TRACE("workload seed " + std::to_string(seed));
    LhOptions ev = BaseOptions();
    ev.network_mode = NetworkMode::kEvent;
    ev.event_net.seed = seed;
    ev.event_net.drop_prob = 0.08;
    ev.event_net.duplicate_prob = 0.08;
    WorkloadResult event = RunWorkload(ev, seed, /*nops=*/150);

    // Every scan's hit set must be consistent with the filter predicate —
    // scan traffic is never dropped, so no hit can be lost to a fault.
    for (size_t i = 0; i < event.ops.size(); ++i) {
      if (event.ops[i].kind != 's') continue;
      for (const auto& hit : event.ops[i].hits) {
        ASSERT_EQ(hit.first % 3, static_cast<uint64_t>(i % 3))
            << "scan hit violates the predicate; replay: workload seed "
            << seed;
      }
    }
    total_dropped += event.stats.dropped_messages;
    total_duplicated += event.stats.duplicated_messages;
    total_retried += event.stats.retried_messages;
    ASSERT_GE(event.retries, 0u);
  }
  // With p=0.08 over ~100 runs the sweep must have exercised every fault
  // path; a zero here means the knobs are dead.
  EXPECT_GT(total_dropped, 0u);
  EXPECT_GT(total_duplicated, 0u);
  EXPECT_GT(total_retried, 0u);
}

// Scan evaluation on a thread pool under the event network — the target of
// the ThreadSanitizer CI leg. One shared ScanFilter::Prepared per scan is
// driven concurrently by the workers, so this sweep is what would light up
// any unsynchronized per-scan state.
TEST(InterleavingTest, ThreadedScansUnderEventNetworkMatchBaseline) {
  for (uint64_t seed = 500; seed < 520; ++seed) {
    SCOPED_TRACE("workload seed " + std::to_string(seed));
    WorkloadResult sync = RunWorkload(BaseOptions(), seed);

    LhOptions ev = BaseOptions();
    ev.scan_threads = 4;
    ev.network_mode = NetworkMode::kEvent;
    ev.event_net.seed = seed;
    WorkloadResult event = RunWorkload(ev, seed);

    ExpectSameResults(sync, event, seed, "event network + 4 scan threads");
  }
}

// The replay guarantee itself: the same (workload seed, net seed) pair must
// reproduce the run bit-for-bit — results, contents, message counts, fault
// decisions. This is what makes a printed failing seed actionable.
TEST(InterleavingTest, SameSeedReplaysBitForBit) {
  for (uint64_t seed : {7u, 42u, 1234u}) {
    SCOPED_TRACE("workload seed " + std::to_string(seed));
    LhOptions ev = BaseOptions();
    ev.network_mode = NetworkMode::kEvent;
    ev.event_net.seed = seed;
    ev.event_net.drop_prob = 0.05;
    ev.event_net.duplicate_prob = 0.05;
    WorkloadResult a = RunWorkload(ev, seed, /*nops=*/150);
    WorkloadResult b = RunWorkload(ev, seed, /*nops=*/150);
    ASSERT_TRUE(a.ops == b.ops);
    ASSERT_TRUE(a.contents == b.contents);
    ASSERT_EQ(a.retries, b.retries);
    ASSERT_TRUE(a.stats == b.stats);
  }
}

}  // namespace
}  // namespace essdds::sdds
