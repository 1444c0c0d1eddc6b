// ColumnStore battery: the bucket's record store must track a std::map
// model through arbitrary upsert/erase sequences and bulk adopt/extract
// batches byte for byte, answer key lookups exactly as the model does, keep
// its arena bounded by compaction, and hold exactly the client's records —
// each in the bucket it routes to — across the full LH* lifecycle of
// splits, merges, and bulk transfers.

#include "sdds/column_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "sdds/lh_system.h"
#include "util/random.h"

namespace essdds::sdds {
namespace {

Bytes Val(uint64_t k) { return ToBytes("value-" + std::to_string(k)); }

Bytes RandomPayload(Rng& rng, size_t max_len) {
  Bytes b(rng.Uniform(max_len + 1));
  for (auto& x : b) x = static_cast<uint8_t>(rng.Uniform(256));
  return b;
}

/// Succeeds when `store` holds exactly `model`, byte for byte, in ascending
/// key order.
testing::AssertionResult Holds(const ColumnStore& store,
                               const std::map<uint64_t, Bytes>& model) {
  if (store.size() != model.size()) {
    return testing::AssertionFailure()
           << "store holds " << store.size() << " records, model "
           << model.size();
  }
  auto it = model.begin();
  for (const auto& [key, value] : store) {
    if (key != it->first) {
      return testing::AssertionFailure()
             << "key " << key << " where the model has " << it->first;
    }
    if (!std::ranges::equal(value, it->second)) {
      return testing::AssertionFailure() << "payload of key " << key;
    }
    ++it;
  }
  return testing::AssertionSuccess();
}

uint64_t LiveBytes(const std::map<uint64_t, Bytes>& model) {
  uint64_t live = 0;
  for (const auto& [k, v] : model) live += v.size();
  return live;
}

TEST(ColumnStoreTest, EmptyStoreMirrorsEmptyMap) {
  ColumnStore store;
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(Holds(store, {}));
  const ColumnSlice s = store.slice();
  EXPECT_EQ(s.count, 0u);
}

TEST(ColumnStoreTest, UpsertKeepsAscendingKeyOrder) {
  ColumnStore store;
  for (uint64_t k : {7u, 3u, 9u, 1u, 5u}) store.Upsert(k, Val(k));
  ASSERT_EQ(store.size(), 5u);
  for (size_t i = 1; i < store.size(); ++i) {
    EXPECT_LT(store.key(i - 1), store.key(i));
  }
  const ColumnSlice s = store.slice();
  for (size_t i = 0; i < s.count; ++i) {
    const ByteSpan p = s.payload(i);
    const Bytes expected = Val(s.keys[i]);
    ASSERT_EQ(p.size(), expected.size());
    EXPECT_TRUE(std::equal(p.begin(), p.end(), expected.begin()));
  }
}

TEST(ColumnStoreTest, SameSizeReplaceGrowsNoWaste) {
  ColumnStore store;
  store.Upsert(1, ToBytes("aaaa"));
  store.Upsert(1, ToBytes("bbbb"));
  EXPECT_EQ(store.waste_bytes(), 0u);
  const ByteSpan p = store.payload(0);
  EXPECT_EQ(std::string(p.begin(), p.end()), "bbbb");
}

TEST(ColumnStoreTest, ResizeReplaceAccountsWasteAndCompacts) {
  ColumnStore store;
  store.Upsert(1, ToBytes("short"));
  store.Upsert(1, ToBytes("rather-longer-payload"));
  // The 5 old bytes are dead until compaction reclaims them.
  std::map<uint64_t, Bytes> expected{{1, ToBytes("rather-longer-payload")}};
  EXPECT_TRUE(Holds(store, expected));
  // Alternate two sizes: compaction must keep the arena within 2x the live
  // volume instead of growing without bound.
  for (int i = 0; i < 1000; ++i) {
    store.Upsert(1, i % 2 ? ToBytes("short") : ToBytes("rather-longer-payload"));
  }
  EXPECT_LE(store.waste_bytes(), 2 * ToBytes("rather-longer-payload").size());
}

TEST(ColumnStoreTest, EraseMissingKeyIsNoop) {
  ColumnStore store;
  store.Upsert(2, Val(2));
  store.Erase(99);
  EXPECT_TRUE(Holds(store, {{2, Val(2)}}));
}

TEST(ColumnStoreTest, ErasingLastRecordReleasesArena) {
  ColumnStore store;
  store.Upsert(1, Val(1));
  store.Upsert(2, Val(2));
  store.Erase(1);
  store.Erase(2);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.waste_bytes(), 0u);
  EXPECT_TRUE(Holds(store, {}));
}

TEST(ColumnStoreTest, EmptyPayloadsRoundTrip) {
  ColumnStore store;
  store.Upsert(1, Bytes{});
  store.Upsert(2, Val(2));
  store.Upsert(3, Bytes{});
  std::map<uint64_t, Bytes> expected{{1, {}}, {2, Val(2)}, {3, {}}};
  EXPECT_TRUE(Holds(store, expected));
  EXPECT_EQ(store.slice().payload(0).size(), 0u);
}

TEST(ColumnStoreTest, RandomOpSequenceMirrorsMap) {
  // Property: after any interleaving of upserts (random sizes, including
  // same-key replacements that churn the arena) and erases, the store holds
  // exactly the map's content in key order.
  Rng rng(32);
  for (int trial = 0; trial < 20; ++trial) {
    ColumnStore store;
    std::map<uint64_t, Bytes> model;
    for (int op = 0; op < 500; ++op) {
      const uint64_t key = rng.Uniform(64);  // small space: frequent replaces
      if (rng.Bernoulli(0.3) && !model.empty()) {
        store.Erase(key);
        model.erase(key);
      } else {
        Bytes payload = RandomPayload(rng, 64);
        store.Upsert(key, payload);
        model[key] = std::move(payload);
      }
    }
    ASSERT_TRUE(Holds(store, model)) << "trial " << trial;
  }
}

TEST(ColumnStoreTest, AllDeadArenaBoundaryStaysConsistent) {
  // Shrinking every record to a zero-length payload drives the store to the
  // waste_bytes == arena_bytes boundary: the arena is 100% dead bytes while
  // live (empty) entries still exist. The compaction threshold must treat
  // the live volume as 0 here — not underflow — and the next append must
  // compact the dead bytes away.
  ColumnStore store;
  std::map<uint64_t, Bytes> m;
  store.Upsert(1, ToBytes("xxxx"));
  store.Upsert(2, ToBytes("yyyy"));
  m[1] = {};
  m[2] = {};
  store.Upsert(1, {});
  store.Upsert(2, {});
  EXPECT_EQ(store.waste_bytes(), store.arena_bytes()) << "not at the boundary";
  EXPECT_TRUE(Holds(store, m));

  // An append at the boundary sees threshold waste >= 0 + payload and
  // compacts; nothing is live, so the arena collapses to just the new bytes.
  store.Upsert(3, ToBytes("zz"));
  m[3] = ToBytes("zz");
  EXPECT_EQ(store.waste_bytes(), 0u);
  EXPECT_EQ(store.arena_bytes(), 2u);
  EXPECT_TRUE(Holds(store, m));
}

TEST(ColumnStoreTest, WastePlusLiveAlwaysEqualsArena) {
  // The accounting invariant the compaction threshold's unsigned arithmetic
  // rests on: waste + (sum of live payload lengths) == arena size, after
  // every mutation — including zero-length payloads, same-size in-place
  // replaces, and erases.
  Rng rng(55);
  ColumnStore store;
  std::map<uint64_t, Bytes> m;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t key = rng.Uniform(64);
    if (!m.empty() && rng.Bernoulli(0.3)) {
      store.Erase(key);
      m.erase(key);
    } else {
      Bytes payload = RandomPayload(rng, 24);  // empty ~1/25 of the time
      store.Upsert(key, ByteSpan(payload));
      m[key] = std::move(payload);
    }
    ASSERT_EQ(store.waste_bytes() + LiveBytes(m), store.arena_bytes())
        << "invariant broken after op " << i;
  }
  EXPECT_TRUE(Holds(store, m));
}

TEST(ColumnStoreTest, AlternatingReplaceSizesStayBounded) {
  // One key flip-flopping between two payload sizes must not grow the arena
  // without bound: the compaction threshold charges the incoming payload,
  // so the arena stays within 2x live volume + one payload.
  ColumnStore store;
  const Bytes big(100, 0xAA);
  const Bytes small(50, 0xBB);
  for (int i = 0; i < 500; ++i) {
    store.Upsert(7, ByteSpan(i % 2 == 0 ? big : small));
    ASSERT_LE(store.arena_bytes(), 2 * 100u + 100u) << "iteration " << i;
  }
  EXPECT_EQ(store.size(), 1u);
}

TEST(ColumnStoreTest, LookupMatchesMapModel) {
  // Property: after every op of a random upsert/erase sequence (zero-length
  // payloads included), Lookup answers every key of the space — present or
  // absent — exactly as the model's find does.
  Rng rng(36);
  ColumnStore store;
  std::map<uint64_t, Bytes> model;
  for (int op = 0; op < 600; ++op) {
    const uint64_t key = rng.Uniform(48);
    if (rng.Bernoulli(0.3)) {
      EXPECT_EQ(store.Erase(key), model.erase(key) > 0) << "op " << op;
    } else {
      Bytes payload = RandomPayload(rng, 16);  // empty ~1/17 of the time
      EXPECT_EQ(store.Upsert(key, payload), model.count(key) > 0)
          << "op " << op;
      model[key] = std::move(payload);
    }
    for (uint64_t k = 0; k < 48; ++k) {
      const std::optional<ByteSpan> got = store.Lookup(k);
      auto want = model.find(k);
      ASSERT_EQ(got.has_value(), want != model.end())
          << "key " << k << " after op " << op;
      if (got.has_value()) {
        ASSERT_TRUE(std::ranges::equal(*got, want->second))
            << "key " << k << " after op " << op;
      }
    }
  }
}

TEST(ColumnStoreTest, AdoptMatchesMapModel) {
  // Property: adopting a random batch — keys overlapping the stored ones
  // and each other, zero-length payloads included — leaves exactly the
  // model that applies the batch's upserts in order, packed with no waste.
  Rng rng(37);
  for (int trial = 0; trial < 30; ++trial) {
    ColumnStore store;
    std::map<uint64_t, Bytes> model;
    for (int i = 0; i < 40; ++i) {
      const uint64_t key = rng.Uniform(96);
      Bytes payload = RandomPayload(rng, 12);
      store.Upsert(key, payload);
      model[key] = std::move(payload);
    }
    std::vector<WireRecord> batch;
    for (int i = 0; i < 50; ++i) {
      batch.push_back(WireRecord{rng.Uniform(96), RandomPayload(rng, 12)});
    }
    store.Adopt(batch);
    for (const WireRecord& r : batch) model[r.key] = r.value;
    ASSERT_TRUE(Holds(store, model)) << "trial " << trial;
    EXPECT_EQ(store.waste_bytes(), 0u);
    EXPECT_EQ(store.arena_bytes(), LiveBytes(model));
  }
}

TEST(ColumnStoreTest, AdoptOverwritesExistingKeys) {
  ColumnStore store;
  store.Upsert(1, ToBytes("old-one"));
  store.Upsert(2, ToBytes("old-two"));
  store.Upsert(3, ToBytes("old-three"));
  const std::map<uint64_t, Bytes> incoming = {
      {2, ToBytes("new")}, {3, Bytes{}}, {4, ToBytes("four")}};
  store.Adopt(incoming);
  EXPECT_TRUE(Holds(store, {{1, ToBytes("old-one")},
                            {2, ToBytes("new")},
                            {3, Bytes{}},
                            {4, ToBytes("four")}}));
  // A key repeated within one batch keeps its last value.
  store.Adopt(std::vector<WireRecord>{{5, ToBytes("first")},
                                      {5, ToBytes("last")}});
  EXPECT_TRUE(std::ranges::equal(store.Lookup(5).value(), ToBytes("last")));
  EXPECT_EQ(store.size(), 5u);
}

TEST(ColumnStoreTest, ExtractMatchesMapModel) {
  // Property: extracting by a key predicate returns exactly the model's
  // matching records in ascending key order and leaves the rest packed
  // with no waste, whatever churn preceded it.
  Rng rng(38);
  for (int trial = 0; trial < 30; ++trial) {
    ColumnStore store;
    std::map<uint64_t, Bytes> model;
    for (int op = 0; op < 120; ++op) {
      const uint64_t key = rng.Uniform(64);
      if (rng.Bernoulli(0.2)) {
        store.Erase(key);
        model.erase(key);
      } else {
        Bytes payload = RandomPayload(rng, 10);
        store.Upsert(key, payload);
        model[key] = std::move(payload);
      }
    }
    const uint64_t modulus = 1 + rng.Uniform(4);  // 1 extracts everything
    auto take = [&](uint64_t key) { return key % modulus == 0; };
    std::vector<WireRecord> want;
    for (auto it = model.begin(); it != model.end();) {
      if (!take(it->first)) {
        ++it;
        continue;
      }
      want.push_back(WireRecord{it->first, it->second});
      it = model.erase(it);
    }
    EXPECT_EQ(store.Extract(take), want) << "trial " << trial;
    ASSERT_TRUE(Holds(store, model)) << "trial " << trial;
    EXPECT_EQ(store.waste_bytes(), 0u);
    EXPECT_EQ(store.arena_bytes(), LiveBytes(model));
  }
}

TEST(ColumnStoreTest, BulkOpsAtAllDeadArenaBoundary) {
  // Bulk paths from the waste_bytes == arena_bytes boundary (live entries,
  // all of them zero-length): adopt and extract must repack the dead bytes
  // away and carry the empty payloads through intact.
  auto at_boundary = [] {
    ColumnStore store;
    store.Upsert(1, ToBytes("xxxx"));
    store.Upsert(2, ToBytes("yyyy"));
    store.Upsert(1, {});
    store.Upsert(2, {});
    return store;
  };
  ColumnStore adopted = at_boundary();
  ASSERT_EQ(adopted.waste_bytes(), adopted.arena_bytes());
  adopted.Adopt(std::vector<WireRecord>{{3, Bytes{}}, {4, ToBytes("zz")}});
  EXPECT_TRUE(Holds(adopted, {{1, {}}, {2, {}}, {3, {}}, {4, ToBytes("zz")}}));
  EXPECT_EQ(adopted.waste_bytes(), 0u);
  EXPECT_EQ(adopted.arena_bytes(), 2u);

  ColumnStore extracted = at_boundary();
  const std::vector<WireRecord> out =
      extracted.Extract([](uint64_t key) { return key == 2; });
  EXPECT_EQ(out, (std::vector<WireRecord>{{2, Bytes{}}}));
  EXPECT_TRUE(Holds(extracted, {{1, {}}}));
  EXPECT_EQ(extracted.waste_bytes(), 0u);
  EXPECT_EQ(extracted.arena_bytes(), 0u);
}

/// Succeeds when the union of the bucket stores equals the client's
/// `model` — no record lost, duplicated or stale — and every key sits in
/// the bucket its address under the coordinator's file image names.
testing::AssertionResult BucketsHoldModelWhereKeysRoute(
    LhSystem& sys, const LhOptions& options,
    const std::map<uint64_t, Bytes>& model) {
  const uint32_t level = sys.coordinator().level();
  const uint64_t split_pointer = sys.coordinator().split_pointer();
  std::map<uint64_t, Bytes> all;
  for (uint64_t b = 0; b < sys.bucket_count(); ++b) {
    for (const auto& [key, value] : sys.bucket(b).columns()) {
      const uint64_t image = LhKeyImage(key, options);
      uint64_t address = image & ((uint64_t{1} << level) - 1);
      if (address < split_pointer) {
        address = image & ((uint64_t{1} << (level + 1)) - 1);
      }
      if (address != b) {
        return testing::AssertionFailure()
               << "key " << key << " in bucket " << b << ", routes to "
               << address;
      }
      if (!all.emplace(key, Bytes(value.begin(), value.end())).second) {
        return testing::AssertionFailure() << "key " << key << " stored twice";
      }
    }
  }
  if (all != model) {
    return testing::AssertionFailure()
           << "buckets hold " << all.size() << " records, model "
           << model.size() << " (or payloads differ)";
  }
  return testing::AssertionSuccess();
}

TEST(ColumnStoreTest, BucketsMirrorMapsThroughSplits) {
  // Growth direction: inserts drive the file through many splits
  // (carve-outs, kTransfer adoption); the bucket stores must hold
  // exactly the client's model, each key where it routes.
  const LhOptions options{.bucket_capacity = 8};
  LhSystem sys(options);
  LhClient* c = sys.NewClient();
  Rng rng(33);
  std::map<uint64_t, Bytes> model;
  for (int i = 0; i < 600; ++i) {
    const uint64_t k = rng.Next();
    c->Insert(k, Val(k));
    model[k] = Val(k);
  }
  ASSERT_GT(sys.bucket_count(), 32u);
  EXPECT_TRUE(BucketsHoldModelWhereKeysRoute(sys, options, model));
}

TEST(ColumnStoreTest, BucketsMirrorMapsThroughMergesAndChurn) {
  // Shrink direction: deletes trigger merges (dissolution extracts,
  // kTransfer adoption), interleaved with fresh inserts and
  // replacements.
  const LhOptions options{.bucket_capacity = 8, .merge_threshold = 0.4};
  LhSystem sys(options);
  LhClient* c = sys.NewClient();
  Rng rng(34);
  std::map<uint64_t, Bytes> model;
  std::vector<uint64_t> keys;
  for (int i = 0; i < 400; ++i) keys.push_back(rng.Next());
  for (uint64_t k : keys) {
    c->Insert(k, Val(k));
    model[k] = Val(k);
  }
  const uint64_t peak = sys.bucket_count();
  // Delete most, re-insert some with different payloads.
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i % 4 != 0) {
      c->Delete(keys[i]);
      model.erase(keys[i]);
    }
  }
  for (size_t i = 0; i < keys.size(); i += 8) {
    Bytes replacement = ToBytes("replacement-" + std::to_string(i));
    c->Insert(keys[i], replacement);
    model[keys[i]] = std::move(replacement);
  }
  ASSERT_LT(sys.bucket_count(), peak) << "no merge happened";
  EXPECT_TRUE(BucketsHoldModelWhereKeysRoute(sys, options, model));
}

}  // namespace
}  // namespace essdds::sdds
