#ifndef ESSDDS_SDDS_COLUMN_STORE_H_
#define ESSDDS_SDDS_COLUMN_STORE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "sdds/message.h"
#include "util/bytes.h"

namespace essdds::sdds {

/// Read-only view of a bucket's columnar record storage, handed to scan
/// evaluation: record i is key `keys[i]` with payload bytes
/// arena[offsets[i], offsets[i] + lengths[i]). Records appear in ascending
/// key order, so hits collected over any contiguous index range
/// concatenate into the exact reply a whole-bucket evaluation produces.
///
/// The view borrows the owning ColumnStore's buffers: it is valid only
/// until the store's next mutation. Scan tasks hold one under the bucket's
/// resolve-before-mutation contract (buckets resolve queued tasks before
/// mutating).
struct ColumnSlice {
  const uint64_t* keys = nullptr;
  const uint64_t* offsets = nullptr;
  const uint32_t* lengths = nullptr;
  const uint8_t* arena = nullptr;
  size_t count = 0;

  ByteSpan payload(size_t i) const {
    return ByteSpan(arena + offsets[i], lengths[i]);
  }
};

/// One bucket's record storage: payload bytes packed into a contiguous
/// arena with per-record offset/length arrays, keys in a flat sorted array.
/// Key operations binary-search the keys; scans walk every record, and the
/// flat arena turns that walk into streaming reads and gives batch matchers
/// many packed records per pass.
///
/// Mutations:
///   - Upsert/Erase edit one record. An upsert whose payload size is
///     unchanged overwrites in place; otherwise the new payload is appended
///     to the arena and the old bytes become waste. Entry-array edits
///     memmove the flat arrays (cheap at bucket sizes; the bulk paths below
///     avoid the quadratic trap).
///   - Adopt and Extract move many records in (kMoveRecords, kMergeRecords,
///     restores) or out (split carve-out, merge dissolution) with one
///     repack each.
/// Appends that outrun live bytes trigger a compaction (arena rewritten in
/// key order), so the arena stays within 2x of the live payload volume and
/// scan reads stay mostly sequential.
class ColumnStore {
 public:
  /// A stored record as iteration yields it; `value` borrows the arena and
  /// is valid until the next mutation.
  struct Record {
    uint64_t key = 0;
    ByteSpan value;
  };

  /// Ascending-key iteration over the stored records.
  class Iterator {
   public:
    Iterator(const ColumnStore* store, size_t i) : store_(store), i_(i) {}
    Record operator*() const {
      return Record{store_->key(i_), store_->payload(i_)};
    }
    Iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const Iterator& other) const { return i_ == other.i_; }

   private:
    const ColumnStore* store_;
    size_t i_;
  };

  ColumnStore() = default;
  ColumnStore(ColumnStore&&) = default;
  ColumnStore& operator=(ColumnStore&&) = default;

  /// Inserts or replaces the payload of `key`; true when a record was
  /// replaced.
  bool Upsert(uint64_t key, ByteSpan payload);

  /// Removes `key`; true when it was present.
  bool Erase(uint64_t key);

  /// The payload stored under `key` (borrowing the arena), or nullopt.
  std::optional<ByteSpan> Lookup(uint64_t key) const;

  /// Upserts every record of `records` with one repack. Accepts any range
  /// whose elements destructure as [key, value] (a std::map, WireRecords,
  /// Records of another store). Existing keys are overwritten; a key
  /// repeated within `records` keeps its last value.
  template <typename Records>
  void Adopt(const Records& records) {
    std::vector<Record> batch;
    batch.reserve(records.size());
    for (const auto& [key, value] : records) {
      batch.push_back(Record{key, ByteSpan(value)});
    }
    AdoptBatch(std::move(batch));
  }

  /// Removes every record whose key satisfies `take` with one repack and
  /// returns them in ascending key order.
  std::vector<WireRecord> Extract(const std::function<bool(uint64_t)>& take);

  size_t size() const { return keys_.size(); }
  uint64_t key(size_t i) const { return keys_[i]; }
  ByteSpan payload(size_t i) const {
    return ByteSpan(arena_.data() + offsets_[i], lengths_[i]);
  }
  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, size()); }

  /// Borrowed view for scan evaluation; valid until the next mutation.
  ColumnSlice slice() const {
    ColumnSlice s;
    s.keys = keys_.data();
    s.offsets = offsets_.data();
    s.lengths = lengths_.data();
    s.arena = arena_.data();
    s.count = keys_.size();
    return s;
  }

  /// Arena bytes occupied by dead payloads (replaced or erased records);
  /// reset by compaction and bulk repacks. Exposed for tests. Invariant:
  /// waste_bytes() + (sum of live payload lengths) == arena_bytes().
  uint64_t waste_bytes() const { return waste_bytes_; }

  /// Total arena size, live + waste. Exposed for the compaction-boundary
  /// tests (growth-bound and all-dead-arena assertions).
  uint64_t arena_bytes() const { return arena_.size(); }

 private:
  /// Merges `batch` into the store in one repack (see Adopt).
  void AdoptBatch(std::vector<Record> batch);

  /// Replaces the content with `records` (ascending, unique keys; values
  /// may borrow the current arena), packed into freshly sized buffers.
  void Repack(const std::vector<Record>& records);

  /// Rewrites the arena with live payloads only, in key order.
  void Compact();

  /// Appends `payload` to the arena (compacting first when the waste has
  /// outgrown the live bytes) and returns its offset.
  uint64_t Append(ByteSpan payload);

  std::vector<uint64_t> keys_;     // ascending
  std::vector<uint64_t> offsets_;  // into arena_, parallel to keys_
  std::vector<uint32_t> lengths_;  // parallel to keys_
  std::vector<uint8_t> arena_;
  uint64_t waste_bytes_ = 0;
};

}  // namespace essdds::sdds

#endif  // ESSDDS_SDDS_COLUMN_STORE_H_
