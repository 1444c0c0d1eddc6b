#include "sdds/column_store.h"

#include <algorithm>
#include <cstring>

#include "util/logging.h"

namespace essdds::sdds {

std::optional<ByteSpan> ColumnStore::Lookup(uint64_t key) const {
  auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  if (it == keys_.end() || *it != key) return std::nullopt;
  return payload(static_cast<size_t>(it - keys_.begin()));
}

uint64_t ColumnStore::Append(ByteSpan payload) {
  // Compact before growing past 2x the live volume; the threshold also
  // charges the incoming payload so a store that alternates two payload
  // sizes for one key cannot grow without bound.
  //
  // The unsigned subtraction cannot underflow: every mutation preserves
  // waste_bytes_ + (live payload bytes) == arena_.size() — in particular
  // the replace path in Upsert charges the superseded payload only AFTER
  // this append repoints the entry — so arena_.size() - waste_bytes_ is the
  // live volume, >= 0. The boundary waste_bytes_ == arena_.size() (an
  // all-dead arena under live zero-length entries) evaluates the threshold
  // as waste >= payload.size() and compacts; unit tests pin it.
  ESSDDS_DCHECK(waste_bytes_ <= arena_.size());
  if (waste_bytes_ > 0 &&
      waste_bytes_ >= arena_.size() - waste_bytes_ + payload.size()) {
    Compact();
  }
  const uint64_t offset = arena_.size();
  arena_.insert(arena_.end(), payload.begin(), payload.end());
  return offset;
}

bool ColumnStore::Upsert(uint64_t key, ByteSpan payload) {
  auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  const size_t i = static_cast<size_t>(it - keys_.begin());
  if (it != keys_.end() && *it == key) {
    if (lengths_[i] == payload.size()) {
      // Same-size replace: overwrite in place, no arena growth.
      if (!payload.empty()) {
        std::memcpy(arena_.data() + offsets_[i], payload.data(),
                    payload.size());
      }
      return true;
    }
    // Append may compact; the entry still references the old payload then,
    // so it survives compaction as live bytes and only becomes waste once
    // the entry is repointed below — charge it after, not before.
    const uint32_t old_length = lengths_[i];
    const uint64_t offset = Append(payload);
    offsets_[i] = offset;
    lengths_[i] = static_cast<uint32_t>(payload.size());
    waste_bytes_ += old_length;
    return true;
  }
  const uint64_t offset = Append(payload);
  keys_.insert(keys_.begin() + static_cast<ptrdiff_t>(i), key);
  offsets_.insert(offsets_.begin() + static_cast<ptrdiff_t>(i), offset);
  lengths_.insert(lengths_.begin() + static_cast<ptrdiff_t>(i),
                  static_cast<uint32_t>(payload.size()));
  return false;
}

bool ColumnStore::Erase(uint64_t key) {
  auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  if (it == keys_.end() || *it != key) return false;
  const size_t i = static_cast<size_t>(it - keys_.begin());
  waste_bytes_ += lengths_[i];
  keys_.erase(it);
  offsets_.erase(offsets_.begin() + static_cast<ptrdiff_t>(i));
  lengths_.erase(lengths_.begin() + static_cast<ptrdiff_t>(i));
  // Deleting the last records of a bucket must release the arena too, or an
  // emptied bucket would pin its peak payload volume.
  if (keys_.empty()) {
    arena_.clear();
    waste_bytes_ = 0;
  }
  return true;
}

void ColumnStore::AdoptBatch(std::vector<Record> batch) {
  // A stable sort keeps a repeated key's records in batch order, so the
  // merge below can take the last of each run.
  std::stable_sort(batch.begin(), batch.end(),
                   [](const Record& a, const Record& b) { return a.key < b.key; });
  std::vector<Record> merged;
  merged.reserve(size() + batch.size());
  size_t i = 0;
  for (size_t j = 0; j < batch.size(); ++j) {
    if (j + 1 < batch.size() && batch[j + 1].key == batch[j].key) continue;
    for (; i < size() && keys_[i] < batch[j].key; ++i) {
      merged.push_back(Record{keys_[i], payload(i)});
    }
    if (i < size() && keys_[i] == batch[j].key) ++i;  // overwritten
    merged.push_back(batch[j]);
  }
  for (; i < size(); ++i) merged.push_back(Record{keys_[i], payload(i)});
  Repack(merged);
}

std::vector<WireRecord> ColumnStore::Extract(
    const std::function<bool(uint64_t)>& take) {
  std::vector<WireRecord> taken;
  std::vector<Record> kept;
  kept.reserve(size());
  for (const Record r : *this) {
    if (take(r.key)) {
      taken.push_back(WireRecord{r.key, Bytes(r.value.begin(), r.value.end())});
    } else {
      kept.push_back(r);
    }
  }
  Repack(kept);
  return taken;
}

void ColumnStore::Repack(const std::vector<Record>& records) {
  std::vector<uint64_t> keys, offsets;
  std::vector<uint32_t> lengths;
  std::vector<uint8_t> arena;
  keys.reserve(records.size());
  offsets.reserve(records.size());
  lengths.reserve(records.size());
  uint64_t bytes = 0;
  for (const Record& r : records) bytes += r.value.size();
  arena.reserve(bytes);
  for (const Record& r : records) {
    keys.push_back(r.key);
    offsets.push_back(arena.size());
    lengths.push_back(static_cast<uint32_t>(r.value.size()));
    arena.insert(arena.end(), r.value.begin(), r.value.end());
  }
  keys_ = std::move(keys);
  offsets_ = std::move(offsets);
  lengths_ = std::move(lengths);
  arena_ = std::move(arena);
  waste_bytes_ = 0;
}

void ColumnStore::Compact() {
  std::vector<uint8_t> packed;
  uint64_t live = 0;
  for (uint32_t len : lengths_) live += len;
  packed.reserve(live);
  for (size_t i = 0; i < keys_.size(); ++i) {
    const uint64_t offset = packed.size();
    packed.insert(packed.end(), arena_.begin() + static_cast<ptrdiff_t>(offsets_[i]),
                  arena_.begin() + static_cast<ptrdiff_t>(offsets_[i] + lengths_[i]));
    offsets_[i] = offset;
  }
  arena_ = std::move(packed);
  waste_bytes_ = 0;
}

}  // namespace essdds::sdds
