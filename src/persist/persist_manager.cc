#include "persist/persist_manager.h"

#if ESSDDS_PERSIST

#include <bit>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <utility>

#include "util/logging.h"

namespace essdds::persist {

namespace {

constexpr char kFilePrefix[] = "bucket-";
constexpr char kFileSuffix[] = ".log";

/// Parses "<N>" out of "bucket-<N>.log"; rejects anything else.
bool ParseBucketFileName(const std::string& name, uint64_t* bucket) {
  const size_t prefix_len = sizeof(kFilePrefix) - 1;
  const size_t suffix_len = sizeof(kFileSuffix) - 1;
  if (name.size() <= prefix_len + suffix_len) return false;
  if (name.compare(0, prefix_len, kFilePrefix) != 0) return false;
  if (name.compare(name.size() - suffix_len, suffix_len, kFileSuffix) != 0) {
    return false;
  }
  const std::string digits =
      name.substr(prefix_len, name.size() - prefix_len - suffix_len);
  uint64_t value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *bucket = value;
  return true;
}

Bytes EffectiveMaster(const Bytes& master) {
  if (!master.empty()) return master;
  return ToBytes("essdds/dev-persist-master");
}

}  // namespace

PersistManager::PersistManager(Options options, obs::MetricRegistry* registry)
    : options_(std::move(options)),
      keys_(EffectiveMaster(options_.master)) {
  std::error_code ec;
  std::filesystem::create_directories(options_.dir, ec);
  if (ec) {
    ESSDDS_LOG(kError) << "persist: cannot create data dir " << options_.dir
                       << ": " << ec.message();
  }
  if (registry != nullptr) {
    metrics_.appended_frames = &registry->counter("persist.appended_frames");
    metrics_.checkpoints = &registry->counter("persist.checkpoints");
    metrics_.log_bytes = &registry->gauge("persist.log_bytes");
    replayed_records_ = &registry->counter("persist.replayed_records");
    recovered_buckets_ = &registry->counter("persist.recovered_buckets");
    torn_tails_ = &registry->counter("persist.torn_tails");
    corrupt_tails_ = &registry->counter("persist.corrupt_tails");
    repaired_transfers_ = &registry->counter("persist.repaired_transfers");
    recovery_us_ = &registry->histogram("persist.recovery_us");
  }
}

std::string PersistManager::LogPath(uint64_t bucket) const {
  return options_.dir + "/" + kFilePrefix + std::to_string(bucket) +
         kFileSuffix;
}

std::vector<PersistManager::RecoveredBucket> PersistManager::Recover() {
  const auto start = std::chrono::steady_clock::now();

  // Scan the directory: collect bucket logs, sweep checkpoint leftovers.
  std::map<uint64_t, ReplayResult> replayed;
  std::error_code ec;
  std::filesystem::directory_iterator it(options_.dir, ec);
  if (!ec) {
    for (const auto& entry : it) {
      const std::string name = entry.path().filename().string();
      if (name.size() > 4 && name.ends_with(".tmp")) {
        std::filesystem::remove(entry.path(), ec);
        continue;
      }
      uint64_t bucket = 0;
      if (!ParseBucketFileName(name, &bucket)) continue;
      ReplayResult r = BucketLog::ReplayFile(entry.path().string(),
                                             keys_.PersistKey(bucket));
      if (r.valid_bytes > 0 && r.bucket != bucket) {
        ESSDDS_LOG(kError) << "persist: " << name << " header claims bucket "
                           << r.bucket << "; treating as corrupt";
        r = ReplayResult{};
        r.tail = ReplayResult::Tail::kCorrupt;
      }
      if (r.tail == ReplayResult::Tail::kTorn && torn_tails_ != nullptr) {
        torn_tails_->Increment();
      }
      if (r.tail == ReplayResult::Tail::kCorrupt && corrupt_tails_ != nullptr) {
        corrupt_tails_->Increment();
      }
      if (r.tail != ReplayResult::Tail::kClean) {
        ESSDDS_LOG(kWarning) << "persist: " << name << " replayed with "
                             << (r.tail == ReplayResult::Tail::kTorn
                                     ? "torn"
                                     : "corrupt")
                             << " tail; recovered to last valid frame ("
                             << r.replayed_records << " records, "
                             << r.valid_bytes << " bytes)";
      }
      if (replayed_records_ != nullptr) {
        replayed_records_->Increment(r.replayed_records);
      }
      replayed.emplace(bucket, std::move(r));
    }
  }

  // Repair rule for an interrupted split/merge record transfer. Transfers
  // are acknowledged — the sending bucket logs its erase/clear only after
  // the receiver acked its logged bulk-put — so a crash between the two
  // leaves the moved records in BOTH logs, never in neither. Every such
  // window shows the same signature on the TOP live bucket N and its parent
  // P (N with its top set bit cleared): P is still at its pre-transfer
  // level, strictly below N's. A healthy top bucket always has
  // P.level == N.level (the split that created N levelled both, and any
  // later split would have created a higher top), so the signature is
  // unambiguous: drop N and let P's copy win. At most one transfer can be
  // in flight (the coordinator serializes restructurings), but the loop is
  // harmless. The dropped bucket's stale file is left in place — a repeat
  // recovery repairs it identically, and bucket-number reuse replaces it
  // via a fresh open.
  while (true) {
    // The top LIVE bucket may sit below merge-retired entries.
    auto top_it = replayed.end();
    for (auto rit = replayed.rbegin(); rit != replayed.rend(); ++rit) {
      if (!rit->second.retired && rit->second.valid_bytes > 0) {
        top_it = std::prev(rit.base());
        break;
      }
    }
    if (top_it == replayed.end() || top_it->first == 0) break;
    const uint64_t top = top_it->first;
    const auto parent_it = replayed.find(top - std::bit_floor(top));
    if (parent_it == replayed.end() || parent_it->second.retired ||
        parent_it->second.valid_bytes == 0 ||
        parent_it->second.level >= top_it->second.level) {
      break;
    }
    ESSDDS_LOG(kWarning) << "persist: bucket " << top
                         << " is an interrupted transfer remnant (parent "
                         << parent_it->first << " at level "
                         << parent_it->second.level << " < "
                         << top_it->second.level
                         << "); dropping in favour of the parent's copy";
    if (repaired_transfers_ != nullptr) repaired_transfers_->Increment();
    replayed.erase(top_it);
  }

  // Live buckets must be a contiguous prefix: merges retire from the top,
  // so every retired (or unreadable, hence empty-retired-like) bucket sits
  // above every live one. A live bucket above a gap would mean a bucket's
  // acked records vanished wholesale — refuse to limp onward.
  std::vector<RecoveredBucket> live;
  for (auto& [bucket, r] : replayed) {
    if (r.retired || r.valid_bytes == 0) continue;
    ESSDDS_CHECK(bucket == live.size())
        << "persist: live bucket " << bucket << " follows a gap (expected "
        << live.size() << ")";
    RecoveredBucket rb;
    rb.records = std::move(r.records);
    rb.level = r.level;
    live.push_back(std::move(rb));
  }

  if (recovered_buckets_ != nullptr) {
    recovered_buckets_->Increment(live.size());
  }
  if (recovery_us_ != nullptr) {
    const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - start);
    recovery_us_->Record(static_cast<uint64_t>(elapsed.count()));
  }
  return live;
}

BucketLog* PersistManager::OpenBucketLog(uint64_t bucket, uint32_t create_level,
                                         bool fresh) {
  std::unique_ptr<BucketLog> log =
      BucketLog::Open(LogPath(bucket), bucket, create_level,
                      keys_.PersistKey(bucket), fresh,
                      options_.checkpoint_min_bytes, &metrics_,
                      options_.fsync);
  if (log == nullptr) return nullptr;
  BucketLog* raw = log.get();
  logs_[bucket] = std::move(log);
  return raw;
}

BucketLog* PersistManager::log(uint64_t bucket) {
  auto it = logs_.find(bucket);
  return it == logs_.end() ? nullptr : it->second.get();
}

}  // namespace essdds::persist

#endif  // ESSDDS_PERSIST
