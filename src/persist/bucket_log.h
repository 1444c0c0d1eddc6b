#ifndef ESSDDS_PERSIST_BUCKET_LOG_H_
#define ESSDDS_PERSIST_BUCKET_LOG_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "obs/metrics.h"
#include "util/bytes.h"
#include "util/wire.h"

namespace essdds::persist {

/// True when the build carries the durable-persistence layer. With
/// -DESSDDS_PERSIST=OFF every class in this header collapses to a no-op
/// stub with the same API: LhOptions::data_dir is then ignored (a warning
/// is logged) and all buckets stay RAM-only, exactly the pre-persistence
/// behaviour.
#if ESSDDS_PERSIST
inline constexpr bool kPersistEnabled = true;
#else
inline constexpr bool kPersistEnabled = false;
#endif

/// Wire types of the per-bucket log records (u8 on disk, inside the
/// encrypted frame body). See DESIGN.md §14 for the full format.
enum class LogRecordType : uint8_t {
  kPut = 1,        // u64 key | lp value
  kErase = 2,      // u64 key
  kClear = 3,      // merge dissolution: drop everything, bucket retires
  kBulkPut = 4,    // u32 level | u32 count | count x (u64 key, lp value)
  kEraseBulk = 5,  // split carve-out: u32 level | u32 count | count x u64 key
  kCheckpoint = 6, // u32 level | u8 retired | u32 count | count x (key, value)
};

/// Outcome of replaying one bucket log image.
struct ReplayResult {
  std::map<uint64_t, Bytes> records;
  uint32_t level = 0;
  bool retired = false;
  /// Log frames successfully decrypted, validated, and applied.
  uint64_t replayed_records = 0;
  /// What ended the replay: a clean end-of-file, an incomplete (torn) final
  /// frame, or a frame whose CRC / decryption / body parse failed. Torn and
  /// corrupt tails are flagged — never silently skipped — so recovery
  /// tooling can distinguish "crash mid-append" from "clean shutdown".
  enum class Tail : uint8_t { kClean = 0, kTorn, kCorrupt };
  Tail tail = Tail::kClean;
  /// Byte offset of the end of the last valid frame (the prefix a repair
  /// truncates to). 0 when even the file header was unreadable.
  uint64_t valid_bytes = 0;
  uint32_t epoch = 0;
  /// Bucket number stamped into the file header (cross-checked against the
  /// bucket the file name claims at recovery time).
  uint64_t bucket = 0;
};

/// Shared per-system persistence instruments, owned by the PersistManager
/// and updated by every BucketLog it opens. All updates happen on the
/// single simulator driver thread.
struct PersistMetrics {
  obs::Counter* appended_frames = nullptr;
  obs::Counter* checkpoints = nullptr;
  obs::Gauge* log_bytes = nullptr;  // total on-disk bytes across all logs
  int64_t total_bytes = 0;

  void Adjust(int64_t delta) {
    total_bytes += delta;
    if (log_bytes != nullptr) log_bytes->Set(total_bytes);
  }
};

#if ESSDDS_PERSIST

/// One bucket's durable, encrypted-at-rest append-only record log.
///
/// File layout: a 36-byte plaintext header
///   "ESLG" | version u32 | bucket u64 | epoch u32 | create_level u32 |
///   salt u64 | crc u32
/// followed by frames
///   body_len u32 | ciphertext[body_len] | crc u32 (over len || ciphertext)
/// where the ciphertext is the AES-128-CTR encryption of a WireWriter body
/// (LogRecordType u8 + fields) under the file key with nonce
/// BE32(epoch) || BE64(frame_index). The file key is derived from the
/// bucket's key and the header's salt (HMAC-SHA-256, truncated); the salt
/// is drawn fresh from the OS entropy pool at every Open, so two
/// incarnations of the same bucket number never share a keystream even
/// when the prior incarnation's header (and thus its epoch) is unreadable.
/// Within one incarnation the epoch increments on every checkpoint rewrite
/// and the frame index restarts at 0 with each epoch, so a (key, nonce)
/// pair is never reused and no plaintext payload byte ever reaches the
/// disk image.
///
/// Durability contract: callers append BEFORE acknowledging the mutation
/// (append-before-ack); every append is flushed to the OS before returning.
/// A false return means the log tore mid-write (the crash-point fault hook
/// below, or a real I/O failure) — the site must treat itself as crashed:
/// drop the request unacknowledged and stop serving. By default the flush
/// stops at the OS page cache: a process crash (SIGKILL) loses nothing,
/// but an OS crash or power loss can lose acked appends or an un-synced
/// checkpoint rename. Opening with fsync=true closes that gap — every
/// append fsyncs, and a checkpoint fsyncs the new image and its directory
/// around the rename — at a heavy per-append cost.
///
/// Corrupt images are never destroyed: when Open finds a file whose tail
/// (or whole body — e.g. every frame, under a mis-configured master key)
/// fails CRC/decrypt/parse, the original file is preserved as
/// `<path>.corrupt[.N]` before the adopt-rewrite or fresh truncation
/// touches it, so restoring the correct key later can still recover it.
///
/// Checkpoint compaction: when the file exceeds checkpoint_min_bytes AND
/// has at least doubled since the last checkpoint, the log is rewritten as
/// one kCheckpoint frame holding the full bucket snapshot (written to a
/// temporary file, then atomically renamed over the log — a crash mid-
/// checkpoint leaves the old log intact).
class BucketLog {
 public:
  /// Crash-point injection: tears the write stream at an absolute byte
  /// offset counted over every byte this log ever writes (header,
  /// frames, and checkpoint rewrites included). Truncate mode stops the
  /// write mid-frame; corrupt mode writes the full chunk but flips one bit
  /// at the offset. Either way the log is dead afterwards: the torn append
  /// fails and all subsequent appends fail.
  struct TearSpec {
    uint64_t at_cumulative_byte = 0;
    bool corrupt = false;
  };

  /// Opens the log at `path` for bucket `bucket`. With fresh=true any
  /// existing file is superseded (epoch bumps past the old one) — the
  /// split path, where a bucket number may be reused after a merge retired
  /// it. With fresh=false an existing file is adopted: its torn tail (if
  /// any) is truncated away and appends continue after the last valid
  /// frame. `key` is the bucket's 16-byte derived AES key. `fsync` selects
  /// the power-loss-safe sync policy (see class comment). Returns nullptr
  /// only when the file cannot be created at all.
  static std::unique_ptr<BucketLog> Open(std::string path, uint64_t bucket,
                                         uint32_t create_level, ByteSpan key,
                                         bool fresh,
                                         size_t checkpoint_min_bytes,
                                         PersistMetrics* metrics,
                                         bool fsync = false);

  ~BucketLog();

  BucketLog(const BucketLog&) = delete;
  BucketLog& operator=(const BucketLog&) = delete;

  // --- append API (all return false once the log is crashed/torn) ---

  bool AppendPut(uint64_t key, ByteSpan value);
  bool AppendErase(uint64_t key);
  /// Merge dissolution: the bucket drops every record and retires.
  bool AppendClear();

  /// Bulk load (kMoveRecords / kMergeRecords): `level` is the bucket's
  /// level after the transfer applies. Elements need `.key` and `.value`.
  template <typename RecordVec>
  bool AppendBulkPut(uint32_t level, const RecordVec& records) {
    WireWriter w;
    w.WriteU8(static_cast<uint8_t>(LogRecordType::kBulkPut));
    w.WriteU32(level);
    w.WriteU32(static_cast<uint32_t>(records.size()));
    for (const auto& r : records) {
      w.WriteU64(r.key);
      w.WriteLengthPrefixed(r.value);
    }
    return AppendFrame(w.TakeBuffer());
  }

  /// Split carve-out: the listed keys leave the bucket and its level steps
  /// up to `level`. Self-contained (no re-hashing at replay time).
  bool AppendEraseBulk(uint32_t level, const std::vector<uint64_t>& keys);

  /// Checkpoint policy hook; call after appends with the bucket's live
  /// records. Rewrites the log as a single checkpoint frame when the file
  /// has outgrown both the configured floor and 2x its size at the last
  /// checkpoint; `records` is read only then, so the call costs O(1) on
  /// every other mutation. `records` is any ascending-key range whose
  /// elements destructure as [key, value].
  template <typename Records>
  void MaybeCheckpoint(uint32_t level, bool retired, const Records& records) {
    if (crashed_ || file_bytes_ < checkpoint_min_bytes_ ||
        file_bytes_ < 2 * base_bytes_) {
      return;
    }
    RewriteAsCheckpoint(CheckpointBody(level, retired, records));
  }

  /// Unconditional checkpoint rewrite (tests, rebuild installation).
  template <typename Records>
  bool Checkpoint(uint32_t level, bool retired, const Records& records) {
    if (crashed_) return false;
    return RewriteAsCheckpoint(CheckpointBody(level, retired, records));
  }

  /// True once a write tore (fault hook or I/O error): the site backed by
  /// this log is dead and must not ack or serve.
  bool crashed() const { return crashed_; }

  void ArmTear(TearSpec spec) {
    tear_ = spec;
    tear_armed_ = true;
  }

  /// Cumulative bytes ever handed to the write path (monotonic across
  /// checkpoint rewrites) — the coordinate system ArmTear offsets use.
  uint64_t cumulative_bytes_written() const { return cumulative_written_; }

  uint64_t file_bytes() const { return file_bytes_; }
  uint32_t epoch() const { return epoch_; }
  const std::string& path() const { return path_; }

  /// Pure replay of one log image (the recovery path, and the fuzz
  /// surface): applies every valid frame in order, stops at the first
  /// torn or CRC/decrypt/parse-failing frame and flags it. Never crashes,
  /// throws, or over-allocates on malformed input.
  static ReplayResult ReplayBytes(ByteSpan file, ByteSpan key);

  /// ReplayBytes over the file at `path`; a missing/unreadable file
  /// replays as an empty image with a corrupt tail flag.
  static ReplayResult ReplayFile(const std::string& path, ByteSpan key);

 private:
  BucketLog() = default;

  /// Encrypts `body` into a frame under the current epoch / next frame
  /// index and appends it (flushes before returning).
  bool AppendFrame(Bytes body);

  /// Fault-hook-aware raw write to `f`. Returns false (and marks the log
  /// crashed) when the armed tear fires inside this chunk or fwrite fails.
  bool WriteRaw(std::FILE* f, const uint8_t* p, size_t n);

  bool WriteHeader(std::FILE* f, uint32_t epoch);

  /// Plaintext kCheckpoint frame body: the full bucket snapshot.
  template <typename Records>
  static Bytes CheckpointBody(uint32_t level, bool retired,
                              const Records& records) {
    WireWriter w;
    w.WriteU8(static_cast<uint8_t>(LogRecordType::kCheckpoint));
    w.WriteU32(level);
    w.WriteBool(retired);
    w.WriteU32(static_cast<uint32_t>(records.size()));
    for (const auto& [key, value] : records) {
      w.WriteU64(key);
      w.WriteLengthPrefixed(value);
    }
    return w.TakeBuffer();
  }

  bool RewriteAsCheckpoint(Bytes body);

  std::string path_;
  uint64_t bucket_ = 0;
  uint32_t create_level_ = 0;
  /// Per-incarnation key actually used for the CTR keystream: derived from
  /// the bucket key and salt_ (written in the header) at Open.
  Bytes file_key_;
  uint64_t salt_ = 0;
  bool fsync_ = false;
  std::FILE* file_ = nullptr;
  uint32_t epoch_ = 0;
  uint64_t next_frame_ = 0;
  uint64_t file_bytes_ = 0;
  uint64_t base_bytes_ = 0;  // file size right after the last checkpoint
  size_t checkpoint_min_bytes_ = 64 * 1024;
  bool crashed_ = false;
  bool tear_armed_ = false;
  TearSpec tear_;
  uint64_t cumulative_written_ = 0;
  PersistMetrics* metrics_ = nullptr;
};

#else  // !ESSDDS_PERSIST — no-op stubs; buckets stay RAM-only.

class BucketLog {
 public:
  struct TearSpec {
    uint64_t at_cumulative_byte = 0;
    bool corrupt = false;
  };

  static std::unique_ptr<BucketLog> Open(std::string, uint64_t, uint32_t,
                                         ByteSpan, bool, size_t,
                                         PersistMetrics*, bool = false) {
    return nullptr;
  }

  bool AppendPut(uint64_t, ByteSpan) { return true; }
  bool AppendErase(uint64_t) { return true; }
  bool AppendClear() { return true; }
  template <typename RecordVec>
  bool AppendBulkPut(uint32_t, const RecordVec&) {
    return true;
  }
  bool AppendEraseBulk(uint32_t, const std::vector<uint64_t>&) { return true; }
  template <typename Records>
  void MaybeCheckpoint(uint32_t, bool, const Records&) {}
  template <typename Records>
  bool Checkpoint(uint32_t, bool, const Records&) {
    return true;
  }
  bool crashed() const { return false; }
  void ArmTear(TearSpec) {}
  uint64_t cumulative_bytes_written() const { return 0; }
  uint64_t file_bytes() const { return 0; }
  uint32_t epoch() const { return 0; }
  const std::string& path() const { return path_; }
  static ReplayResult ReplayBytes(ByteSpan, ByteSpan) { return {}; }
  static ReplayResult ReplayFile(const std::string&, ByteSpan) { return {}; }

 private:
  std::string path_;
};

#endif  // ESSDDS_PERSIST

}  // namespace essdds::persist

#endif  // ESSDDS_PERSIST_BUCKET_LOG_H_
