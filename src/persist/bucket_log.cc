#include "persist/bucket_log.h"

#if ESSDDS_PERSIST

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <random>
#include <utility>
#include <vector>

#include "crypto/aes.h"
#include "crypto/hmac.h"
#include "persist/sync_util.h"
#include "util/crc32.h"
#include "util/logging.h"

namespace essdds::persist {

namespace {

constexpr uint8_t kMagic[4] = {'E', 'S', 'L', 'G'};
constexpr uint32_t kVersion = 2;
// magic(4) version(4) bucket(8) epoch(4) create_level(4) salt(8) crc(4)
constexpr size_t kHeaderSize = 36;
// body_len(4) + crc(4) around every frame body.
constexpr size_t kFrameOverhead = 8;

/// AES-128-CTR keystream XOR in place. Counter block layout:
/// BE32(epoch) || BE64(frame_index) || BE32(block_counter) — unique per
/// (epoch, frame) as long as a frame stays under 2^32 blocks, and epochs
/// never repeat for a file, so no keystream byte is ever reused.
bool CtrCrypt(ByteSpan key, uint32_t epoch, uint64_t frame, uint8_t* data,
              size_t len) {
  Result<crypto::Aes> aes = crypto::Aes::Create(key);
  if (!aes.ok()) return false;
  uint8_t counter_block[crypto::Aes::kBlockSize];
  StoreBigEndian32(epoch, counter_block);
  StoreBigEndian64(frame, counter_block + 4);
  uint8_t block[crypto::Aes::kBlockSize];
  uint32_t counter = 0;
  size_t done = 0;
  while (done < len) {
    StoreBigEndian32(counter++, counter_block + 12);
    (*aes).EncryptBlock(counter_block, block);
    const size_t take = std::min(len - done, sizeof(block));
    for (size_t i = 0; i < take; ++i) data[done + i] ^= block[i];
    done += take;
  }
  return true;
}

Bytes BuildHeader(uint64_t bucket, uint32_t epoch, uint32_t create_level,
                  uint64_t salt) {
  Bytes head;
  head.reserve(kHeaderSize);
  head.insert(head.end(), kMagic, kMagic + 4);
  AppendBigEndian32(kVersion, head);
  AppendBigEndian64(bucket, head);
  AppendBigEndian32(epoch, head);
  AppendBigEndian32(create_level, head);
  AppendBigEndian64(salt, head);
  AppendBigEndian32(Crc32(ByteSpan(head.data(), head.size())), head);
  return head;
}

/// Fresh random salt for a new file incarnation. Because the CTR key is
/// derived from (bucket key, salt), two incarnations can only share
/// keystream if their salts collide — so an unreadable prior header (whose
/// true epoch we cannot recover) no longer risks (key, epoch, frame) reuse.
uint64_t NewSalt() {
  std::random_device rd;
  return (static_cast<uint64_t>(rd()) << 32) | static_cast<uint64_t>(rd());
}

/// Per-incarnation CTR key: HMAC(bucket key, BE64(salt)) truncated to the
/// bucket key's length.
Bytes DeriveFileKey(ByteSpan key, uint64_t salt) {
  uint8_t msg[8];
  StoreBigEndian64(salt, msg);
  const auto digest = crypto::HmacSha256(key, ByteSpan(msg, sizeof msg));
  const size_t take = std::min(key.size(), digest.size());
  return Bytes(digest.begin(), digest.begin() + take);
}

/// Moves a corrupt image aside as `<path>.corrupt` (or `.corrupt.N` when
/// earlier casualties exist) instead of letting the rewrite destroy it. A
/// corrupt tail can be a config error — e.g. a wrong persist_master makes
/// every frame decrypt as garbage — and the original ciphertext is the only
/// thing a restored key can still recover.
void PreserveCorruptImage(const std::string& path) {
  std::string side = path + ".corrupt";
  for (int n = 1; std::filesystem::exists(side) && n < 100; ++n) {
    side = path + ".corrupt." + std::to_string(n);
  }
  std::error_code ec;
  std::filesystem::rename(path, side, ec);
  if (ec) {
    ESSDDS_LOG(kError) << "persist: failed to preserve corrupt image " << path
                       << " as " << side << ": " << ec.message();
  } else {
    ESSDDS_LOG(kWarning) << "persist: preserved corrupt image as " << side;
  }
}

/// Wraps an already-encrypted body into the on-disk frame layout.
Bytes BuildFrame(const Bytes& ciphertext) {
  Bytes frame;
  frame.reserve(kFrameOverhead + ciphertext.size());
  AppendBigEndian32(static_cast<uint32_t>(ciphertext.size()), frame);
  frame.insert(frame.end(), ciphertext.begin(), ciphertext.end());
  AppendBigEndian32(Crc32(ByteSpan(frame.data(), frame.size())), frame);
  return frame;
}

bool ReadWholeFile(const std::string& path, Bytes* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out->clear();
  uint8_t buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out->insert(out->end(), buf, buf + n);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

/// Parses and applies one decrypted frame body. Atomic: parses into locals
/// first and mutates `out` only after the whole body (including ExpectEnd)
/// validated, so a bad frame can never half-apply.
bool ApplyBody(ByteSpan body, ReplayResult* out) {
  WireReader r(body);
  Result<uint8_t> type = r.ReadU8();
  if (!type.ok()) return false;
  switch (static_cast<LogRecordType>(*type)) {
    case LogRecordType::kPut: {
      Result<uint64_t> key = r.ReadU64();
      if (!key.ok()) return false;
      Result<ByteSpan> value = r.ReadLengthPrefixed();
      if (!value.ok() || !r.ExpectEnd().ok()) return false;
      out->records[*key] = Bytes((*value).begin(), (*value).end());
      return true;
    }
    case LogRecordType::kErase: {
      Result<uint64_t> key = r.ReadU64();
      if (!key.ok() || !r.ExpectEnd().ok()) return false;
      out->records.erase(*key);
      return true;
    }
    case LogRecordType::kClear: {
      if (!r.ExpectEnd().ok()) return false;
      out->records.clear();
      out->retired = true;
      return true;
    }
    case LogRecordType::kBulkPut: {
      Result<uint32_t> level = r.ReadU32();
      if (!level.ok()) return false;
      Result<uint32_t> count = r.ReadCount(12);  // key(8) + len prefix(4)
      if (!count.ok()) return false;
      std::vector<std::pair<uint64_t, Bytes>> loaded;
      loaded.reserve(*count);
      for (uint32_t i = 0; i < *count; ++i) {
        Result<uint64_t> key = r.ReadU64();
        if (!key.ok()) return false;
        Result<ByteSpan> value = r.ReadLengthPrefixed();
        if (!value.ok()) return false;
        loaded.emplace_back(*key, Bytes((*value).begin(), (*value).end()));
      }
      if (!r.ExpectEnd().ok()) return false;
      out->level = *level;
      for (auto& [key, value] : loaded) {
        out->records[key] = std::move(value);
      }
      return true;
    }
    case LogRecordType::kEraseBulk: {
      Result<uint32_t> level = r.ReadU32();
      if (!level.ok()) return false;
      Result<uint32_t> count = r.ReadCount(8);
      if (!count.ok()) return false;
      std::vector<uint64_t> keys;
      keys.reserve(*count);
      for (uint32_t i = 0; i < *count; ++i) {
        Result<uint64_t> key = r.ReadU64();
        if (!key.ok()) return false;
        keys.push_back(*key);
      }
      if (!r.ExpectEnd().ok()) return false;
      out->level = *level;
      for (uint64_t key : keys) out->records.erase(key);
      return true;
    }
    case LogRecordType::kCheckpoint: {
      Result<uint32_t> level = r.ReadU32();
      if (!level.ok()) return false;
      Result<bool> retired = r.ReadBool();
      if (!retired.ok()) return false;
      Result<uint32_t> count = r.ReadCount(12);
      if (!count.ok()) return false;
      std::map<uint64_t, Bytes> snapshot;
      for (uint32_t i = 0; i < *count; ++i) {
        Result<uint64_t> key = r.ReadU64();
        if (!key.ok()) return false;
        Result<ByteSpan> value = r.ReadLengthPrefixed();
        if (!value.ok()) return false;
        snapshot[*key] = Bytes((*value).begin(), (*value).end());
      }
      if (!r.ExpectEnd().ok()) return false;
      out->level = *level;
      out->retired = *retired;
      out->records = std::move(snapshot);
      return true;
    }
  }
  return false;
}

}  // namespace

std::unique_ptr<BucketLog> BucketLog::Open(std::string path, uint64_t bucket,
                                           uint32_t create_level, ByteSpan key,
                                           bool fresh,
                                           size_t checkpoint_min_bytes,
                                           PersistMetrics* metrics,
                                           bool fsync) {
  std::unique_ptr<BucketLog> log(new BucketLog());
  log->path_ = std::move(path);
  log->bucket_ = bucket;
  log->create_level_ = create_level;
  log->checkpoint_min_bytes_ = checkpoint_min_bytes;
  log->metrics_ = metrics;
  log->fsync_ = fsync;
  // Every open is a new incarnation with its own salt and derived CTR key,
  // so nothing this incarnation writes can share keystream with any prior
  // image — even one whose header (and thus epoch) is unreadable.
  log->salt_ = NewSalt();
  log->file_key_ = DeriveFileKey(key, log->salt_);

  Bytes image;
  const bool have_existing = ReadWholeFile(log->path_, &image);
  ReplayResult existing;
  if (have_existing) existing = ReplayBytes(image, key);

  // A corrupt tail means frames past the valid prefix exist but cannot be
  // decrypted or parsed — possibly a recoverable config error rather than
  // media damage. Move the original aside before any rewrite destroys it.
  if (have_existing && existing.tail == ReplayResult::Tail::kCorrupt) {
    PreserveCorruptImage(log->path_);
  }

  if (!fresh && have_existing && existing.valid_bytes >= kHeaderSize) {
    // Adopt the prior image: replay gave us its state; rewrite the file as
    // one checkpoint under the new incarnation's salt and key. The rewrite
    // repairs any torn tail, and the fresh salt retires the old keystream —
    // a truncated-away torn frame must never share a (key, nonce) pair with
    // a later append.
    log->create_level_ = existing.level;
    log->epoch_ = existing.epoch;  // RewriteAsCheckpoint bumps to +1
    if (!log->RewriteAsCheckpoint(CheckpointBody(
            existing.level, existing.retired, existing.records))) {
      return log;  // crashed() is set; caller decides
    }
    return log;
  }

  // Fresh creation (first open, explicit reset, or an image too damaged to
  // adopt). The epoch continues past any readable prior one for hygiene, but
  // keystream uniqueness rests on the per-incarnation salt, not the epoch.
  const uint32_t epoch = have_existing ? existing.epoch + 1 : 0;
  std::FILE* f = std::fopen(log->path_.c_str(), "wb");
  if (f == nullptr) {
    ESSDDS_LOG(kError) << "persist: cannot create log " << log->path_;
    return nullptr;
  }
  log->file_ = f;
  log->epoch_ = epoch;
  log->next_frame_ = 0;
  if (!log->WriteHeader(f, epoch) || std::fflush(f) != 0 ||
      (fsync && !SyncFile(f))) {
    log->crashed_ = true;
    return log;
  }
  log->file_bytes_ = kHeaderSize;
  log->base_bytes_ = kHeaderSize;
  if (metrics != nullptr) metrics->Adjust(static_cast<int64_t>(kHeaderSize));
  return log;
}

BucketLog::~BucketLog() {
  if (file_ != nullptr) std::fclose(file_);
}

bool BucketLog::AppendPut(uint64_t key, ByteSpan value) {
  WireWriter w;
  w.WriteU8(static_cast<uint8_t>(LogRecordType::kPut));
  w.WriteU64(key);
  w.WriteLengthPrefixed(value);
  return AppendFrame(w.TakeBuffer());
}

bool BucketLog::AppendErase(uint64_t key) {
  WireWriter w;
  w.WriteU8(static_cast<uint8_t>(LogRecordType::kErase));
  w.WriteU64(key);
  return AppendFrame(w.TakeBuffer());
}

bool BucketLog::AppendClear() {
  WireWriter w;
  w.WriteU8(static_cast<uint8_t>(LogRecordType::kClear));
  return AppendFrame(w.TakeBuffer());
}

bool BucketLog::AppendEraseBulk(uint32_t level,
                                const std::vector<uint64_t>& keys) {
  WireWriter w;
  w.WriteU8(static_cast<uint8_t>(LogRecordType::kEraseBulk));
  w.WriteU32(level);
  w.WriteU32(static_cast<uint32_t>(keys.size()));
  for (uint64_t key : keys) w.WriteU64(key);
  return AppendFrame(w.TakeBuffer());
}

bool BucketLog::AppendFrame(Bytes body) {
  if (crashed_ || file_ == nullptr) return false;
  if (!CtrCrypt(file_key_, epoch_, next_frame_, body.data(), body.size())) {
    crashed_ = true;
    return false;
  }
  const Bytes frame = BuildFrame(body);
  if (!WriteRaw(file_, frame.data(), frame.size())) return false;
  if (std::fflush(file_) != 0 || (fsync_ && !SyncFile(file_))) {
    crashed_ = true;
    return false;
  }
  ++next_frame_;
  file_bytes_ += frame.size();
  if (metrics_ != nullptr) {
    metrics_->Adjust(static_cast<int64_t>(frame.size()));
    if (metrics_->appended_frames != nullptr) {
      metrics_->appended_frames->Increment();
    }
  }
  return true;
}

bool BucketLog::WriteRaw(std::FILE* f, const uint8_t* p, size_t n) {
  if (crashed_) return false;
  if (tear_armed_) {
    const uint64_t start = cumulative_written_;
    if (tear_.at_cumulative_byte < start + n) {
      // The tear fires inside (or before) this chunk: emulate the crash.
      if (tear_.corrupt && tear_.at_cumulative_byte >= start) {
        Bytes torn(p, p + n);
        torn[static_cast<size_t>(tear_.at_cumulative_byte - start)] ^= 0x40;
        std::fwrite(torn.data(), 1, torn.size(), f);
        cumulative_written_ += n;
      } else {
        const size_t keep =
            tear_.at_cumulative_byte > start
                ? static_cast<size_t>(tear_.at_cumulative_byte - start)
                : 0;
        if (keep > 0) std::fwrite(p, 1, keep, f);
        cumulative_written_ += keep;
      }
      std::fflush(f);
      crashed_ = true;
      return false;
    }
  }
  if (std::fwrite(p, 1, n, f) != n) {
    crashed_ = true;
    return false;
  }
  cumulative_written_ += n;
  return true;
}

bool BucketLog::WriteHeader(std::FILE* f, uint32_t epoch) {
  const Bytes head = BuildHeader(bucket_, epoch, create_level_, salt_);
  return WriteRaw(f, head.data(), head.size());
}

bool BucketLog::RewriteAsCheckpoint(Bytes body) {
  // Write the checkpoint image to a side file first, then atomically rename
  // it over the log: a crash at any point leaves either the complete old
  // log or the complete new one.
  const uint32_t new_epoch = epoch_ + 1;
  if (!CtrCrypt(file_key_, new_epoch, 0, body.data(), body.size())) {
    crashed_ = true;
    return false;
  }
  const Bytes frame = BuildFrame(body);

  const std::string tmp = path_ + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    crashed_ = true;
    return false;
  }
  bool ok = WriteHeader(f, new_epoch);
  ok = ok && WriteRaw(f, frame.data(), frame.size());
  ok = ok && std::fflush(f) == 0;
  ok = ok && (!fsync_ || SyncFile(f));
  std::fclose(f);
  if (!ok) {
    // Crashed mid-checkpoint: the old log is still intact on disk; the
    // stray .tmp is ignored (and swept) by recovery.
    crashed_ = true;
    return false;
  }

  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path_, ec);
  if (ec) {
    crashed_ = true;
    return false;
  }
  if (fsync_ && !SyncDirOf(path_)) {
    crashed_ = true;
    return false;
  }
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) {
    crashed_ = true;
    return false;
  }
  const uint64_t new_size = kHeaderSize + frame.size();
  if (metrics_ != nullptr) {
    metrics_->Adjust(static_cast<int64_t>(new_size) -
                     static_cast<int64_t>(file_bytes_));
    if (metrics_->checkpoints != nullptr) metrics_->checkpoints->Increment();
  }
  file_bytes_ = new_size;
  base_bytes_ = new_size;
  epoch_ = new_epoch;
  next_frame_ = 1;
  return true;
}

ReplayResult BucketLog::ReplayBytes(ByteSpan file, ByteSpan key) {
  ReplayResult out;
  if (file.size() < kHeaderSize) {
    // Partial (or absent) header: the file tore before it was even born.
    out.tail = ReplayResult::Tail::kTorn;
    return out;
  }
  const ByteSpan head = file.subspan(0, kHeaderSize);
  const uint32_t head_crc = LoadBigEndian32(head.data() + kHeaderSize - 4);
  if (Crc32(head.subspan(0, kHeaderSize - 4)) != head_crc ||
      std::memcmp(head.data(), kMagic, 4) != 0 ||
      LoadBigEndian32(head.data() + 4) != kVersion) {
    out.tail = ReplayResult::Tail::kCorrupt;
    return out;
  }
  out.bucket = LoadBigEndian64(head.data() + 8);
  out.epoch = LoadBigEndian32(head.data() + 16);
  out.level = LoadBigEndian32(head.data() + 20);
  const uint64_t salt = LoadBigEndian64(head.data() + 24);
  out.valid_bytes = kHeaderSize;
  const Bytes file_key = DeriveFileKey(key, salt);

  size_t pos = kHeaderSize;
  while (pos < file.size()) {
    if (file.size() - pos < kFrameOverhead) {
      out.tail = ReplayResult::Tail::kTorn;
      break;
    }
    const uint64_t body_len = LoadBigEndian32(file.data() + pos);
    if (body_len + kFrameOverhead > file.size() - pos) {
      // Either an incomplete final frame or a corrupted length field; in
      // both cases the bytes past `pos` cannot be trusted.
      out.tail = ReplayResult::Tail::kTorn;
      break;
    }
    const ByteSpan len_and_ct =
        file.subspan(pos, 4 + static_cast<size_t>(body_len));
    const uint32_t want_crc =
        LoadBigEndian32(file.data() + pos + 4 + static_cast<size_t>(body_len));
    if (Crc32(len_and_ct) != want_crc) {
      out.tail = ReplayResult::Tail::kCorrupt;
      break;
    }
    Bytes body(len_and_ct.begin() + 4, len_and_ct.end());
    if (!CtrCrypt(file_key, out.epoch, out.replayed_records, body.data(),
                  body.size()) ||
        !ApplyBody(body, &out)) {
      out.tail = ReplayResult::Tail::kCorrupt;
      break;
    }
    ++out.replayed_records;
    pos += kFrameOverhead + static_cast<size_t>(body_len);
    out.valid_bytes = pos;
  }
  return out;
}

ReplayResult BucketLog::ReplayFile(const std::string& path, ByteSpan key) {
  Bytes image;
  if (!ReadWholeFile(path, &image)) {
    ReplayResult out;
    out.tail = ReplayResult::Tail::kCorrupt;
    return out;
  }
  return ReplayBytes(image, key);
}

}  // namespace essdds::persist

#endif  // ESSDDS_PERSIST
