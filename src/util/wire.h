#ifndef ESSDDS_UTIL_WIRE_H_
#define ESSDDS_UTIL_WIRE_H_

#include <cstdint>

#include "util/bytes.h"
#include "util/result.h"

namespace essdds {

/// Cursor over an untrusted byte span. Every site of the simulated
/// multicomputer parses bytes received from remote peers, so every read is
/// bounds-checked against the remaining span and fails with
/// Status::Corruption: junk in -> Corruption out, never an exception, never
/// an out-of-bounds access, never an allocation larger than the input span
/// implies. Integers are big-endian on the wire.
class WireReader {
 public:
  explicit WireReader(ByteSpan data) : data_(data) {}

  /// Bytes consumed so far.
  size_t position() const { return pos_; }
  /// Bytes left to read.
  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

  Result<uint8_t> ReadU8();
  Result<uint16_t> ReadU16();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  /// One byte that must be exactly 0 or 1 (a lax bool lets corrupt bytes
  /// masquerade as valid messages).
  Result<bool> ReadBool();

  /// A view of the next `len` bytes; valid as long as the underlying input
  /// outlives the reader.
  Result<ByteSpan> ReadBytes(size_t len);

  /// A u32 byte length followed by that many bytes.
  Result<ByteSpan> ReadLengthPrefixed();

  /// Reads a u32 element count and validates it against the remaining
  /// payload: every element needs at least `min_element_size` bytes, so any
  /// count the rest of the span cannot account for is Corruption. After a
  /// successful ReadCount the caller may reserve(count) safely.
  Result<uint32_t> ReadCount(size_t min_element_size);

  /// Corruption unless the cursor consumed the whole span (rejects trailing
  /// garbage on formats that are exactly sized).
  Status ExpectEnd() const;

 private:
  ByteSpan data_;
  size_t pos_ = 0;
};

/// Builds the byte layouts WireReader parses: big-endian integers and
/// u32-length-prefixed byte strings appended to a growing buffer.
class WireWriter {
 public:
  WireWriter() = default;

  void WriteU8(uint8_t v);
  void WriteU16(uint16_t v);
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }
  void WriteBytes(ByteSpan b);
  /// u32 byte length followed by the bytes themselves.
  void WriteLengthPrefixed(ByteSpan b);

  /// Pre-allocates room for `n` bytes in total (an exactly sized encoder
  /// then appends without reallocating).
  void Reserve(size_t n) { out_.reserve(n); }

  size_t size() const { return out_.size(); }
  const Bytes& buffer() const { return out_; }
  /// Moves the buffer out; the writer is reset to empty.
  Bytes TakeBuffer();

 private:
  Bytes out_;
};

}  // namespace essdds

#endif  // ESSDDS_UTIL_WIRE_H_
