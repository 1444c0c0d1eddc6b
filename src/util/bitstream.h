#ifndef ESSDDS_UTIL_BITSTREAM_H_
#define ESSDDS_UTIL_BITSTREAM_H_

#include <bit>
#include <cstdint>
#include <cstring>

#include "util/bytes.h"

namespace essdds {

/// Returns the `bits`-wide (1..64) value stored MSB-first at bit offset
/// `pos` of `data` (the BitWriter layout). The caller guarantees
/// pos + bits <= 8 * data.size(); the read never touches a byte past the
/// value's last bit.
inline uint64_t LoadBits(ByteSpan data, size_t pos, int bits) {
  const size_t byte = pos / 8;
  const unsigned shift = static_cast<unsigned>(pos % 8);
  uint64_t word = 0;
  if (data.size() - byte >= 8) {
    std::memcpy(&word, data.data() + byte, 8);
    if constexpr (std::endian::native == std::endian::little) {
      word = __builtin_bswap64(word);
    }
  } else {
    // Tail: fewer than 8 bytes left, so the value fits them (shift + bits
    // <= 56) and the missing low bytes read as zero.
    for (size_t j = byte; j < data.size(); ++j) {
      word |= uint64_t{data[j]} << (56 - 8 * (j - byte));
    }
  }
  word <<= shift;
  // A value wider than 64 - shift bits spills into a ninth byte.
  if (shift + static_cast<unsigned>(bits) > 64) {
    word |= data[byte + 8] >> (8 - shift);
  }
  return word >> (64 - bits);
}

/// A view of `count` values of `bits` (1..64) bits each, packed MSB-first
/// from the first bit of `data` with no padding between them — the layout
/// BitWriter produces. Indexing reads one value with LoadBits; the creator
/// of the view checks that `data` holds count * bits bits.
class PackedValues {
 public:
  PackedValues() = default;
  PackedValues(ByteSpan data, size_t count, int bits)
      : data_(data), count_(count), bits_(bits) {}

  size_t size() const { return count_; }
  int bits() const { return bits_; }
  ByteSpan data() const { return data_; }

  uint64_t operator[](size_t i) const {
    return LoadBits(data_, i * static_cast<size_t>(bits_), bits_);
  }

 private:
  ByteSpan data_;
  size_t count_ = 0;
  int bits_ = 8;
};

/// Writes values of arbitrary bit width (1..64) into a packed MSB-first
/// buffer. Used to pack g-bit dispersal symbols and t-bit bucket codes.
class BitWriter {
 public:
  BitWriter() = default;

  /// Appends the low `bits` bits of `value`, most significant bit first.
  void Write(uint64_t value, int bits);

  /// Number of bits written so far.
  size_t bit_count() const { return bit_count_; }

  /// Returns the packed buffer, zero-padding the final partial byte.
  const Bytes& buffer() const { return buffer_; }

  /// Moves the buffer out; the writer is reset to empty.
  Bytes TakeBuffer();

 private:
  Bytes buffer_;
  size_t bit_count_ = 0;
};

/// Reads fixed-width values back out of a packed MSB-first buffer.
class BitReader {
 public:
  explicit BitReader(ByteSpan data) : data_(data) {}

  /// Reads `bits` bits (1..64) MSB-first. Returns OutOfRange past the end.
  Result<uint64_t> Read(int bits);

  /// Bits remaining in the buffer.
  size_t remaining_bits() const { return data_.size() * 8 - pos_; }

 private:
  ByteSpan data_;
  size_t pos_ = 0;  // bit position
};

}  // namespace essdds

#endif  // ESSDDS_UTIL_BITSTREAM_H_
