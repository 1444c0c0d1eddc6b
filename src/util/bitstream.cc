#include "util/bitstream.h"

#include <algorithm>
#include <utility>

namespace essdds {

void BitWriter::Write(uint64_t value, int bits) {
  ESSDDS_CHECK(bits >= 1 && bits <= 64);
  const unsigned shift = static_cast<unsigned>(bit_count_ % 8);
  const size_t byte = bit_count_ / 8;
  bit_count_ += static_cast<size_t>(bits);
  buffer_.resize((bit_count_ + 7) / 8);  // new bytes start zeroed
  // Left-align the value (dropping bits above `bits`), then place it at the
  // open byte's free bits: the top 64 bits of that placement cover the
  // first eight bytes, the low `shift` bits of `aligned` spill into a ninth.
  const uint64_t aligned = value << (64 - bits);
  const uint64_t word = aligned >> shift;
  const size_t touched = std::min<size_t>(buffer_.size() - byte, 8);
  for (size_t j = 0; j < touched; ++j) {
    buffer_[byte + j] |= static_cast<uint8_t>(word >> (56 - 8 * j));
  }
  if (shift + static_cast<unsigned>(bits) > 64) {
    buffer_[byte + 8] |= static_cast<uint8_t>(aligned << (8 - shift));
  }
}

Bytes BitWriter::TakeBuffer() {
  bit_count_ = 0;
  return std::exchange(buffer_, Bytes{});
}

Result<uint64_t> BitReader::Read(int bits) {
  ESSDDS_CHECK(bits >= 1 && bits <= 64);
  if (remaining_bits() < static_cast<size_t>(bits)) {
    return Status::OutOfRange("bit stream exhausted");
  }
  const uint64_t v = LoadBits(data_, pos_, bits);
  pos_ += static_cast<size_t>(bits);
  return v;
}

}  // namespace essdds
