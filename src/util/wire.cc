#include "util/wire.h"

#include <utility>

namespace essdds {

Result<uint8_t> WireReader::ReadU8() {
  if (remaining() < 1) return Status::Corruption("wire: truncated u8");
  return data_[pos_++];
}

Result<uint16_t> WireReader::ReadU16() {
  if (remaining() < 2) return Status::Corruption("wire: truncated u16");
  pos_ += 2;
  return static_cast<uint16_t>(data_[pos_ - 2] << 8 | data_[pos_ - 1]);
}

Result<uint32_t> WireReader::ReadU32() {
  if (remaining() < 4) return Status::Corruption("wire: truncated u32");
  const uint32_t v = LoadBigEndian32(data_.data() + pos_);
  pos_ += 4;
  return v;
}

Result<uint64_t> WireReader::ReadU64() {
  if (remaining() < 8) return Status::Corruption("wire: truncated u64");
  const uint64_t v = LoadBigEndian64(data_.data() + pos_);
  pos_ += 8;
  return v;
}

Result<bool> WireReader::ReadBool() {
  ESSDDS_ASSIGN_OR_RETURN(const uint8_t b, ReadU8());
  if (b > 1) return Status::Corruption("wire: bool byte is not 0 or 1");
  return b == 1;
}

Result<ByteSpan> WireReader::ReadBytes(size_t len) {
  if (remaining() < len) return Status::Corruption("wire: truncated bytes");
  ByteSpan view = data_.subspan(pos_, len);
  pos_ += len;
  return view;
}

Result<ByteSpan> WireReader::ReadLengthPrefixed() {
  ESSDDS_ASSIGN_OR_RETURN(const uint32_t len, ReadU32());
  if (remaining() < len) {
    return Status::Corruption("wire: length prefix exceeds payload");
  }
  return ReadBytes(len);
}

Result<uint32_t> WireReader::ReadCount(size_t min_element_size) {
  ESSDDS_ASSIGN_OR_RETURN(const uint32_t count, ReadU32());
  if (min_element_size != 0 &&
      static_cast<uint64_t>(count) * min_element_size > remaining()) {
    return Status::Corruption("wire: element count exceeds payload capacity");
  }
  return count;
}

Status WireReader::ExpectEnd() const {
  if (!AtEnd()) return Status::Corruption("wire: trailing bytes after value");
  return Status::OK();
}

void WireWriter::WriteU8(uint8_t v) { out_.push_back(v); }

void WireWriter::WriteU16(uint16_t v) {
  out_.push_back(static_cast<uint8_t>(v >> 8));
  out_.push_back(static_cast<uint8_t>(v));
}

void WireWriter::WriteU32(uint32_t v) { AppendBigEndian32(v, out_); }

void WireWriter::WriteU64(uint64_t v) { AppendBigEndian64(v, out_); }

void WireWriter::WriteBytes(ByteSpan b) {
  out_.insert(out_.end(), b.begin(), b.end());
}

void WireWriter::WriteLengthPrefixed(ByteSpan b) {
  WriteU32(static_cast<uint32_t>(b.size()));
  WriteBytes(b);
}

Bytes WireWriter::TakeBuffer() { return std::exchange(out_, {}); }

}  // namespace essdds
