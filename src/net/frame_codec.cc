#include "net/frame_codec.h"

#include <cstring>

#include "sdds/message.h"
#include "util/crc32.h"
#include "util/wire.h"

namespace essdds::net {

namespace {

/// A frame buffer sized for `len` payload bytes, header written with a
/// placeholder CRC; the caller appends the payload, then FinishFrame.
WireWriter StartFrame(FrameKind kind, size_t len) {
  WireWriter w;
  w.Reserve(kFrameHeaderSize + len);
  w.WriteU32(kFrameMagic);
  w.WriteU8(static_cast<uint8_t>(kind));
  w.WriteU32(static_cast<uint32_t>(len));
  w.WriteU32(0);  // CRC, filled in by FinishFrame
  return w;
}

Bytes FinishFrame(WireWriter& w, size_t len) {
  Bytes frame = w.TakeBuffer();
  ESSDDS_CHECK(frame.size() == kFrameHeaderSize + len);
  StoreBigEndian32(Crc32(ByteSpan(frame).subspan(kFrameHeaderSize)),
                   frame.data() + kFrameHeaderSize - 4);
  return frame;
}

}  // namespace

Bytes EncodeFrame(FrameKind kind, ByteSpan payload) {
  WireWriter w = StartFrame(kind, payload.size());
  w.WriteBytes(payload);
  return FinishFrame(w, payload.size());
}

Bytes EncodeMessageFrame(const sdds::Message& msg) {
  const size_t len = msg.EncodedSize();
  WireWriter w = StartFrame(FrameKind::kMessage, len);
  msg.EncodeTo(w);
  return FinishFrame(w, len);
}

Bytes EncodeHello(uint32_t site) {
  WireWriter w;
  w.WriteU32(kNetProtocolVersion);
  w.WriteU32(site);
  return w.TakeBuffer();
}

Result<uint32_t> DecodeHello(ByteSpan payload) {
  WireReader r(payload);
  ESSDDS_ASSIGN_OR_RETURN(const uint32_t version, r.ReadU32());
  if (version != kNetProtocolVersion) {
    return Status::Corruption("hello: unsupported protocol version " +
                              std::to_string(version));
  }
  ESSDDS_ASSIGN_OR_RETURN(const uint32_t site, r.ReadU32());
  ESSDDS_RETURN_IF_ERROR(r.ExpectEnd());
  return site;
}

Bytes EncodeExtent(uint64_t extent) {
  WireWriter w;
  w.WriteU64(extent);
  return w.TakeBuffer();
}

Result<uint64_t> DecodeExtent(ByteSpan payload) {
  WireReader r(payload);
  ESSDDS_ASSIGN_OR_RETURN(const uint64_t extent, r.ReadU64());
  ESSDDS_RETURN_IF_ERROR(r.ExpectEnd());
  if (extent == 0) return Status::Corruption("extent frame: empty file");
  return extent;
}

void FrameDecoder::Append(ByteSpan data) {
  if (corrupt_) return;  // stream already dead; don't grow the buffer
  // Compact before growing: consumed frames leave a dead prefix that would
  // otherwise accumulate for the life of the connection.
  if (consumed_ > 0 && (consumed_ >= buf_.size() || consumed_ > 4096)) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buf_.insert(buf_.end(), data.begin(), data.end());
}

Result<bool> FrameDecoder::Next(Frame* out) {
  if (corrupt_) return Status::Corruption("frame stream already corrupt");
  if (buffered() < kFrameHeaderSize) return false;
  WireReader r(ByteSpan(buf_.data() + consumed_, buffered()));
  // Header reads can't fail past the buffered() check; decode errors below
  // are semantic (bad magic/kind/length/CRC), and each one kills the stream.
  ESSDDS_ASSIGN_OR_RETURN(const uint32_t magic, r.ReadU32());
  if (magic != kFrameMagic) {
    corrupt_ = true;
    return Status::Corruption("frame: bad magic");
  }
  ESSDDS_ASSIGN_OR_RETURN(const uint8_t kind, r.ReadU8());
  if (kind < static_cast<uint8_t>(FrameKind::kMessage) ||
      kind > static_cast<uint8_t>(FrameKind::kAdminReply)) {
    corrupt_ = true;
    return Status::Corruption("frame: unknown kind " + std::to_string(kind));
  }
  ESSDDS_ASSIGN_OR_RETURN(const uint32_t len, r.ReadU32());
  if (len > kMaxFramePayload) {
    corrupt_ = true;
    return Status::Corruption("frame: payload length " + std::to_string(len) +
                              " exceeds cap");
  }
  ESSDDS_ASSIGN_OR_RETURN(const uint32_t crc, r.ReadU32());
  if (r.remaining() < len) return false;  // payload still in flight
  ESSDDS_ASSIGN_OR_RETURN(const ByteSpan payload, r.ReadBytes(len));
  if (Crc32(payload) != crc) {
    corrupt_ = true;
    return Status::Corruption("frame: payload CRC mismatch");
  }
  out->kind = static_cast<FrameKind>(kind);
  out->payload.assign(payload.begin(), payload.end());
  consumed_ += kFrameHeaderSize + len;
  return true;
}

}  // namespace essdds::net
