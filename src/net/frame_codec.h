#ifndef ESSDDS_NET_FRAME_CODEC_H_
#define ESSDDS_NET_FRAME_CODEC_H_

#include <cstddef>
#include <cstdint>

#include "util/bytes.h"
#include "util/result.h"

namespace essdds::sdds {
struct Message;
}  // namespace essdds::sdds

namespace essdds::net {

/// Frame kinds carried on a socket connection. kMessage wraps one encoded
/// sdds::Message (the Message::Encode/Decode wire format, unchanged);
/// kHello and kExtent are transport-level control frames that never reach
/// the LH* protocol layer.
enum class FrameKind : uint8_t {
  /// Payload = Message::Encode() bytes.
  kMessage = 1,
  /// First frame on every connection: u32 protocol version, u32 site id the
  /// peer wants replies addressed to (clients) or a host marker (servers).
  kHello = 2,
  /// Coordinator host -> every other host: u64 file extent, so remote
  /// hosts' BucketExists stays fresh without a routing round-trip.
  kExtent = 3,

  // --- admin side-channel (DESIGN.md §17). Pulls are sent by
  // net::AdminClient on a dedicated connection (no kHello handshake);
  // the serving host answers each with one kAdminReply on the same
  // connection, so replies correlate by FIFO order. ---

  /// Admin -> host: pull the host's full metric registry + NetworkStats.
  /// Empty payload.
  kAdminMetricsPull = 4,
  /// Admin -> host: pull a slice of the host's trace ring. Payload =
  /// u64 trace id filter (0 = everything still in the ring).
  kAdminTracePull = 5,
  /// Admin -> host: pull a health summary (per-bucket record gauges,
  /// backpressure, halted buckets, recovery state). Empty payload.
  kAdminHealth = 6,
  /// Host -> admin: reply envelope (EncodeAdminReply): u8 original pull
  /// kind | u32 host index | u64 host monotonic now_us | body.
  kAdminReply = 7,
};

/// Frame header layout, fixed 13 bytes, big-endian like the Message wire:
///   magic u32 | kind u8 | payload length u32 | crc32(payload) u32
/// The CRC turns a flipped bit anywhere in the payload into a decoder error
/// instead of a plausible-but-wrong Message; the magic resynchronization
/// guard turns a desynced stream (e.g. a partial write spliced with a later
/// one) into an immediate Corruption rather than a misparsed length that
/// would stall the connection waiting for bytes that never come.
inline constexpr uint32_t kFrameMagic = 0x45535346u;  // "ESSF"
inline constexpr size_t kFrameHeaderSize = 13;

/// Upper bound on one frame's payload. Generous for the protocol (bulk
/// record moves are bounded by bucket capacity; scan replies by bucket
/// content) while keeping a corrupt or hostile length field from making the
/// decoder buffer gigabytes.
inline constexpr uint32_t kMaxFramePayload = 32u << 20;

/// Transport protocol version carried in kHello. 2: the presence-mask
/// Message layout (DESIGN.md §Message); a peer on another layout fails its
/// hello instead of sending undecodable frames.
inline constexpr uint32_t kNetProtocolVersion = 2;

struct Frame {
  FrameKind kind = FrameKind::kMessage;
  Bytes payload;
};

/// One encoded frame: header + payload, ready to write to a socket.
Bytes EncodeFrame(FrameKind kind, ByteSpan payload);

/// The bytes of EncodeFrame(FrameKind::kMessage, msg.Encode()), built in one
/// buffer sized from msg.EncodedSize(): the message is encoded straight
/// behind the header and the CRC filled in after it.
Bytes EncodeMessageFrame(const sdds::Message& msg);

// Control-frame payload helpers. Decoders are bounds-checked and reject
// trailing bytes; junk in -> Corruption out.
Bytes EncodeHello(uint32_t site);
Result<uint32_t> DecodeHello(ByteSpan payload);
Bytes EncodeExtent(uint64_t extent);
Result<uint64_t> DecodeExtent(ByteSpan payload);

/// Incremental frame decoder over one connection's byte stream. Append()
/// whatever the socket produced; Next() yields complete frames.
///
/// Contract (the fuzz battery in tests/net/frame_codec_test.cc holds it to
/// this): any byte sequence either produces frames, asks for more bytes, or
/// fails with Status::Corruption — never a crash, never an allocation beyond
/// buffered input + kMaxFramePayload, and after the first Corruption the
/// stream is dead (a TCP stream has no frame resync; the connection must be
/// dropped), so every later Next() repeats the error.
class FrameDecoder {
 public:
  void Append(ByteSpan data);

  /// True: `*out` holds the next complete frame. False: need more bytes.
  /// Corruption: bad magic, unknown kind, oversized length, or CRC mismatch.
  Result<bool> Next(Frame* out);

  /// Bytes buffered but not yet consumed by a complete frame.
  size_t buffered() const { return buf_.size() - consumed_; }

  bool corrupt() const { return corrupt_; }

 private:
  Bytes buf_;
  size_t consumed_ = 0;  // prefix of buf_ already handed out as frames
  bool corrupt_ = false;
};

}  // namespace essdds::net

#endif  // ESSDDS_NET_FRAME_CODEC_H_
