#ifndef ESSDDS_SDDS_MESSAGE_H_
#define ESSDDS_SDDS_MESSAGE_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/bytes.h"
#include "util/result.h"

namespace essdds {
class WireWriter;
}  // namespace essdds

namespace essdds::sdds {

/// Identifies a site (node) of the simulated multicomputer.
using SiteId = uint32_t;

inline constexpr SiteId kInvalidSite = static_cast<SiteId>(-1);

/// Wire message types of the LH* protocol.
enum class MsgType : uint8_t {
  // Client -> server key operations.
  kInsert = 0,
  kLookup,
  kDelete,
  // Server -> client replies (carry an optional image adjustment).
  kInsertAck,
  kLookupReply,
  kDeleteAck,
  // Parallel scan: client -> every bucket in its image; buckets forward to
  // buckets the client's stale image missed.
  kScan,
  kScanReply,
  // Split and merge (file growth and shrinking): overflowing/underflowing
  // bucket -> coordinator; coordinator -> splitting/dissolving bucket;
  // that bucket -> the receiving bucket (kTransfer: the moved records and
  // the receiver's new level); receiver -> sender once it has logged and
  // adopted them (kTransferAck); for a split, sender -> new bucket once
  // the erase is logged (kTransferAck again: the release); sender ->
  // coordinator (done).
  kOverflow,
  kSplit,
  kTransfer,
  kSplitDone,
  kUnderflow,
  kMerge,
  kTransferAck,
  kMergeDone,
  // Parity / recovery protocol (LH*RS-style high availability). A data
  // bucket streams batched rank deltas to the parity sites of its group;
  // clients report suspected-dead buckets to the coordinator, which probes
  // with ping/pong and then drives reconstruction through the group's
  // parity proxy (slice gathering, decode, rebuild on a spare site).
  kParityUpdate,       // data bucket -> parity site: batched rank deltas
  kDeadSite,           // client -> coordinator: suspected-dead bucket
  kPing,               // coordinator -> suspected bucket: liveness probe
  kPong,               // bucket -> coordinator: probe answer
  kReconstructRequest, // proxy -> group member: send your slice (may freeze)
  kReconstructSlice,   // member -> proxy: rank-buffer slice + parity seq
  kRebuild,            // coordinator -> parity proxy: install lost buckets
  kRebuildDone,        // proxy -> coordinator: reconstruction complete
  kRecoveryTick,       // self-addressed virtual timer (never crosses a link)
};

std::string_view MsgTypeToString(MsgType t);

/// A key/value record as shipped between sites.
struct WireRecord {
  uint64_t key = 0;
  Bytes value;

  friend bool operator==(const WireRecord&, const WireRecord&) = default;
};

/// Client's view of the file extent (possibly stale): level i' and split
/// pointer n'. The true extent is 2^i + n buckets.
struct FileImage {
  uint32_t level = 0;          // i'
  uint32_t split_pointer = 0;  // n'

  /// Number of buckets this image believes exist.
  uint64_t BucketCount() const {
    return (uint64_t{1} << level) + split_pointer;
  }

  /// The level this image assumes for bucket `a`: buckets below the split
  /// pointer (and their split images) are at i'+1, the rest at i'.
  uint32_t AssumedLevel(uint64_t a) const {
    const uint64_t two_i = uint64_t{1} << level;
    return (a < split_pointer || a >= two_i) ? level + 1 : level;
  }

  friend bool operator==(const FileImage&, const FileImage&) = default;
};

/// One network message. Payload fields are a union-of-purposes: only the
/// fields relevant to `type` are meaningful, and the wire carries exactly
/// the ones that differ from their defaults. Encode() is the only
/// description of the wire layout: the simulators charge EncodedSize(), the
/// socket tier frames Encode(), so byte counters describe the bytes a
/// deployment sends.
struct Message {
  MsgType type = MsgType::kInsert;
  SiteId from = kInvalidSite;
  SiteId to = kInvalidSite;

  /// Correlates replies with requests; assigned by the client.
  uint64_t request_id = 0;
  /// Observability: identifies the client operation this message serves,
  /// carried across forwards, retransmissions, scan fan-out, and the
  /// restructuring an op triggers (overflow -> split -> transfer), so one
  /// op's full causal path can be reassembled from the trace ring. 0 = untraced
  /// (metrics compiled out, or protocol background with no triggering op).
  /// Always 8 bytes of the fixed header, so message/byte counters stay
  /// byte-identical between metrics-ON and -OFF builds.
  uint64_t trace_id = 0;
  /// Final reply destination: preserved across server-to-server forwards so
  /// the serving bucket answers the originating client directly.
  SiteId reply_to = kInvalidSite;
  /// Forwarding hops taken so far by this request (LH* guarantees <= 2).
  uint32_t hops = 0;

  // --- key operations ---
  uint64_t key = 0;
  Bytes value;
  bool found = false;  // lookup/delete outcome

  // --- image adjustment (piggybacked on replies after a forward) ---
  bool has_iam = false;
  uint32_t iam_level = 0;     // level of the bucket that finally served
  uint64_t iam_address = 0;   // logical address the client first hit

  // --- scan ---
  /// Identifier of the scan filter to run at the site (registered on the
  /// system; stands in for shipping query code/parameters).
  uint64_t filter_id = 0;
  Bytes filter_arg;
  /// Level the sender assumed for the destination bucket; receiving buckets
  /// with a deeper level forward to the children the sender did not know.
  uint32_t assumed_level = 0;
  std::vector<WireRecord> records;  // scan hits / transfers

  // --- split protocol ---
  uint64_t bucket_to_split = 0;
  uint32_t new_level = 0;

  /// Wire encoding: a fixed header (u8 type, u16 presence mask, u32 from,
  /// u32 to, u64 trace_id), then each remaining field in declaration order,
  /// only when it differs from its default (its mask bit is set; a bool is
  /// carried by its bit alone). Decode is the bounds-checked inverse:
  /// Decode(Encode(m)) == m for every message, and malformed or
  /// non-canonical bytes yield Status::Corruption, never an exception or
  /// unbounded allocation.
  Bytes Encode() const;
  /// Appends Encode()'s bytes to `w`, for callers that frame the message
  /// in a buffer of their own.
  void EncodeTo(WireWriter& w) const;
  static Result<Message> Decode(ByteSpan data);

  /// Encode().size(), counted without building the bytes: what every
  /// network charges per send.
  size_t EncodedSize() const;

  friend bool operator==(const Message&, const Message&) = default;
};

}  // namespace essdds::sdds

#endif  // ESSDDS_SDDS_MESSAGE_H_
