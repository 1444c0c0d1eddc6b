#include "sdds/message.h"

#include <type_traits>

#include "util/wire.h"

namespace essdds::sdds {

std::string_view MsgTypeToString(MsgType t) {
  switch (t) {
    case MsgType::kInsert:
      return "Insert";
    case MsgType::kLookup:
      return "Lookup";
    case MsgType::kDelete:
      return "Delete";
    case MsgType::kInsertAck:
      return "InsertAck";
    case MsgType::kLookupReply:
      return "LookupReply";
    case MsgType::kDeleteAck:
      return "DeleteAck";
    case MsgType::kScan:
      return "Scan";
    case MsgType::kScanReply:
      return "ScanReply";
    case MsgType::kOverflow:
      return "Overflow";
    case MsgType::kSplit:
      return "Split";
    case MsgType::kTransfer:
      return "Transfer";
    case MsgType::kSplitDone:
      return "SplitDone";
    case MsgType::kUnderflow:
      return "Underflow";
    case MsgType::kMerge:
      return "Merge";
    case MsgType::kTransferAck:
      return "TransferAck";
    case MsgType::kMergeDone:
      return "MergeDone";
    case MsgType::kParityUpdate:
      return "ParityUpdate";
    case MsgType::kDeadSite:
      return "DeadSite";
    case MsgType::kPing:
      return "Ping";
    case MsgType::kPong:
      return "Pong";
    case MsgType::kReconstructRequest:
      return "ReconstructRequest";
    case MsgType::kReconstructSlice:
      return "ReconstructSlice";
    case MsgType::kRebuild:
      return "Rebuild";
    case MsgType::kRebuildDone:
      return "RebuildDone";
    case MsgType::kRecoveryTick:
      return "RecoveryTick";
  }
  return "Unknown";
}

namespace {

// The fields after the fixed header, in wire order: bit i of the presence
// mask stands for the i-th field visited. This list is the whole layout;
// writing, counting and reading all walk it.
template <typename Fn>
void ForEachOptionalField(Fn&& fn) {
  fn(&Message::request_id);
  fn(&Message::reply_to);
  fn(&Message::hops);
  fn(&Message::key);
  fn(&Message::value);
  fn(&Message::found);
  fn(&Message::has_iam);
  fn(&Message::iam_level);
  fn(&Message::iam_address);
  fn(&Message::filter_id);
  fn(&Message::filter_arg);
  fn(&Message::assumed_level);
  fn(&Message::records);
  fn(&Message::bucket_to_split);
  fn(&Message::new_level);
}

// A field is present on the wire iff it differs from its value here.
const Message kDefaults;

// A WireWriter stand-in that only counts the bytes it is handed.
struct SizeCounter {
  void WriteU8(uint8_t) { size += 1; }
  void WriteU16(uint16_t) { size += 2; }
  void WriteU32(uint32_t) { size += 4; }
  void WriteU64(uint64_t) { size += 8; }
  void WriteLengthPrefixed(ByteSpan b) { size += 4 + b.size(); }
  size_t size = 0;
};

template <typename Sink, typename T>
void Put(Sink& s, const T& v) {
  if constexpr (std::is_same_v<T, uint32_t>) {
    s.WriteU32(v);
  } else if constexpr (std::is_same_v<T, uint64_t>) {
    s.WriteU64(v);
  } else if constexpr (std::is_same_v<T, Bytes>) {
    s.WriteLengthPrefixed(v);
  } else if constexpr (std::is_same_v<T, std::vector<WireRecord>>) {
    s.WriteU32(static_cast<uint32_t>(v.size()));
    for (const WireRecord& r : v) {
      s.WriteU64(r.key);
      s.WriteLengthPrefixed(r.value);
    }
  }  // a bool is carried by its mask bit alone (Get rejects other types)
}

template <typename T>
Status Get(WireReader& r, T& v) {
  if constexpr (std::is_same_v<T, uint32_t>) {
    ESSDDS_ASSIGN_OR_RETURN(v, r.ReadU32());
  } else if constexpr (std::is_same_v<T, uint64_t>) {
    ESSDDS_ASSIGN_OR_RETURN(v, r.ReadU64());
  } else if constexpr (std::is_same_v<T, Bytes>) {
    ESSDDS_ASSIGN_OR_RETURN(ByteSpan span, r.ReadLengthPrefixed());
    v.assign(span.begin(), span.end());
  } else if constexpr (std::is_same_v<T, std::vector<WireRecord>>) {
    // Every record needs >= 12 bytes (key + value length prefix).
    ESSDDS_ASSIGN_OR_RETURN(const uint32_t count, r.ReadCount(12));
    v.resize(count);
    for (WireRecord& rec : v) {
      ESSDDS_ASSIGN_OR_RETURN(rec.key, r.ReadU64());
      ESSDDS_RETURN_IF_ERROR(Get(r, rec.value));
    }
  } else {
    static_assert(std::is_same_v<T, bool>);
    v = true;  // a bool is present only when set
  }
  return Status::OK();
}

template <typename Sink>
void WriteMessage(const Message& m, Sink& s) {
  uint16_t mask = 0;
  int bit = 0;
  ForEachOptionalField([&](auto field) {
    mask |= static_cast<uint16_t>((m.*field != kDefaults.*field) << bit++);
  });
  s.WriteU8(static_cast<uint8_t>(m.type));
  s.WriteU16(mask);
  s.WriteU32(m.from);
  s.WriteU32(m.to);
  s.WriteU64(m.trace_id);
  bit = 0;
  ForEachOptionalField([&](auto field) {
    if ((mask >> bit++) & 1) Put(s, m.*field);
  });
}

}  // namespace

size_t Message::EncodedSize() const {
  SizeCounter counter;
  WriteMessage(*this, counter);
  return counter.size;
}

Bytes Message::Encode() const {
  WireWriter w;
  w.Reserve(EncodedSize());
  EncodeTo(w);
  return w.TakeBuffer();
}

void Message::EncodeTo(WireWriter& w) const { WriteMessage(*this, w); }

Result<Message> Message::Decode(ByteSpan data) {
  WireReader r(data);
  Message m;
  ESSDDS_ASSIGN_OR_RETURN(const uint8_t type_byte, r.ReadU8());
  if (type_byte > static_cast<uint8_t>(MsgType::kRecoveryTick)) {
    return Status::Corruption("message type out of range");
  }
  m.type = static_cast<MsgType>(type_byte);
  ESSDDS_ASSIGN_OR_RETURN(const uint16_t mask, r.ReadU16());
  ESSDDS_ASSIGN_OR_RETURN(m.from, r.ReadU32());
  ESSDDS_ASSIGN_OR_RETURN(m.to, r.ReadU32());
  ESSDDS_ASSIGN_OR_RETURN(m.trace_id, r.ReadU64());
  Status status;
  int bit = 0;
  ForEachOptionalField([&](auto field) {
    if (status.ok() && ((mask >> bit++) & 1)) {
      status = Get(r, m.*field);
      // One encoding per message: a present field holds a non-default value.
      if (status.ok() && m.*field == kDefaults.*field) {
        status = Status::Corruption("message: present field has its default");
      }
    }
  });
  ESSDDS_RETURN_IF_ERROR(status);
  if ((mask >> bit) != 0) {  // bit now counts the fields
    return Status::Corruption("message: unknown presence bits");
  }
  ESSDDS_RETURN_IF_ERROR(r.ExpectEnd());
  return m;
}

}  // namespace essdds::sdds
