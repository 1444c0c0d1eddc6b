#include "sdds/message.h"

#include <utility>

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

size_t Message::AccountedBytes() const {
  // Header: type(1) + from(4) + to(4) + request_id(8) + hops(1).
  size_t n = 18;
  switch (type) {
    case MsgType::kInsert:
      n += 8 + value.size();
      break;
    case MsgType::kLookup:
    case MsgType::kDelete:
      n += 8;
      break;
    case MsgType::kLookupReply:
      n += 8 + 1 + value.size();
      break;
    case MsgType::kInsertAck:
    case MsgType::kDeleteAck:
      n += 8 + 1;
      break;
    case MsgType::kScan:
      n += 8 + filter_arg.size() + 4;
      break;
    case MsgType::kScanReply:
      for (const WireRecord& r : records) n += 8 + r.value.size();
      break;
    case MsgType::kOverflow:
    case MsgType::kSplit:
    case MsgType::kSplitDone:
    case MsgType::kUnderflow:
    case MsgType::kMerge:
    case MsgType::kMergeDone:
      n += 8 + 4;
      break;
    case MsgType::kTransfer:
      // receiving bucket + sending bucket + new level, then the records.
      n += 8 + 8 + 4;
      for (const WireRecord& r : records) n += 8 + r.value.size();
      break;
    case MsgType::kTransferAck:
      n += 8 + 8;
      break;
    case MsgType::kParityUpdate:
    case MsgType::kReconstructSlice:
      // member/slot + group + seq correlation + the rank entries.
      n += 8 + 8 + 4 + filter_arg.size();
      for (const WireRecord& r : records) n += 8 + 4 + r.value.size();
      break;
    case MsgType::kDeadSite:
    case MsgType::kPing:
    case MsgType::kPong:
    case MsgType::kReconstructRequest:
    case MsgType::kRebuild:
    case MsgType::kRebuildDone:
      n += 8 + 4;
      break;
    case MsgType::kRecoveryTick:
      // A self-addressed virtual timer, scheduled off the accounting path;
      // the size only matters if one is ever sent as a real message.
      n += 8;
      break;
  }
  if (has_iam) n += 12;
  return n;
}

Bytes Message::Encode() const {
  WireWriter w;
  w.WriteU8(static_cast<uint8_t>(type));
  w.WriteU32(from);
  w.WriteU32(to);
  w.WriteU64(request_id);
  w.WriteU32(reply_to);
  w.WriteU32(hops);
  w.WriteU64(key);
  w.WriteLengthPrefixed(value);
  w.WriteBool(found);
  w.WriteBool(has_iam);
  w.WriteU32(iam_level);
  w.WriteU64(iam_address);
  w.WriteU64(filter_id);
  w.WriteLengthPrefixed(filter_arg);
  w.WriteU32(assumed_level);
  w.WriteU32(static_cast<uint32_t>(records.size()));
  for (const WireRecord& r : records) {
    w.WriteU64(r.key);
    w.WriteLengthPrefixed(r.value);
  }
  w.WriteU64(bucket_to_split);
  w.WriteU32(new_level);
  w.WriteU64(trace_id);
  return w.TakeBuffer();
}

Result<Message> Message::Decode(ByteSpan data) {
  WireReader r(data);
  Message m;
  ESSDDS_ASSIGN_OR_RETURN(const uint8_t type_byte, r.ReadU8());
  if (type_byte > static_cast<uint8_t>(MsgType::kRecoveryTick)) {
    return Status::Corruption("message type out of range");
  }
  m.type = static_cast<MsgType>(type_byte);
  ESSDDS_ASSIGN_OR_RETURN(m.from, r.ReadU32());
  ESSDDS_ASSIGN_OR_RETURN(m.to, r.ReadU32());
  ESSDDS_ASSIGN_OR_RETURN(m.request_id, r.ReadU64());
  ESSDDS_ASSIGN_OR_RETURN(m.reply_to, r.ReadU32());
  ESSDDS_ASSIGN_OR_RETURN(m.hops, r.ReadU32());
  ESSDDS_ASSIGN_OR_RETURN(m.key, r.ReadU64());
  ESSDDS_ASSIGN_OR_RETURN(ByteSpan value, r.ReadLengthPrefixed());
  m.value.assign(value.begin(), value.end());
  ESSDDS_ASSIGN_OR_RETURN(m.found, r.ReadBool());
  ESSDDS_ASSIGN_OR_RETURN(m.has_iam, r.ReadBool());
  ESSDDS_ASSIGN_OR_RETURN(m.iam_level, r.ReadU32());
  ESSDDS_ASSIGN_OR_RETURN(m.iam_address, r.ReadU64());
  ESSDDS_ASSIGN_OR_RETURN(m.filter_id, r.ReadU64());
  ESSDDS_ASSIGN_OR_RETURN(ByteSpan filter_arg, r.ReadLengthPrefixed());
  m.filter_arg.assign(filter_arg.begin(), filter_arg.end());
  ESSDDS_ASSIGN_OR_RETURN(m.assumed_level, r.ReadU32());
  // Every record needs >= 12 bytes (key + value length prefix).
  ESSDDS_ASSIGN_OR_RETURN(const uint32_t num_records, r.ReadCount(12));
  m.records.reserve(num_records);
  for (uint32_t i = 0; i < num_records; ++i) {
    WireRecord rec;
    ESSDDS_ASSIGN_OR_RETURN(rec.key, r.ReadU64());
    ESSDDS_ASSIGN_OR_RETURN(ByteSpan rec_value, r.ReadLengthPrefixed());
    rec.value.assign(rec_value.begin(), rec_value.end());
    m.records.push_back(std::move(rec));
  }
  ESSDDS_ASSIGN_OR_RETURN(m.bucket_to_split, r.ReadU64());
  ESSDDS_ASSIGN_OR_RETURN(m.new_level, r.ReadU32());
  // Compatible extension: the trace id trails the legacy layout. An
  // encoding that ends here is the pre-observability format (trace_id 0);
  // anything else must be exactly the 8-byte id.
  if (r.remaining() > 0) {
    ESSDDS_ASSIGN_OR_RETURN(m.trace_id, r.ReadU64());
  }
  ESSDDS_RETURN_IF_ERROR(r.ExpectEnd());
  return m;
}

}  // namespace essdds::sdds
