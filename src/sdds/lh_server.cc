#include "sdds/lh_server.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "sdds/parity_server.h"
#include "sdds/scan_executor.h"

namespace essdds::sdds {

namespace {

/// Messages a reconstruction freeze parks: everything that would change
/// the record store (and thereby emit parity) while the gather snapshots it.
bool MutatesRecords(MsgType t) {
  switch (t) {
    case MsgType::kInsert:
    case MsgType::kDelete:
    case MsgType::kSplit:
    case MsgType::kMerge:
    case MsgType::kTransfer:
    case MsgType::kTransferAck:
      return true;
    default:
      return false;
  }
}

}  // namespace

LhBucketServer::LhBucketServer(LhRuntime* runtime, const LhOptions& options,
                               uint64_t bucket_number, uint32_t level)
    : runtime_(runtime),
      options_(options),
      bucket_number_(bucket_number),
      level_(level),
      // Every bucket but the root is born of a split: it owns nothing until
      // its transfer lands, and must not serve before its release.
      loading_(bucket_number != 0),
      parity_level_emitted_(level),
      parity_flags_emitted_(ParityMemberFlags()) {
  ESSDDS_CHECK(runtime != nullptr);
}

uint64_t LhBucketServer::RouteFor(uint64_t key) const {
  // LH* server address verification (Litwin/Neimat/Schneider 1996): compute
  // the address under this bucket's own level; if it differs, a second
  // candidate under level-1 may lie closer along the split order. This rule
  // bounds forwarding at two hops for any client image.
  const uint64_t image = LhKeyImage(key, options_);
  const uint64_t a_prime = image & ((uint64_t{1} << level_) - 1);
  if (a_prime == bucket_number_) return bucket_number_;
  if (level_ >= 1) {
    const uint64_t a_second = image & ((uint64_t{1} << (level_ - 1)) - 1);
    if (a_second > bucket_number_ && a_second < a_prime) return a_second;
  }
  return a_prime;
}

std::map<uint64_t, Bytes> LhBucketServer::records() const {
  std::map<uint64_t, Bytes> out;
  for (const auto& [key, value] : columns_) {
    out.emplace_hint(out.end(), key, Bytes(value.begin(), value.end()));
  }
  return out;
}

void LhBucketServer::RestoreRecovered(
    const std::map<uint64_t, Bytes>& records) {
  columns_.Adopt(records);
  // A recovered bucket owns its records already; nothing is in flight
  // toward it, so it serves immediately.
  loading_ = false;
  if (ParityEnabled()) {
    // Restart path: the parity rows are re-encoded in-process from this
    // state (LhSystem::SeedParityFromData), so the rank table restarts
    // fresh and sequential and the update sequence restarts with it.
    rank_of_.clear();
    free_ranks_.clear();
    next_rank_ = 0;
    for (const auto& [key, value] : records) {
      (void)value;
      rank_of_[key] = next_rank_++;
    }
    parity_seq_ = 0;
    parity_level_emitted_ = level_;
    parity_flags_emitted_ = ParityMemberFlags();
  }
}

void LhBucketServer::OnMessage(Message& msg, Network& net) {
  if (halted_) {
    // The durable log tore mid-append: this site is crashed. A crashed
    // process neither acks nor forwards — peers see silence until a restart
    // replays the log.
    return;
  }
  // Liveness probes and reconstruction control bypass every parking state:
  // a frozen or still-loading bucket is alive and must say so, and the
  // recovery proxy's freeze/release must always get through.
  if (msg.type == MsgType::kPing) {
    HandlePing(msg, net);
    return;
  }
  if (msg.type == MsgType::kReconstructRequest) {
    HandleReconstructRequest(msg, net);
    return;
  }
  if (frozen_ && MutatesRecords(msg.type)) {
    // A reconstruction gather snapshotted this bucket's rank buffers;
    // mutating now would move the group's parity out from under the
    // decode. Reads still serve. Replayed at the release.
    frozen_parked_.push_back(std::move(msg));
    return;
  }
  if (loading_ && msg.type != MsgType::kTransfer &&
      msg.type != MsgType::kTransferAck) {
    // The split that created this bucket hasn't delivered its records, or
    // its parent hasn't logged their erase: serving now would answer from
    // an empty store, or ack a write that a crash between the two log
    // writes drops. Park everything until the release.
    parked_.push_back(std::move(msg));
    return;
  }
  switch (msg.type) {
    case MsgType::kInsert:
    case MsgType::kLookup:
    case MsgType::kDelete:
      HandleKeyOp(msg, net);
      return;
    case MsgType::kScan:
      HandleScan(msg, net);
      return;
    case MsgType::kSplit:
    case MsgType::kMerge:
      StartTransfer(msg, net);
      return;
    case MsgType::kTransfer:
      HandleTransfer(msg, net);
      return;
    case MsgType::kTransferAck:
      HandleTransferAck(msg, net);
      return;
    default:
      ESSDDS_CHECK(false) << "bucket server got unexpected message "
                          << MsgTypeToString(msg.type);
  }
}

void LhBucketServer::HandleKeyOp(Message& msg, Network& net) {
  // A retired bucket was dissolved into its parent by a merge; a stale
  // client whose image is ahead of the file can still address it. Its
  // records live at the parent now — forward there instead of serving a
  // wrong answer from the empty local store.
  uint64_t route = retired_ ? ParentBucket(bucket_number_) : RouteFor(msg.key);
  if (route != bucket_number_) {
    // Address verification ran under this bucket's level; after a merge the
    // computed bucket may no longer exist. Fold onto the parent chain (the
    // bucket that absorbed its records) rather than aborting.
    while (!runtime_->BucketExists(route)) route = ParentBucket(route);
    Message fwd = msg;
    fwd.from = site_;
    fwd.to = runtime_->SiteOfBucket(route);
    fwd.bucket_to_split = route;  // addressed bucket, for degraded routing
    fwd.hops = msg.hops + 1;
    if (msg.hops == 0) {
      // Remember the first mis-addressed bucket; the serving bucket echoes
      // it in the image adjustment so the client can repair its image.
      fwd.has_iam = true;
      fwd.iam_level = level_;
      fwd.iam_address = bucket_number_;
    }
    net.Send(std::move(fwd));
    return;
  }

  Message reply;
  reply.from = site_;
  reply.to = msg.reply_to;
  reply.request_id = msg.request_id;
  reply.trace_id = msg.trace_id;
  reply.key = msg.key;
  if (msg.hops > 0) {
    reply.has_iam = true;
    reply.iam_level = msg.iam_level;
    reply.iam_address = msg.iam_address;
  }

  switch (msg.type) {
    case MsgType::kInsert: {
      // Durability before acknowledgement: the record reaches the log
      // before the store, the ack, or the overflow report. A torn append
      // halts the site with the insert unacknowledged — the client retries
      // against the restarted site.
      if (log_ != nullptr && !log_->AppendPut(msg.key, msg.value)) {
        Halt();
        return;
      }
      std::vector<ParityOp> parity_ops;
      if (ParityEnabled()) parity_ops.push_back(MakeUpsertOp(msg.key, msg.value));
      AboutToMutateRecords(net);
      reply.found = columns_.Upsert(msg.key, msg.value);  // true: replaced
      UpdateRecordGauge(net);
      EmitParity(net, std::move(parity_ops), msg.trace_id);
      reply.type = MsgType::kInsertAck;
      net.Send(std::move(reply));
      MaybeReportOverflow(net, msg.trace_id);
      MaybeCheckpoint();
      return;
    }
    case MsgType::kLookup: {
      reply.type = MsgType::kLookupReply;
      const std::optional<ByteSpan> value = columns_.Lookup(msg.key);
      reply.found = value.has_value();
      if (reply.found) reply.value.assign(value->begin(), value->end());
      net.Send(std::move(reply));
      return;
    }
    case MsgType::kDelete: {
      if (log_ != nullptr && !log_->AppendErase(msg.key)) {
        Halt();
        return;
      }
      std::vector<ParityOp> parity_ops;
      if (ParityEnabled() && columns_.Lookup(msg.key).has_value()) {
        parity_ops.push_back(MakeEraseOp(msg.key));
      }
      AboutToMutateRecords(net);
      reply.type = MsgType::kDeleteAck;
      reply.found = columns_.Erase(msg.key);
      UpdateRecordGauge(net);
      EmitParity(net, std::move(parity_ops), msg.trace_id);
      net.Send(std::move(reply));
      MaybeReportUnderflow(net, msg.trace_id);
      MaybeCheckpoint();
      return;
    }
    default:
      ESSDDS_CHECK(false);
  }
}

void LhBucketServer::HandleScan(Message& msg, Network& net) {
  if (!PropagateScan(msg, bucket_number_, level_, retired_, site_, *runtime_,
                     net)) {
    return;
  }
  // Evaluation runs off the messaging path once the batch drains; the
  // reply is sent then.
  net.EnqueueScanTask(runtime_->FilterById(msg.filter_id), msg.filter_arg,
                      MakeScanTask(msg, bucket_number_, level_, site_,
                                   columns_, &mutation_generation_));
}

void LhBucketServer::StartTransfer(const Message& order, Network& net) {
  ESSDDS_CHECK(order.bucket_to_split == bucket_number_);
  ESSDDS_CHECK(!transfer_pending_) << "bucket " << bucket_number_
                                   << " ordered to restructure mid-transfer";
  // The coordinator sends its next order only after the previous transfer
  // was adopted, so the level it computed this one against is ours.
  const bool split = order.type == MsgType::kSplit;
  ESSDDS_CHECK(split ? order.new_level == level_ + 1
                     : order.new_level + 1 == level_)
      << MsgTypeToString(order.type) << " level mismatch at bucket "
      << bucket_number_ << ": coordinator " << order.new_level << ", local "
      << level_;
  // Queued scans must resolve against the content before the carve-out
  // leaves the store.
  AboutToMutateRecords(net);
  Message transfer;
  transfer.type = MsgType::kTransfer;
  transfer.from = site_;
  transfer.key = order.key;  // the receiver: new bucket, or merge parent
  transfer.to = runtime_->SiteOfBucket(transfer.key);
  transfer.bucket_to_split = bucket_number_;
  transfer.new_level = order.new_level;
  transfer.trace_id = order.trace_id;
  if (split) {
    const uint64_t mask = (uint64_t{1} << order.new_level) - 1;
    transfer.records = columns_.Extract([&](uint64_t key) {
      return (LhKeyImage(key, options_) & mask) == transfer.key;
    });
    // The erase is logged as an explicit key list plus the stepped-up
    // level, so replay never re-runs the hash.
    moved_keys_.reserve(transfer.records.size());
    for (const WireRecord& r : transfer.records) moved_keys_.push_back(r.key);
    level_ = order.new_level;
  } else {
    // Every record returns to the parent this bucket split off from.
    // Dissolved from this moment: an op that reaches this bucket before
    // the coordinator retires it must chase the records to the parent.
    transfer.records = columns_.Extract([](uint64_t) { return true; });
    retired_ = true;
  }
  transfer_pending_ = true;
  UpdateRecordGauge(net);
  // One parity update for the whole carve-out (the values now live in the
  // transfer message). It also carries the stepped-up level or the retired
  // flag, so a proxy serving this bucket's shadow routes like this bucket.
  std::vector<ParityOp> parity_ops;
  if (ParityEnabled()) {
    parity_ops.reserve(transfer.records.size());
    for (const WireRecord& r : transfer.records) {
      ParityOp op = MakeEraseOp(r.key);
      op.delta = RankBuffer(r.key, r.value);
      parity_ops.push_back(std::move(op));
    }
  }
  EmitParity(net, std::move(parity_ops), order.trace_id);
  // Last: a synchronous network runs the receiver, and with it the ack,
  // before Send returns.
  net.Send(std::move(transfer));
}

void LhBucketServer::HandleTransfer(const Message& msg, Network& net) {
  // A split target arrives at its creation level; a merge parent steps
  // down one level.
  const bool split = msg.bucket_to_split < bucket_number_;
  ESSDDS_CHECK(split == loading_ && msg.new_level + (split ? 0 : 1) == level_)
      << "transfer from bucket " << msg.bucket_to_split << " at level "
      << msg.new_level << " does not fit bucket " << bucket_number_
      << " at level " << level_;
  // The records reach this log before the ack, so once the sender logs
  // its erase or clear they are durable here.
  if (log_ != nullptr && !log_->AppendBulkPut(msg.new_level, msg.records)) {
    Halt();
    return;
  }
  std::vector<ParityOp> parity_ops;
  if (ParityEnabled()) {
    parity_ops.reserve(msg.records.size());
    for (const WireRecord& r : msg.records) {
      parity_ops.push_back(MakeUpsertOp(r.key, r.value));
    }
  }
  AboutToMutateRecords(net);
  level_ = msg.new_level;
  columns_.Adopt(msg.records);
  UpdateRecordGauge(net);
  EmitParity(net, std::move(parity_ops), msg.trace_id);
  MaybeCheckpoint();
  SendTransferAck(msg.bucket_to_split, msg.trace_id, net);
}

void LhBucketServer::HandleTransferAck(const Message& msg, Network& net) {
  if (loading_) {
    // The release: the parent's erase is durable, so a crash can no longer
    // discard what this bucket acks. The parity sites mirror the loading
    // flag for reconstruction.
    loading_ = false;
    EmitParity(net, {}, msg.trace_id);
    // Replay whatever raced the transfer, in arrival order. Replays may
    // send (replies, forwards, even a parked kMerge's transfer), which the
    // network schedules as usual.
    std::vector<Message> replay = std::move(parked_);
    parked_.clear();
    for (Message& m : replay) OnMessage(m, net);
    return;
  }
  // The receiver holds the records durably: now this bucket may log that
  // it let them go. A crash before this append leaves the records in both
  // logs, and recovery keeps the parent's copy. A bucket rebuilt from
  // parity mid-transfer owes nothing: its log was rewritten as a
  // checkpoint of the rebuilt store, marked retired for a merge victim.
  // The ack names the receiver, so the kind needs no state: a split
  // target lies above its parent.
  const uint64_t target = msg.bucket_to_split;
  const bool split = target > bucket_number_;
  // Taken, not cleared: a kept capacity per split bucket adds up.
  const std::vector<uint64_t> moved_keys = std::exchange(moved_keys_, {});
  if (transfer_pending_ && log_ != nullptr &&
      !(split ? log_->AppendEraseBulk(level_, moved_keys)
              : log_->AppendClear())) {
    Halt();
    return;
  }
  transfer_pending_ = false;
  if (split) {
    MaybeCheckpoint();
    SendTransferAck(target, msg.trace_id, net);  // the release
  }
  Message done;
  done.type = split ? MsgType::kSplitDone : MsgType::kMergeDone;
  done.from = site_;
  done.to = runtime_->CoordinatorSite();
  done.key = bucket_number_;
  done.trace_id = msg.trace_id;
  net.Send(std::move(done));
}

void LhBucketServer::SendTransferAck(uint64_t bucket, uint64_t trace_id,
                                     Network& net) {
  Message ack;
  ack.type = MsgType::kTransferAck;
  ack.from = site_;
  ack.key = bucket;
  // By bucket, not by site: a peer rebuilt from parity in the meantime
  // serves the same bucket from a new site.
  ack.to = runtime_->SiteOfBucket(bucket);
  ack.bucket_to_split = bucket_number_;
  ack.trace_id = trace_id;
  net.Send(std::move(ack));
}

void LhBucketServer::MaybeCheckpoint() {
  if (log_ != nullptr && !transfer_pending_) {
    log_->MaybeCheckpoint(level_, retired_, columns_);
  }
}

LhBucketServer::ParityOp LhBucketServer::MakeUpsertOp(uint64_t key,
                                                      ByteSpan value) {
  ParityOp op;
  op.op = 0;
  op.record_key = key;
  Bytes old_buf;
  auto rank = rank_of_.find(key);
  if (rank != rank_of_.end()) {
    op.rank = rank->second;
    const std::optional<ByteSpan> old = columns_.Lookup(key);
    ESSDDS_CHECK(old.has_value());
    old_buf = RankBuffer(key, *old);
  } else if (!free_ranks_.empty()) {
    op.rank = *free_ranks_.begin();
    free_ranks_.erase(free_ranks_.begin());
    rank_of_.emplace(key, op.rank);
  } else {
    op.rank = next_rank_++;
    rank_of_.emplace(key, op.rank);
  }
  op.delta = XorBytes(old_buf, RankBuffer(key, value));
  return op;
}

LhBucketServer::ParityOp LhBucketServer::MakeEraseOp(uint64_t key) {
  ParityOp op;
  op.op = 1;
  op.record_key = key;
  auto rank = rank_of_.find(key);
  ESSDDS_CHECK(rank != rank_of_.end()) << "erase of unranked key " << key;
  op.rank = rank->second;
  // Bulk paths (split carve-out, merge clear) have already extracted the
  // value from the store and override the delta themselves.
  const std::optional<ByteSpan> old = columns_.Lookup(key);
  if (old.has_value()) op.delta = RankBuffer(key, *old);
  free_ranks_.insert(op.rank);
  rank_of_.erase(rank);
  return op;
}

void LhBucketServer::EmitParity(Network& net, std::vector<ParityOp> ops,
                                uint64_t trace_id) {
  if (!ParityEnabled()) return;
  // A level step or a loading/retired transition must reach the parity
  // sites even without record deltas — their member mirror drives
  // degraded-mode address verification and parking.
  const uint64_t flags = ParityMemberFlags();
  if (ops.empty() && level_ == parity_level_emitted_ &&
      flags == parity_flags_emitted_) {
    return;
  }
  ++parity_seq_;
  parity_level_emitted_ = level_;
  parity_flags_emitted_ = flags;
  std::vector<WireRecord> entries;
  entries.reserve(ops.size());
  for (ParityOp& op : ops) {
    entries.push_back(WireRecord{
        op.rank,
        EncodeParityEntry(ParityEntry{op.op, op.record_key,
                                      std::move(op.delta)})});
  }
  for (SiteId parity_site : runtime_->ParitySitesOfBucket(bucket_number_)) {
    Message update;
    update.type = MsgType::kParityUpdate;
    update.from = site_;
    update.to = parity_site;
    update.key = bucket_number_;
    update.bucket_to_split =
        bucket_number_ / runtime_->options().parity_group_size;
    update.request_id = parity_seq_;
    update.new_level = level_;
    update.filter_id = flags;
    update.records = entries;  // same unscaled deltas to every parity row
    update.trace_id = trace_id;
    net.Send(std::move(update));
  }
}

void LhBucketServer::HandlePing(const Message& msg, Network& net) {
  Message pong;
  pong.type = MsgType::kPong;
  pong.from = site_;
  pong.to = msg.from;
  pong.key = msg.key;
  pong.request_id = msg.request_id;
  pong.trace_id = msg.trace_id;
  net.Send(std::move(pong));
}

void LhBucketServer::HandleReconstructRequest(const Message& msg,
                                              Network& net) {
  if (msg.filter_id == 0) {
    auto floor = reconstruct_release_floor_.find(msg.from);
    if (floor != reconstruct_release_floor_.end() &&
        msg.request_id <= floor->second) {
      // Stale replay of a freeze whose gather already released (it sat in
      // a dead predecessor's letter queue until the rebuild redirect).
      return;
    }
    // Freeze + slice: park mutations and hand the proxy this bucket's rank
    // buffers plus the facts the decode needs (sequence cut, level,
    // loading). Re-freezing on a restarted gather just answers again.
    frozen_ = true;
    Message slice;
    slice.type = MsgType::kReconstructSlice;
    slice.from = site_;
    slice.to = msg.from;
    slice.key = bucket_number_;
    slice.request_id = msg.request_id;  // epoch echo
    slice.filter_id = parity_seq_;
    slice.new_level = level_;
    slice.found = loading_;
    slice.records.reserve(rank_of_.size());
    for (const auto& [key, rank] : rank_of_) {
      const std::optional<ByteSpan> value = columns_.Lookup(key);
      ESSDDS_CHECK(value.has_value()) << "ranked key " << key << " not stored";
      slice.records.push_back(WireRecord{rank, RankBuffer(key, *value)});
    }
    net.Send(std::move(slice));
    return;
  }
  ESSDDS_CHECK(msg.filter_id == 2)
      << "bucket server got reconstruct mode " << msg.filter_id;
  // Record the floor even when not frozen: a rebuilt bucket may see the
  // release before (or instead of) the freeze it answers for.
  uint64_t& floor = reconstruct_release_floor_[msg.from];
  floor = std::max(floor, msg.request_id);
  if (!frozen_) return;
  frozen_ = false;
  // Replay whatever the freeze parked, in arrival order (replays may send
  // and may re-park if the bucket is still loading).
  std::vector<Message> replay = std::move(frozen_parked_);
  frozen_parked_.clear();
  for (Message& m : replay) OnMessage(m, net);
}

void LhBucketServer::RestoreRebuilt(RebuiltBucket state) {
  rank_of_.clear();
  free_ranks_.clear();
  next_rank_ = 0;
  std::vector<ColumnStore::Record> records;
  records.reserve(state.rank_records.size());
  for (const auto& [rank, record] : state.rank_records) {
    records.push_back(ColumnStore::Record{record.key, record.value});
    rank_of_[record.key] = rank;
    next_rank_ = std::max(next_rank_, rank + 1);
  }
  columns_.Adopt(records);
  // Re-derive the free list: every rank below the high-water mark that no
  // record occupies is reusable, exactly as on the dead server.
  std::set<uint64_t> used;
  for (const auto& [key, rank] : rank_of_) {
    (void)key;
    used.insert(rank);
  }
  for (uint64_t r = 0; r < next_rank_; ++r) {
    if (!used.count(r)) free_ranks_.insert(r);
  }
  level_ = state.level;
  parity_level_emitted_ = state.level;
  parity_seq_ = state.parity_seq;
  loading_ = state.loading;
  retired_ = state.retired;
  parity_flags_emitted_ = ParityMemberFlags();
}

void LhBucketServer::AboutToMutateRecords(Network& net) {
  // A queued scan task borrows the store's buffers until the batch drains;
  // evaluate any queued for this bucket now, against the pre-mutation
  // content it held at kScan delivery. The generation step arms the
  // snapshot assert for any mutation path that skips this call.
  net.ResolveDeferredScans(bucket_number_);
  ++mutation_generation_;
}

void LhBucketServer::UpdateRecordGauge(Network& net) {
  if (!obs::kMetricsEnabled) return;
  if (record_gauge_ == nullptr) {
    record_gauge_ = &net.metrics().gauge(
        "bucket." + std::to_string(bucket_number_) + ".records");
  }
  record_gauge_->Set(static_cast<int64_t>(columns_.size()));
}

void LhBucketServer::MaybeReportOverflow(Network& net, uint64_t trace_id) {
  if (columns_.size() <= options_.bucket_capacity) return;
  Message overflow;
  overflow.type = MsgType::kOverflow;
  overflow.from = site_;
  overflow.to = runtime_->CoordinatorSite();
  overflow.key = bucket_number_;
  overflow.trace_id = trace_id;
  net.Send(std::move(overflow));
}

void LhBucketServer::MaybeReportUnderflow(Network& net, uint64_t trace_id) {
  if (options_.merge_threshold <= 0.0) return;
  const double low_water =
      options_.merge_threshold * static_cast<double>(options_.bucket_capacity);
  if (static_cast<double>(columns_.size()) >= low_water) return;
  Message underflow;
  underflow.type = MsgType::kUnderflow;
  underflow.from = site_;
  underflow.to = runtime_->CoordinatorSite();
  underflow.key = bucket_number_;
  underflow.trace_id = trace_id;
  net.Send(std::move(underflow));
}

void LhCoordinator::OnMessage(Message& msg, Network& net) {
  switch (msg.type) {
    case MsgType::kOverflow:
      // Uncontrolled splitting: every collision report triggers one split of
      // the bucket at the split pointer (which is generally NOT the
      // overflowing bucket — that is the essence of linear hashing).
      // Restructuring defers while a reconstruction runs — a split would
      // move records between buckets mid-gather. The bucket reports again
      // on its next insert.
      if (recovering_ == 0) PerformSplit(net, msg.trace_id);
      return;
    case MsgType::kSplitDone:
      ESSDDS_CHECK(split_in_progress_);
      split_in_progress_ = false;
      ++split_pointer_;
      ++extent_;
      if (split_pointer_ == (uint64_t{1} << level_)) {
        split_pointer_ = 0;
        ++level_;
      }
      if (owed_split_trace_) {
        const uint64_t trace_id = *owed_split_trace_;
        owed_split_trace_.reset();
        if (recovering_ == 0) PerformSplit(net, trace_id);
      }
      return;
    case MsgType::kUnderflow:
      if (recovering_ == 0) PerformMerge(net, msg.trace_id);
      return;
    case MsgType::kMergeDone:
      ESSDDS_CHECK(merge_in_progress_);
      merge_in_progress_ = false;
      if (split_pointer_ == 0) {
        ESSDDS_CHECK(level_ > 0);
        --level_;
        split_pointer_ = (uint64_t{1} << level_) - 1;
      } else {
        --split_pointer_;
      }
      --extent_;
      runtime_->RetireLastBucket();
      return;
    case MsgType::kDeadSite:
      HandleDeadSite(msg, net);
      return;
    case MsgType::kPong: {
      // The probed site answered: alive, just slow. Forget the report.
      auto it = dead_probes_.find(msg.key);
      if (it != dead_probes_.end() && !it->second.declared) {
        dead_probes_.erase(it);
      }
      return;
    }
    case MsgType::kRecoveryTick:
      HandleRecoveryTick(msg, net);
      return;
    case MsgType::kRebuildDone: {
      auto it = dead_probes_.find(msg.key);
      ESSDDS_CHECK(it != dead_probes_.end() && it->second.declared);
      if (obs::kMetricsEnabled) {
        net.metrics()
            .histogram("recovery.reconstruction_us")
            .Record(net.now_us() - it->second.declared_at_us);
      }
      dead_probes_.erase(it);
      ESSDDS_CHECK(recovering_ > 0);
      --recovering_;
      return;
    }
    default:
      ESSDDS_CHECK(false) << "coordinator got unexpected message "
                          << MsgTypeToString(msg.type);
  }
}

void LhCoordinator::HandleDeadSite(const Message& msg, Network& net) {
  if (obs::kMetricsEnabled) {
    net.metrics().counter("coord.dead_site_reports").Increment();
  }
  if (runtime_->options().parity_group_size == 0) {
    // No parity groups -> no headroom to reconstruct from; the report is
    // telemetry only (the socket transport's clients send one per
    // retry-exhausted op, making a SIGKILLed host visible in the
    // coordinator's metrics even though v1 cannot recover it).
    return;
  }
  // The client reports the RECORD KEY it cannot get served (its own
  // computed address may be stale, and the hop that is actually dead can
  // sit anywhere on the forwarding chain). Every hop a key-op can take —
  // client address, intermediate forwards, authoritative bucket — is a
  // prefix of the key's hash image, so probing the existing prefixes
  // covers the whole chain.
  const uint64_t image = LhKeyImage(msg.key, runtime_->options());
  const uint64_t probed_mask_bits = level_ + 2;  // h_0 .. h_{i+1}
  std::set<uint64_t> candidates;
  for (uint64_t len = 0; len < probed_mask_bits; ++len) {
    const uint64_t c = image & ((uint64_t{1} << len) - 1);
    // BucketExists rather than the coordinator's extent: an in-flight
    // split's target bucket serves (well, parks) traffic before the
    // kSplitDone that steps the extent — and it can die like any other.
    if (runtime_->BucketExists(c)) candidates.insert(c);
  }
  for (uint64_t bucket : candidates) {
    if (dead_probes_.count(bucket)) continue;  // probe/recovery in flight
    DeadProbe probe;
    probe.generation = next_probe_generation_++;
    probe.reported_at_us = net.now_us();
    Message ping;
    ping.type = MsgType::kPing;
    ping.from = site_;
    ping.to = runtime_->SiteOfBucket(bucket);
    ping.key = bucket;
    ping.trace_id = msg.trace_id;
    net.Send(std::move(ping));
    Message tick;
    tick.type = MsgType::kRecoveryTick;
    tick.from = site_;
    tick.to = site_;
    tick.key = bucket;
    tick.filter_id = 0;  // ping-timeout probe
    tick.request_id = probe.generation;
    net.ScheduleTimer(std::move(tick), runtime_->options().ping_timeout_us);
    dead_probes_.emplace(bucket, probe);
  }
}

void LhCoordinator::HandleRecoveryTick(const Message& msg, Network& net) {
  const uint64_t bucket = msg.key;
  if (msg.filter_id == 1) {
    // Degraded-mode hold elapsed: order the rebuild.
    SendRebuild(bucket, net);
    return;
  }
  auto it = dead_probes_.find(bucket);
  if (it == dead_probes_.end() || it->second.declared) return;
  // A pong may have erased the probe this tick was armed for and a later
  // report re-created one; declaring THAT probe here would cut its
  // patience window short (and falsely kill a live site).
  if (it->second.generation != msg.request_id) return;
  ++it->second.attempts;
  if (it->second.attempts < kPingAttempts) {
    // Unanswered, but a slow or fault-delayed pong is still cheaper than a
    // false declaration (that would burn parity headroom on a live site):
    // ping again and keep waiting.
    Message ping;
    ping.type = MsgType::kPing;
    ping.from = site_;
    ping.to = runtime_->SiteOfBucket(bucket);
    ping.key = bucket;
    ping.trace_id = msg.trace_id;
    net.Send(std::move(ping));
    Message tick = msg;
    net.ScheduleTimer(std::move(tick), runtime_->options().ping_timeout_us);
    return;
  }
  // Every ping went unanswered for the whole patience window: declare the
  // site dead and hand reconstruction to the group's parity proxy.
  it->second.declared = true;
  it->second.declared_at_us = net.now_us();
  if (obs::kMetricsEnabled) {
    net.metrics().counter("coord.dead_sites").Increment();
    // Phase timer (declare): first client report -> dead declaration. The
    // freeze/decode/install phases are timed by the parity proxy.
    net.metrics()
        .histogram("recovery.declare_us")
        .Record(it->second.declared_at_us - it->second.reported_at_us);
  }
  it->second.proxy = runtime_->MarkBucketDead(bucket);
  ++recovering_;
  const uint64_t hold = runtime_->options().recovery_hold_us;
  if (hold == 0) {
    SendRebuild(bucket, net);
    return;
  }
  Message tick;
  tick.type = MsgType::kRecoveryTick;
  tick.from = site_;
  tick.to = site_;
  tick.key = bucket;
  tick.filter_id = 1;
  net.ScheduleTimer(std::move(tick), hold);
}

void LhCoordinator::SendRebuild(uint64_t bucket, Network& net) {
  auto it = dead_probes_.find(bucket);
  ESSDDS_CHECK(it != dead_probes_.end() && it->second.declared);
  Message rebuild;
  rebuild.type = MsgType::kRebuild;
  rebuild.from = site_;
  rebuild.to = it->second.proxy;
  rebuild.key = bucket;
  rebuild.bucket_to_split = bucket / runtime_->options().parity_group_size;
  net.Send(std::move(rebuild));
}

void LhCoordinator::PerformMerge(Network& net, uint64_t trace_id) {
  if (merge_in_progress_ || split_in_progress_ || extent_ <= 1) return;
  merge_in_progress_ = true;
  net.metrics().counter("coord.merges").Increment();
  // Inverse of the split order: dissolve the most recently created bucket
  // back into its parent.
  uint64_t victim, parent, parent_new_level;
  if (split_pointer_ > 0) {
    parent = split_pointer_ - 1;
    victim = parent + (uint64_t{1} << level_);
    parent_new_level = level_;
  } else {
    // The file just doubled; undo the last split of the previous round.
    parent = (uint64_t{1} << (level_ - 1)) - 1;
    victim = (uint64_t{1} << level_) - 1;
    parent_new_level = level_ - 1;
  }
  Message merge;
  merge.type = MsgType::kMerge;
  merge.from = site_;
  merge.to = runtime_->SiteOfBucket(victim);
  merge.bucket_to_split = victim;
  merge.key = parent;
  merge.new_level = static_cast<uint32_t>(parent_new_level);
  merge.trace_id = trace_id;
  net.Send(std::move(merge));
}

void LhCoordinator::PerformSplit(Network& net, uint64_t trace_id) {
  // An overflow report can arrive while a split (or merge) is already in
  // flight — on a real network the reports race the acknowledged transfer.
  // One racing a split is owed a split once it lands: the reporter may
  // still overflow, and it reports again only on its next insert. Reports
  // racing a merge are dropped, as PerformMerge drops concurrent
  // underflow reports.
  if (split_in_progress_ || merge_in_progress_) {
    if (split_in_progress_ && !owed_split_trace_) owed_split_trace_ = trace_id;
    return;
  }
  split_in_progress_ = true;
  net.metrics().counter("coord.splits").Increment();
  const uint64_t old_bucket = split_pointer_;
  const uint64_t new_bucket = split_pointer_ + (uint64_t{1} << level_);
  runtime_->CreateBucket(new_bucket, level_ + 1);

  Message split;
  split.type = MsgType::kSplit;
  split.from = site_;
  split.to = runtime_->SiteOfBucket(old_bucket);
  split.bucket_to_split = old_bucket;
  split.new_level = level_ + 1;
  split.key = new_bucket;
  split.trace_id = trace_id;
  net.Send(std::move(split));
}

}  // namespace essdds::sdds
