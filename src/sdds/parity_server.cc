#include "sdds/parity_server.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

#include "sdds/scan_executor.h"
#include "util/wire.h"

namespace essdds::sdds {

namespace {

void TrimTrailingZeros(Bytes* b) {
  while (!b->empty() && b->back() == 0) b->pop_back();
}

}  // namespace

Bytes RankBuffer(uint64_t key, ByteSpan value) {
  WireWriter w;
  w.WriteU8(1);
  w.WriteU64(key);
  w.WriteLengthPrefixed(value);
  return w.TakeBuffer();
}

Result<RankEntry> ParseRankBuffer(ByteSpan buf) {
  RankEntry e;
  if (buf.empty()) return e;  // canonical unoccupied rank
  if (buf[0] == 0) {
    // Zero padding only (XOR arithmetic / RS decode widen buffers).
    for (size_t i = 1; i < buf.size(); ++i) {
      if (buf[i] != 0) return Status::Corruption("absent rank has payload");
    }
    return e;
  }
  if (buf[0] != 1) return Status::Corruption("rank buffer marker invalid");
  // Canonical buffers are trailing-zero trimmed, and the trim can reach into
  // the encoding itself: a value whose last bytes happen to be 0x00 (one in
  // 256 ciphertexts), an empty value under a key with zero low bytes. The
  // missing bytes are implicitly zero, so zero-extend the header, read the
  // declared value length, and zero-extend the value to match — otherwise a
  // reconstruction that RS-decodes such a record rejects its own (correct)
  // output.
  constexpr size_t kHeader = 1 + 8 + 4;  // marker + key + length prefix
  Bytes full(buf.begin(), buf.end());
  if (full.size() < kHeader) full.resize(kHeader, 0);
  WireReader r(full);
  ESSDDS_ASSIGN_OR_RETURN(const uint8_t present, r.ReadU8());
  (void)present;  // == 1, checked above
  e.present = true;
  ESSDDS_ASSIGN_OR_RETURN(e.key, r.ReadU64());
  ESSDDS_ASSIGN_OR_RETURN(const uint32_t len, r.ReadU32());
  if (len > kMaxRankValueBytes) {
    // Junk in, error out: an implausible length must not trigger a giant
    // zero-extension allocation.
    return Status::Corruption("rank buffer value length implausible");
  }
  const size_t have = std::min<size_t>(len, full.size() - kHeader);
  e.value.assign(full.begin() + static_cast<ptrdiff_t>(kHeader),
                 full.begin() + static_cast<ptrdiff_t>(kHeader + have));
  e.value.resize(len, 0);
  // Anything after the payload must be zero padding.
  for (size_t i = kHeader + len; i < full.size(); ++i) {
    if (full[i] != 0) return Status::Corruption("rank buffer trailing garbage");
  }
  return e;
}

Bytes XorBytes(ByteSpan a, ByteSpan b) {
  Bytes out(std::max(a.size(), b.size()), 0);
  for (size_t i = 0; i < a.size(); ++i) out[i] ^= a[i];
  for (size_t i = 0; i < b.size(); ++i) out[i] ^= b[i];
  TrimTrailingZeros(&out);
  return out;
}

Bytes EncodeParityEntry(const ParityEntry& e) {
  WireWriter w;
  w.WriteU8(e.op);
  w.WriteU64(e.record_key);
  w.WriteLengthPrefixed(e.delta);
  return w.TakeBuffer();
}

Result<ParityEntry> DecodeParityEntry(ByteSpan data) {
  WireReader r(data);
  ParityEntry e;
  ESSDDS_ASSIGN_OR_RETURN(e.op, r.ReadU8());
  if (e.op > 1) return Status::Corruption("parity entry op out of range");
  ESSDDS_ASSIGN_OR_RETURN(e.record_key, r.ReadU64());
  ESSDDS_ASSIGN_OR_RETURN(ByteSpan delta, r.ReadLengthPrefixed());
  e.delta.assign(delta.begin(), delta.end());
  ESSDDS_RETURN_IF_ERROR(r.ExpectEnd());
  return e;
}

Bytes EncodeSeqTargets(const std::map<int, uint64_t>& targets) {
  WireWriter w;
  w.WriteU32(static_cast<uint32_t>(targets.size()));
  for (const auto& [member, seq] : targets) {
    w.WriteU32(static_cast<uint32_t>(member));
    w.WriteU64(seq);
  }
  return w.TakeBuffer();
}

Result<std::map<int, uint64_t>> DecodeSeqTargets(ByteSpan data) {
  WireReader r(data);
  std::map<int, uint64_t> out;
  ESSDDS_ASSIGN_OR_RETURN(const uint32_t count, r.ReadCount(12));
  for (uint32_t i = 0; i < count; ++i) {
    ESSDDS_ASSIGN_OR_RETURN(const uint32_t member, r.ReadU32());
    ESSDDS_ASSIGN_OR_RETURN(const uint64_t seq, r.ReadU64());
    if (member > 255) return Status::Corruption("seq target member invalid");
    if (!out.emplace(static_cast<int>(member), seq).second) {
      return Status::Corruption("seq target member repeated");
    }
  }
  ESSDDS_RETURN_IF_ERROR(r.ExpectEnd());
  return out;
}

// --- ParityServer ------------------------------------------------------

ParityServer::ParityServer(LhRuntime* runtime, const LhOptions& options,
                           uint64_t group, int parity_index)
    : runtime_(runtime),
      options_(options),
      group_(group),
      parity_index_(parity_index),
      k_(static_cast<int>(options.parity_group_size)),
      m_(static_cast<int>(options.parity_count)),
      field_(&gf::GfField::Of(8)),
      code_(RsCode::Create(static_cast<int>(options.parity_group_size),
                           static_cast<int>(options.parity_count))
                .value()) {
  ESSDDS_CHECK(runtime != nullptr);
  ESSDDS_CHECK(parity_index_ >= 0 && parity_index_ < m_);
  members_.resize(static_cast<size_t>(k_));
}

int ParityServer::MemberOfBucket(uint64_t bucket) const {
  const uint64_t base = group_ * static_cast<uint64_t>(k_);
  ESSDDS_CHECK(bucket >= base && bucket < base + static_cast<uint64_t>(k_))
      << "bucket " << bucket << " not in parity group " << group_;
  return static_cast<int>(bucket - base);
}

uint64_t ParityServer::applied(uint64_t bucket) const {
  return members_[static_cast<size_t>(MemberOfBucket(bucket))].applied;
}

void ParityServer::InitMember(uint64_t bucket, uint32_t level, bool loading,
                              Network& net) {
  MemberState& ms = members_[static_cast<size_t>(MemberOfBucket(bucket))];
  // Re-creation after a merge-retire keeps the update sequence and the
  // (empty) rank mirror; only the placement facts refresh.
  ms.inited = true;
  ms.dead = false;
  ms.level = level;
  ms.loading = loading;
  ms.retired = false;
  if (gather_active_ && !decode_valid_) {
    // A member born mid-gather (split racing the recovery) must freeze like
    // the rest or the gather would wait on its slice forever.
    Message freeze;
    freeze.type = MsgType::kReconstructRequest;
    freeze.from = site_;
    freeze.to = runtime_->SiteOfBucket(bucket);
    freeze.key = bucket;
    freeze.bucket_to_split = group_;
    freeze.filter_id = 0;
    freeze.request_id = epoch_;
    net.Send(std::move(freeze));
  }
}

void ParityServer::InstallSeed(std::map<uint64_t, Bytes> parity,
                               std::vector<MemberSeed> seeds) {
  parity_ = std::move(parity);
  for (MemberSeed& seed : seeds) {
    MemberState& ms = members_[static_cast<size_t>(MemberOfBucket(seed.bucket))];
    ms.inited = true;
    ms.dead = false;
    ms.loading = false;
    ms.retired = false;
    ms.level = seed.level;
    ms.applied = seed.applied;
    ms.key_rank = std::move(seed.key_rank);
    ms.ooo.clear();
  }
}

void ParityServer::OnMessage(Message& msg, Network& net) {
  switch (msg.type) {
    case MsgType::kParityUpdate:
      HandleParityUpdate(msg, net);
      return;
    case MsgType::kReconstructRequest: {
      // Peer role: the group's proxy aligns us on a sequence cut (mode 1)
      // or releases the hold (mode 2).
      if (msg.filter_id == 1) {
        auto targets = DecodeSeqTargets(msg.filter_arg);
        ESSDDS_CHECK(targets.ok()) << targets.status().ToString();
        peer_targets_ = std::move(targets.value());
        have_peer_targets_ = true;
        held_ = false;
        peer_piece_sent_ = false;
        peer_epoch_ = msg.request_id;
        peer_proxy_site_ = msg.from;
        for (int i = 0; i < k_; ++i) DrainReady(i, net);
        CheckPeerConverged(net);
      } else if (msg.filter_id == 0) {
        // A member freeze whose member died before answering: declaring
        // it redirects its letters here, and the gather already counts it
        // dead (the tick folds killed members in), so it needs no reply.
        return;
      } else {
        ESSDDS_CHECK(msg.filter_id == 2)
            << "parity site got reconstruct mode " << msg.filter_id;
        held_ = false;
        have_peer_targets_ = false;
        peer_targets_.clear();
        peer_piece_sent_ = false;
        for (int i = 0; i < k_; ++i) DrainReady(i, net);
      }
      return;
    }
    case MsgType::kReconstructSlice: {
      // Proxy role: a survivor's rank slice or a peer's parity piece.
      if (!gather_active_ || msg.request_id != epoch_) return;  // stale
      const std::vector<SiteId> psites =
          runtime_->ParitySitesOfBucket(BucketOfMember(0));
      for (size_t j = 0; j < psites.size(); ++j) {
        if (psites[j] == msg.from) {
          std::map<uint64_t, Bytes>& piece = peer_pieces_[static_cast<int>(j)];
          piece.clear();
          for (WireRecord& r : msg.records) piece[r.key] = std::move(r.value);
          peers_awaited_.erase(static_cast<int>(j));
          CheckGather(net);
          return;
        }
      }
      const int member = MemberOfBucket(msg.key);
      SliceInfo& info = slices_[member];
      info.buffers.clear();
      for (WireRecord& r : msg.records) info.buffers[r.key] = std::move(r.value);
      info.seq = msg.filter_id;
      info.level = msg.new_level;
      info.loading = msg.found;
      CheckGather(net);
      return;
    }
    case MsgType::kRecoveryTick: {
      tick_armed_ = false;
      if (!gather_active_) return;
      // Fold in members whose site died before the coordinator declared
      // them (they will never answer the freeze).
      for (int i = 0; i < k_; ++i) {
        const MemberState& ms = members_[static_cast<size_t>(i)];
        const uint64_t b = BucketOfMember(i);
        if (!ms.inited || ms.dead || !runtime_->BucketExists(b)) continue;
        if (runtime_->SiteIsDead(runtime_->SiteOfBucket(b))) NoteDead(i, net);
      }
      CheckGather(net);
      if (gather_active_ && !decode_valid_) ArmTick(net);
      return;
    }
    case MsgType::kRebuild: {
      const int member = MemberOfBucket(msg.key);
      pending_rebuilds_.insert(member);
      if (decode_valid_) InstallRebuild(member, net);
      return;
    }
    case MsgType::kPing: {
      Message pong;
      pong.type = MsgType::kPong;
      pong.from = site_;
      pong.to = msg.from;
      pong.key = msg.key;
      pong.request_id = msg.request_id;
      pong.trace_id = msg.trace_id;
      net.Send(std::move(pong));
      return;
    }
    case MsgType::kLookup: {
      uint64_t b = msg.bucket_to_split;
      while (b != 0 && !runtime_->BucketExists(b)) b = ParentBucket(b);
      int member = -1;
      const uint64_t base = group_ * static_cast<uint64_t>(k_);
      if (b >= base && b < base + static_cast<uint64_t>(k_)) {
        const int i = static_cast<int>(b - base);
        if (members_[static_cast<size_t>(i)].dead) member = i;
      }
      if (member < 0) {
        // Stale routing (the bucket was installed between send and
        // delivery, or the address folds elsewhere): pass it along.
        Message fwd = msg;
        fwd.from = site_;
        fwd.to = runtime_->SiteOfBucket(b);
        fwd.hops = msg.hops + 1;
        net.Send(std::move(fwd));
        return;
      }
      if (!decode_valid_) {
        parked_reads_.push_back(std::move(msg));
        return;
      }
      if (shadow_.at(member).loading) {
        // The dead bucket was a split target still loading: its records
        // may sit in the parked kTransfer, which only the rebuilt bucket
        // can absorb. A loading bucket parks client ops (lh_server.cc) —
        // its shadow must too, or the proxy answers an authoritative "not
        // found" for a record that is merely in transit.
        const auto dedup = std::make_pair(msg.reply_to, msg.request_id);
        if (!parked_ops_.count(dedup)) parked_ops_.emplace(dedup, std::move(msg));
        return;
      }
      ServeDegradedLookup(msg, net, member);
      return;
    }
    case MsgType::kScan: {
      uint64_t b = msg.key;  // scan messages carry the intended bucket
      while (b != 0 && !runtime_->BucketExists(b)) b = ParentBucket(b);
      const uint64_t base = group_ * static_cast<uint64_t>(k_);
      int member = -1;
      if (b >= base && b < base + static_cast<uint64_t>(k_)) {
        const int i = static_cast<int>(b - base);
        if (members_[static_cast<size_t>(i)].dead) member = i;
      }
      if (member < 0) {
        Message fwd = msg;
        fwd.from = site_;
        fwd.to = runtime_->SiteOfBucket(b);
        fwd.key = b;
        fwd.hops = msg.hops + 1;
        net.Send(std::move(fwd));
        return;
      }
      if (!decode_valid_) {
        parked_reads_.push_back(std::move(msg));
        return;
      }
      if (shadow_.at(member).loading) {
        // As for lookups: a loading shadow's record set is incomplete
        // until the parked transfer replays into the rebuilt bucket.
        // Scans fan out one message per bucket under one request id, so
        // the dedup key mixes in the member index.
        const auto dedup = std::make_pair(
            msg.reply_to, (uint64_t{1} << 62) |
                              (static_cast<uint64_t>(member) << 48) |
                              (msg.request_id & ((uint64_t{1} << 48) - 1)));
        if (!parked_ops_.count(dedup)) parked_ops_.emplace(dedup, std::move(msg));
        return;
      }
      ServeDegradedScan(msg, net, member);
      return;
    }
    case MsgType::kInsert:
    case MsgType::kDelete:
    case MsgType::kSplit:
    case MsgType::kMerge:
    case MsgType::kTransfer:
    case MsgType::kTransferAck: {
      // Mutations and transfer steps addressed to a dead bucket wait for
      // the rebuilt server: an ack finishes a rebuilt sender's transfer
      // (it names the receiver, so the sender needs no other state), a
      // release frees a rebuilt split target. Client retries of the same
      // op park only once.
      if (msg.type == MsgType::kInsert || msg.type == MsgType::kDelete) {
        const auto dedup = std::make_pair(msg.reply_to, msg.request_id);
        if (parked_ops_.count(dedup)) return;
        parked_ops_.emplace(dedup, std::move(msg));
      } else {
        parked_ops_.emplace(
            std::make_pair(msg.from, (uint64_t{1} << 63) | msg.request_id),
            std::move(msg));
      }
      return;
    }
    default:
      ESSDDS_CHECK(false) << "parity server got unexpected message "
                          << MsgTypeToString(msg.type);
  }
}

void ParityServer::HandleParityUpdate(Message& msg, Network& net) {
  const int member = MemberOfBucket(msg.key);
  MemberState& ms = members_[static_cast<size_t>(member)];
  const uint64_t seq = msg.request_id;
  if (seq <= ms.applied) return;  // duplicate (redirect replay)
  ms.ooo.emplace(seq, std::move(msg));
  DrainReady(member, net);
  if (gather_active_ && !decode_valid_) CheckGather(net);
  if (have_peer_targets_) CheckPeerConverged(net);
}

void ParityServer::DrainReady(int member, Network& net) {
  (void)net;
  MemberState& ms = members_[static_cast<size_t>(member)];
  while (!ms.ooo.empty()) {
    if (held_) return;  // piece shipped: the row must not move until release
    if (have_peer_targets_) {
      auto t = peer_targets_.find(member);
      if (t != peer_targets_.end() && ms.applied >= t->second) return;
    }
    auto next = ms.ooo.find(ms.applied + 1);
    if (next == ms.ooo.end()) return;
    Message update = std::move(next->second);
    ms.ooo.erase(next);
    ApplyUpdate(member, update);
  }
}

void ParityServer::ApplyUpdate(int member, Message& msg) {
  MemberState& ms = members_[static_cast<size_t>(member)];
  ESSDDS_CHECK(msg.request_id == ms.applied + 1);
  const uint8_t coeff =
      code_.ParityCoeff(parity_index_, member);
  for (WireRecord& r : msg.records) {
    auto decoded = DecodeParityEntry(r.value);
    ESSDDS_CHECK(decoded.ok()) << decoded.status().ToString();
    ParityEntry& e = decoded.value();
    Bytes& buf = parity_[r.key];
    if (buf.size() < e.delta.size()) buf.resize(e.delta.size(), 0);
    for (size_t i = 0; i < e.delta.size(); ++i) {
      buf[i] ^= static_cast<uint8_t>(field_->Mul(coeff, e.delta[i]));
    }
    TrimTrailingZeros(&buf);
    if (buf.empty()) parity_.erase(r.key);
    if (e.op == 0) {
      ms.key_rank[e.record_key] = r.key;
    } else {
      ms.key_rank.erase(e.record_key);
    }
  }
  ms.level = msg.new_level;
  ms.loading = (msg.filter_id & 1) != 0;
  ms.retired = (msg.filter_id & 2) != 0;
  ms.applied = msg.request_id;
}

// --- proxy role --------------------------------------------------------

void ParityServer::BeginRecovery(uint64_t bucket, Network& net) {
  NoteDead(MemberOfBucket(bucket), net);
  ArmTick(net);
}

void ParityServer::NoteDead(int member, Network& net) {
  MemberState& ms = members_[static_cast<size_t>(member)];
  if (ms.dead) return;
  ESSDDS_CHECK(ms.inited);
  ms.dead = true;
  dead_members_.insert(member);
  gather_active_ = true;
  RestartGather(net);
}

void ParityServer::RestartGather(Network& net) {
  ++epoch_;
  gather_started_us_ = net.now_us();
  slices_.clear();
  peer_pieces_.clear();
  peers_awaited_.clear();
  targets_sent_ = false;
  targets_.clear();
  decode_valid_ = false;
  shadow_.clear();
  for (int i = 0; i < k_; ++i) {
    const MemberState& ms = members_[static_cast<size_t>(i)];
    const uint64_t b = BucketOfMember(i);
    if (!ms.inited || ms.dead || !runtime_->BucketExists(b)) continue;
    Message freeze;
    freeze.type = MsgType::kReconstructRequest;
    freeze.from = site_;
    freeze.to = runtime_->SiteOfBucket(b);
    freeze.key = b;
    freeze.bucket_to_split = group_;
    freeze.filter_id = 0;
    freeze.request_id = epoch_;
    net.Send(std::move(freeze));
  }
  ArmTick(net);
}

void ParityServer::ArmTick(Network& net) {
  if (tick_armed_) return;
  tick_armed_ = true;
  Message tick;
  tick.type = MsgType::kRecoveryTick;
  tick.from = site_;
  tick.to = site_;
  net.ScheduleTimer(std::move(tick), 1000);
}

void ParityServer::CheckGather(Network& net) {
  if (!gather_active_ || decode_valid_) return;
  // 1. Every live existing member sliced; every dead or retired member's
  //    already-emitted updates fully drained (in flight nowhere, applied
  //    here in order).
  for (int i = 0; i < k_; ++i) {
    const MemberState& ms = members_[static_cast<size_t>(i)];
    if (!ms.inited) continue;
    const uint64_t b = BucketOfMember(i);
    if (ms.dead || !runtime_->BucketExists(b)) {
      if (!ms.ooo.empty()) return;
      if (!runtime_->MemberTrafficDrained(b)) return;
    } else if (!slices_.count(i)) {
      return;
    }
  }
  // 2. Targets: the exact per-member cut of the update stream the decode
  //    represents. All values are final here — survivors are frozen at
  //    their slice seq, dead and retired members have drained.
  targets_.clear();
  for (int i = 0; i < k_; ++i) {
    const MemberState& ms = members_[static_cast<size_t>(i)];
    if (!ms.inited) continue;
    auto slice = slices_.find(i);
    targets_[i] = slice != slices_.end() ? slice->second.seq : ms.applied;
  }
  // 3. This row converged to the cut (stragglers may still be in flight).
  for (const auto& [i, seq] : targets_) {
    const MemberState& ms = members_[static_cast<size_t>(i)];
    ESSDDS_CHECK(ms.applied <= seq)
        << "parity row ahead of frozen member " << i;
    if (ms.applied != seq) return;
  }
  // 4. Align the live peers on the same cut.
  const std::vector<SiteId> psites =
      runtime_->ParitySitesOfBucket(BucketOfMember(0));
  if (!targets_sent_) {
    targets_sent_ = true;
    for (size_t j = 0; j < psites.size(); ++j) {
      if (static_cast<int>(j) == parity_index_) continue;
      if (runtime_->SiteIsDead(psites[j])) continue;
      peers_awaited_.insert(static_cast<int>(j));
      Message align;
      align.type = MsgType::kReconstructRequest;
      align.from = site_;
      align.to = psites[j];
      align.filter_id = 1;
      align.filter_arg = EncodeSeqTargets(targets_);
      align.request_id = epoch_;
      align.bucket_to_split = group_;
      net.Send(std::move(align));
    }
  }
  if (!peers_awaited_.empty()) return;
  DecodeDead(net);
}

void ParityServer::DecodeDead(Network& net) {
  const auto start = std::chrono::steady_clock::now();
  if (obs::kMetricsEnabled) {
    // Phase timer (freeze): freeze broadcast -> every survivor sliced, the
    // update stream drained to the cut, and peers aligned. Virtual time,
    // like declare_us — it spans message round-trips, not local CPU.
    net.metrics()
        .histogram("recovery.freeze_us")
        .Record(net.now_us() - gather_started_us_);
  }
  // Rank universe: every rank any survivor, parity row, or dead member's
  // mirror mentions.
  std::set<uint64_t> ranks;
  for (const auto& [i, info] : slices_) {
    (void)i;
    for (const auto& [rank, buf] : info.buffers) {
      (void)buf;
      ranks.insert(rank);
    }
  }
  for (const auto& [rank, buf] : parity_) {
    (void)buf;
    ranks.insert(rank);
  }
  for (const auto& [j, piece] : peer_pieces_) {
    (void)j;
    for (const auto& [rank, buf] : piece) {
      (void)buf;
      ranks.insert(rank);
    }
  }
  for (int i : dead_members_) {
    for (const auto& [key, rank] : members_[static_cast<size_t>(i)].key_rank) {
      (void)key;
      ranks.insert(rank);
    }
  }

  const std::vector<SiteId> psites =
      runtime_->ParitySitesOfBucket(BucketOfMember(0));
  shadow_.clear();
  for (int i : dead_members_) {
    const MemberState& ms = members_[static_cast<size_t>(i)];
    Shadow& sh = shadow_[i];
    sh.key_rank = ms.key_rank;
    sh.level = ms.level;
    sh.loading = ms.loading;
    sh.retired = ms.retired;
    sh.seq = ms.applied;
  }

  std::map<int, std::vector<WireRecord>> recovered;  // dead member -> records
  std::vector<std::optional<Bytes>> pieces(
      static_cast<size_t>(k_ + m_));
  for (uint64_t rank : ranks) {
    for (int i = 0; i < k_; ++i) {
      const MemberState& ms = members_[static_cast<size_t>(i)];
      if (ms.dead) {
        pieces[static_cast<size_t>(i)] = std::nullopt;
        continue;
      }
      auto slice = slices_.find(i);
      if (slice == slices_.end()) {
        // Never created or retired: contributes zero at every rank.
        pieces[static_cast<size_t>(i)] = Bytes{};
        continue;
      }
      auto buf = slice->second.buffers.find(rank);
      pieces[static_cast<size_t>(i)] =
          buf != slice->second.buffers.end() ? buf->second : Bytes{};
    }
    for (int j = 0; j < m_; ++j) {
      const size_t slot = static_cast<size_t>(k_ + j);
      if (j == parity_index_) {
        auto buf = parity_.find(rank);
        pieces[slot] = buf != parity_.end() ? buf->second : Bytes{};
        continue;
      }
      if (runtime_->SiteIsDead(psites[static_cast<size_t>(j)])) {
        pieces[slot] = std::nullopt;
        continue;
      }
      auto piece = peer_pieces_.find(j);
      ESSDDS_CHECK(piece != peer_pieces_.end());
      auto buf = piece->second.find(rank);
      pieces[slot] = buf != piece->second.end() ? buf->second : Bytes{};
    }
    auto decoded = code_.Decode(pieces);
    if (!decoded.ok()) {
      // Which slots survived matters more than the status string when a
      // decode dies — dump the piece bitmap.
      std::string have;
      for (size_t s = 0; s < pieces.size(); ++s) {
        have += pieces[s].has_value() ? '1' : '0';
      }
      ESSDDS_CHECK(false) << "reconstruction decode failed: "
                          << decoded.status().ToString() << " pieces=" << have
                          << " dead=" << dead_members_.size();
    }
    for (int i : dead_members_) {
      auto entry = ParseRankBuffer(decoded.value()[static_cast<size_t>(i)]);
      ESSDDS_CHECK(entry.ok())
          << "decoded rank " << rank << " of member " << i
          << " unparseable: " << entry.status().ToString();
      if (!entry.value().present) continue;
      const Shadow& sh = shadow_[i];
      auto mirror = sh.key_rank.find(entry.value().key);
      ESSDDS_CHECK(mirror != sh.key_rank.end() && mirror->second == rank)
          << "decoded record disagrees with parity rank mirror";
      recovered[i].push_back(
          WireRecord{entry.value().key, std::move(entry.value().value)});
    }
  }
  for (int i : dead_members_) {
    Shadow& sh = shadow_[i];
    sh.records.Adopt(recovered[i]);
    ESSDDS_CHECK(sh.records.size() == sh.key_rank.size())
        << "decode of member " << i << " missing records";
  }
  decode_valid_ = true;
  if (obs::kMetricsEnabled) {
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    net.metrics()
        .histogram("recovery.decode_us")
        .Record(static_cast<uint64_t>(us));
  }
  ServeParkedReads(net);
  // Rebuild orders that arrived mid-gather install now.
  const std::set<int> pending = pending_rebuilds_;
  for (int member : pending) InstallRebuild(member, net);
}

void ParityServer::InstallRebuild(int member, Network& net) {
  const auto install_start = std::chrono::steady_clock::now();
  ESSDDS_CHECK(decode_valid_);
  auto sh = shadow_.find(member);
  ESSDDS_CHECK(sh != shadow_.end());
  const uint64_t bucket = BucketOfMember(member);

  RebuiltBucket state;
  state.level = sh->second.level;
  state.loading = sh->second.loading;
  state.retired = sh->second.retired;
  state.parity_seq = sh->second.seq;
  for (const auto& [key, rank] : sh->second.key_rank) {
    const std::optional<ByteSpan> value = sh->second.records.Lookup(key);
    ESSDDS_CHECK(value.has_value());
    state.rank_records[rank] =
        WireRecord{key, Bytes(value->begin(), value->end())};
  }
  runtime_->RebuildBucket(bucket, std::move(state));
  if (obs::kMetricsEnabled) {
    net.metrics().counter("recovery.rebuilt_buckets").Increment();
  }

  MemberState& ms = members_[static_cast<size_t>(member)];
  ms.dead = false;
  dead_members_.erase(member);
  pending_rebuilds_.erase(member);
  shadow_.erase(member);

  // Mutations that waited for this bucket chase it to the new site.
  const SiteId dest = runtime_->SiteOfBucket(bucket);
  for (auto it = parked_ops_.begin(); it != parked_ops_.end();) {
    Message& op = it->second;
    uint64_t target;
    switch (op.type) {
      case MsgType::kInsert:
      case MsgType::kDelete:
      case MsgType::kLookup:  // parked off a loading shadow
        target = op.bucket_to_split;
        while (target != 0 && !runtime_->BucketExists(target)) {
          target = ParentBucket(target);
        }
        break;
      case MsgType::kTransfer:
      case MsgType::kTransferAck:
      case MsgType::kScan:  // parked off a loading shadow; carries its bucket
        target = op.key;
        break;
      default:  // kSplit / kMerge carry their victim explicitly
        target = op.bucket_to_split;
        break;
    }
    if (target != bucket) {
      ++it;
      continue;
    }
    Message fwd = std::move(op);
    fwd.from = site_;
    fwd.to = dest;
    net.Send(std::move(fwd));
    it = parked_ops_.erase(it);
  }

  Message done;
  done.type = MsgType::kRebuildDone;
  done.from = site_;
  done.to = runtime_->CoordinatorSite();
  done.key = bucket;
  net.Send(std::move(done));

  if (obs::kMetricsEnabled) {
    // Phase timer (install): shadow -> live bucket, parked ops chased,
    // coordinator notified. Local CPU time, like decode_us.
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - install_start)
                        .count();
    net.metrics()
        .histogram("recovery.install_us")
        .Record(static_cast<uint64_t>(us));
  }

  if (dead_members_.empty()) ReleaseAll(net);
}

void ParityServer::ReleaseAll(Network& net) {
  const std::vector<SiteId> psites =
      runtime_->ParitySitesOfBucket(BucketOfMember(0));
  for (int i = 0; i < k_; ++i) {
    const MemberState& ms = members_[static_cast<size_t>(i)];
    const uint64_t b = BucketOfMember(i);
    if (!ms.inited || !runtime_->BucketExists(b)) continue;
    Message release;
    release.type = MsgType::kReconstructRequest;
    release.from = site_;
    release.to = runtime_->SiteOfBucket(b);
    release.key = b;
    release.bucket_to_split = group_;
    release.filter_id = 2;
    release.request_id = epoch_;
    net.Send(std::move(release));
  }
  for (size_t j = 0; j < psites.size(); ++j) {
    if (static_cast<int>(j) == parity_index_) continue;
    if (runtime_->SiteIsDead(psites[j])) continue;
    Message release;
    release.type = MsgType::kReconstructRequest;
    release.from = site_;
    release.to = psites[j];
    release.filter_id = 2;
    release.request_id = epoch_;
    release.bucket_to_split = group_;
    net.Send(std::move(release));
  }
  gather_active_ = false;
  decode_valid_ = false;
  targets_sent_ = false;
  targets_.clear();
  slices_.clear();
  peer_pieces_.clear();
  peers_awaited_.clear();
  shadow_.clear();
}

// --- peer role ---------------------------------------------------------

void ParityServer::CheckPeerConverged(Network& net) {
  if (!have_peer_targets_ || peer_piece_sent_) return;
  for (const auto& [i, seq] : peer_targets_) {
    const MemberState& ms = members_[static_cast<size_t>(i)];
    ESSDDS_CHECK(ms.applied <= seq)
        << "peer parity row ahead of the gather cut at member " << i;
    if (ms.applied != seq) return;
  }
  Message piece;
  piece.type = MsgType::kReconstructSlice;
  piece.from = site_;
  piece.to = peer_proxy_site_;
  piece.key = BucketOfMember(0);
  piece.bucket_to_split = group_;
  piece.request_id = peer_epoch_;
  piece.records.reserve(parity_.size());
  for (const auto& [rank, buf] : parity_) {
    piece.records.push_back(WireRecord{rank, buf});
  }
  net.Send(std::move(piece));
  peer_piece_sent_ = true;
  held_ = true;
}

// --- degraded serving --------------------------------------------------

void ParityServer::ServeParkedReads(Network& net) {
  std::vector<Message> reads = std::move(parked_reads_);
  parked_reads_.clear();
  for (Message& m : reads) OnMessage(m, net);
}

void ParityServer::ServeDegradedLookup(Message& msg, Network& net,
                                       int member) {
  const Shadow& sh = shadow_.at(member);
  const uint64_t bucket = BucketOfMember(member);
  // Address verification exactly as the dead server would have run it,
  // under its reconstructed level — or, for a merge victim that died
  // awaiting its ack, straight to the parent that absorbed its records.
  const uint64_t image = LhKeyImage(msg.key, options_);
  const uint64_t a_prime = image & ((uint64_t{1} << sh.level) - 1);
  uint64_t route = bucket;
  if (sh.retired) {
    route = ParentBucket(bucket);
  } else if (a_prime != bucket) {
    route = a_prime;
    if (sh.level >= 1) {
      const uint64_t a_second =
          image & ((uint64_t{1} << (sh.level - 1)) - 1);
      if (a_second > bucket && a_second < a_prime) route = a_second;
    }
  }
  if (route != bucket) {
    while (route != 0 && !runtime_->BucketExists(route)) {
      route = ParentBucket(route);
    }
    Message fwd = msg;
    fwd.from = site_;
    fwd.to = runtime_->SiteOfBucket(route);
    fwd.bucket_to_split = route;
    fwd.hops = msg.hops + 1;
    if (msg.hops == 0) {
      fwd.has_iam = true;
      fwd.iam_level = sh.level;
      fwd.iam_address = bucket;
    }
    net.Send(std::move(fwd));
    return;
  }
  if (obs::kMetricsEnabled) {
    net.metrics().counter("recovery.degraded_reads").Increment();
  }
  Message reply;
  reply.type = MsgType::kLookupReply;
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
  const std::optional<ByteSpan> value = sh.records.Lookup(msg.key);
  reply.found = value.has_value();
  if (reply.found) reply.value.assign(value->begin(), value->end());
  net.Send(std::move(reply));
}

void ParityServer::ServeDegradedScan(Message& msg, Network& net, int member) {
  const Shadow& sh = shadow_.at(member);
  const uint64_t bucket = BucketOfMember(member);
  // Route exactly as the dead server would have (its reconstructed level
  // and retired flag say where).
  if (!PropagateScan(msg, bucket, sh.level, sh.retired, site_, *runtime_,
                     net)) {
    return;
  }
  if (obs::kMetricsEnabled) {
    net.metrics().counter("recovery.degraded_scans").Increment();
  }
  ScanTask task = MakeScanTask(msg, bucket, sh.level, site_, sh.records,
                               &shadow_generation_);
  // Always evaluated inline: the shadow is immutable while it exists, and a
  // task queued in the network's batch would dangle once the bucket
  // installs.
  const std::unique_ptr<ScanFilter::Prepared> prepared =
      runtime_->FilterById(msg.filter_id).Prepare(msg.filter_arg);
  task.prepared = prepared.get();
  ExecuteScanTask(task);
  net.Send(std::move(task.reply));
}

}  // namespace essdds::sdds
