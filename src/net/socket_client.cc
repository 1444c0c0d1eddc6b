#include "net/socket_client.h"

#include <chrono>
#include <map>
#include <string>
#include <utility>

#include "util/logging.h"

namespace essdds::net {

using sdds::Message;
using sdds::MsgType;

namespace {

uint64_t MonotonicNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

SocketClient::SocketClient(Options options)
    : options_(std::move(options)),
      start_ns_(MonotonicNs()),
      core_(kClientSiteBase + options_.client_id, kCoordinatorSite,
            net::SiteOfBucket, options_.lh, registry_, trace_),
      corrupt_counter_(&registry_.counter("net.corrupt_frames")) {
  ESSDDS_CHECK(!options_.cluster.hosts.empty());
  ESSDDS_CHECK(IsClientSite(core_.site()));
}

SocketClient::~SocketClient() = default;

uint64_t SocketClient::now_us() const {
  return (MonotonicNs() - start_ns_) / 1000;
}

Status SocketClient::Connect() {
  conns_.resize(options_.cluster.hosts.size());
  for (size_t h = 0; h < options_.cluster.hosts.size(); ++h) {
    ESSDDS_ASSIGN_OR_RETURN(
        const int fd,
        DialBlocking(options_.cluster.hosts[h], kDialTimeoutMs));
    conns_[h] = std::make_unique<Conn>(fd);
    conns_[h]->EnqueueFrame(
        EncodeFrame(FrameKind::kHello, EncodeHello(core_.site())));
  }
  return Status::OK();
}

Conn* SocketClient::HostConn(size_t host) {
  std::unique_ptr<Conn>& slot = conns_[host];
  if (slot != nullptr && !slot->dead()) return slot.get();
  // Redial (non-blocking): a restarted server picks the stream back up; a
  // dead one errors the connection again and the op keeps retrying until
  // its budget runs out.
  slot.reset();
  Result<int> fd = DialStart(options_.cluster.hosts[host]);
  if (!fd.ok()) return nullptr;
  slot = std::make_unique<Conn>(*fd);
  slot->EnqueueFrame(EncodeFrame(FrameKind::kHello, EncodeHello(core_.site())));
  return slot.get();
}

void SocketClient::Send(const Message& msg) {
  if (obs::kMetricsEnabled) {
    trace_.Record({now_us(), msg.trace_id, msg.request_id, msg.key, msg.from,
                   msg.to, static_cast<uint8_t>(msg.type),
                   obs::HopKind::kSend});
  }
  Conn* conn = HostConn(options_.cluster.HostOfSite(msg.to));
  if (conn == nullptr) return;  // redial failed; timeout path owns recovery
  conn->EnqueueFrame(EncodeMessageFrame(msg));
}

Result<uint64_t> SocketClient::SubmitKeyOp(MsgType type, uint64_t key,
                                           Bytes value) {
  // Window cap: pump until a slot frees (completions may also fail ops,
  // which frees their slots too).
  while (core_.inflight() >= options_.max_inflight) {
    (void)PumpOnce(10);
    CheckTimeouts();
  }
  const Message req = core_.StartKeyOp(type, key, std::move(value), now_us());
  Send(req);
  // Opportunistically drain arrived replies so a deep pipeline keeps the
  // socket moving without waiting for Await.
  (void)PumpOnce(0);
  return req.request_id;
}

Result<uint64_t> SocketClient::SubmitInsert(uint64_t key, Bytes value) {
  return SubmitKeyOp(MsgType::kInsert, key, std::move(value));
}
Result<uint64_t> SocketClient::SubmitLookup(uint64_t key) {
  return SubmitKeyOp(MsgType::kLookup, key, {});
}
Result<uint64_t> SocketClient::SubmitDelete(uint64_t key) {
  return SubmitKeyOp(MsgType::kDelete, key, {});
}

void SocketClient::Complete(sdds::ClientCore::Completion done) {
  if (!done.reply.ok()) {
    done_.emplace(done.request_id, done.reply.status());
    return;
  }
  OpResult result;
  result.type = done.reply->type;
  result.found = done.reply->found;
  result.value = std::move(done.reply->value);
  result.trace_id = done.trace_id;
  done_.emplace(done.request_id, std::move(result));
}

bool SocketClient::PumpOnce(int timeout_ms) {
  std::vector<PollEntry> entries;
  std::vector<size_t> hosts;
  for (size_t h = 0; h < conns_.size(); ++h) {
    if (conns_[h] == nullptr || conns_[h]->dead()) continue;
    PollEntry e;
    e.fd = conns_[h]->fd();
    e.want_read = true;
    e.want_write = conns_[h]->wants_write();
    entries.push_back(e);
    hosts.push_back(h);
  }
  if (entries.empty()) return false;
  poller_.Wait(entries, timeout_ms);
  bool progress = false;
  for (size_t i = 0; i < entries.size(); ++i) {
    Conn* conn = conns_[hosts[i]].get();
    const PollEntry& e = entries[i];
    if (e.readable || e.error) {
      (void)conn->ReadReady();
      for (;;) {
        Frame frame;
        Result<bool> next = conn->NextFrame(&frame);
        if (!next.ok()) {
          ESSDDS_LOG(kWarning) << "server stream corrupt, dropping: "
                               << next.status().ToString();
          corrupt_counter_->Increment();
          conns_[hosts[i]].reset();
          break;
        }
        if (!*next) break;
        progress = true;
        if (frame.kind != FrameKind::kMessage) continue;  // ignore control
        Result<Message> msg = Message::Decode(
            ByteSpan(frame.payload.data(), frame.payload.size()));
        if (!msg.ok()) {
          ESSDDS_LOG(kWarning) << "undecodable reply: "
                               << msg.status().ToString();
          continue;
        }
        if (auto done = core_.OnReply(std::move(*msg), now_us())) {
          Complete(std::move(*done));
        }
      }
    } else if (e.writable && conn->wants_write()) {
      if (conn->Flush()) progress = true;
    }
  }
  return progress;
}

void SocketClient::CheckTimeouts() {
  for (sdds::ClientCore::Expiry& e : core_.Tick(now_us())) {
    // A kDeadSite report goes to the coordinator on host 0: best-effort,
    // it needs no reply and host 0 may itself be the dead one.
    for (const Message& m : e.sends) Send(m);
    if (e.failed.has_value()) Complete(std::move(*e.failed));
  }
}

Result<SocketClient::OpResult> SocketClient::Await(uint64_t token) {
  for (;;) {
    auto it = done_.find(token);
    if (it != done_.end()) {
      Result<OpResult> result = std::move(it->second);
      done_.erase(it);
      return result;
    }
    ESSDDS_CHECK(core_.pending(token))
        << "awaiting unknown op " << token;
    (void)PumpOnce(10);
    CheckTimeouts();
  }
}

Status SocketClient::AwaitAll() {
  Status first = Status::OK();
  while (core_.inflight() != 0) {
    (void)PumpOnce(10);
    CheckTimeouts();
  }
  for (auto& [id, result] : done_) {
    if (first.ok() && !result.ok()) first = result.status();
  }
  done_.clear();
  return first;
}

Result<bool> SocketClient::Insert(uint64_t key, Bytes value) {
  ESSDDS_ASSIGN_OR_RETURN(const uint64_t token,
                          SubmitInsert(key, std::move(value)));
  ESSDDS_ASSIGN_OR_RETURN(OpResult r, Await(token));
  ESSDDS_CHECK(r.type == MsgType::kInsertAck);
  return r.found;
}

Result<Bytes> SocketClient::Lookup(uint64_t key) {
  ESSDDS_ASSIGN_OR_RETURN(const uint64_t token, SubmitLookup(key));
  ESSDDS_ASSIGN_OR_RETURN(OpResult r, Await(token));
  ESSDDS_CHECK(r.type == MsgType::kLookupReply);
  if (!r.found) {
    return Status::NotFound("no record with key " + std::to_string(key));
  }
  return std::move(r.value);
}

Status SocketClient::Delete(uint64_t key) {
  ESSDDS_ASSIGN_OR_RETURN(const uint64_t token, SubmitDelete(key));
  ESSDDS_ASSIGN_OR_RETURN(OpResult r, Await(token));
  ESSDDS_CHECK(r.type == MsgType::kDeleteAck);
  if (!r.found) {
    return Status::NotFound("no record with key " + std::to_string(key));
  }
  return Status::OK();
}

Result<SocketClient::ScanResult> SocketClient::Scan(uint64_t filter_id,
                                                    Bytes filter_arg) {
  if (core_.inflight() != 0) {
    return Status::FailedPrecondition(
        "scan requires an empty pipeline; call AwaitAll first");
  }
  // Termination cannot use the simulators' quiescence barrier, which is
  // unobservable across processes. Instead each reply carries its bucket's
  // level, from which the buckets it forwarded to follow. `expected` maps
  // every bucket known to be scanned to the level it was scanned under.
  const uint64_t start_us = now_us();
  std::map<uint64_t, uint32_t> expected;
  for (const Message& req : core_.StartScan(filter_id, filter_arg, start_us)) {
    expected.emplace(req.key, req.assumed_level);
    Send(req);
  }
  // Scans have no retransmission layer (mirroring the simulators, where
  // scan traffic is never fault-eligible); one overall deadline bounds the
  // wait so a dead server is an error, not a hang.
  const uint64_t deadline = sdds::ClientCore::BackoffDeadline(
      start_us, options_.lh.request_timeout_us, /*attempts=*/0);
  const std::map<uint64_t, Message>& replies = core_.scan_replies();
  for (;;) {
    // A reply from bucket b at level l proves b forwarded to child b + 2^l'
    // for every l' in [assumed_b, l) — all of which exist (no merges: a
    // bucket at level l has split at every level since its creation).
    // Children sort after their parent, so one ascending walk sees them.
    size_t answered = 0;
    for (const auto& [bucket, assumed] : expected) {
      auto rit = replies.find(bucket);
      if (rit == replies.end()) continue;
      ++answered;
      for (uint32_t l = assumed; l < rit->second.new_level; ++l) {
        expected.emplace(bucket + (uint64_t{1} << l), l + 1);
      }
    }
    if (answered == expected.size()) break;
    if (now_us() > deadline) {
      core_.AbandonScan();
      return Status::Unavailable(
          "scan timed out with " + std::to_string(expected.size() - answered) +
          " bucket(s) unanswered");
    }
    (void)PumpOnce(10);
  }
  return core_.FinishScan(now_us());
}

}  // namespace essdds::net
