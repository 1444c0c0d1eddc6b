#include "net/socket_network.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "net/admin.h"
#include "util/logging.h"
#include "util/wire.h"

namespace essdds::net {

using sdds::Message;
using sdds::MsgType;
using sdds::Site;
using sdds::SiteId;

namespace {

// Per-connection write-queue budget; connections over it are not polled
// for reading until the queue drains.
constexpr size_t kMaxConnQueuedBytes = 64u << 20;

uint64_t MonotonicNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

SocketNetwork::SocketNetwork(Options options)
    : options_(std::move(options)), start_ns_(MonotonicNs()) {
  ESSDDS_CHECK(!options_.cluster.hosts.empty());
  ESSDDS_CHECK(options_.host_index < options_.cluster.hosts.size());
  corrupt_frames_ = &metrics().counter("net.corrupt_frames");
  admin_pulls_ = &metrics().counter("net.admin_pulls");
  backpressure_gauge_ = &metrics().gauge("net.backpressure_bytes");
  recv_msg_bytes_ = &metrics().histogram("net.recv_msg_bytes");
}

obs::Counter& SocketNetwork::DeliveredCounter(MsgType type) {
  const size_t idx = static_cast<size_t>(type);
  if (idx >= delivered_by_type_.size()) {
    delivered_by_type_.resize(idx + 1, nullptr);
  }
  if (delivered_by_type_[idx] == nullptr) {
    delivered_by_type_[idx] = &metrics().counter(
        "net.delivered." + std::string(sdds::MsgTypeToString(type)));
  }
  return *delivered_by_type_[idx];
}

SocketNetwork::~SocketNetwork() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

Status SocketNetwork::Start() {
  ESSDDS_ASSIGN_OR_RETURN(
      listen_fd_, ListenOn(options_.cluster.hosts[options_.host_index]));
  return Status::OK();
}

uint64_t SocketNetwork::now_us() const {
  return (MonotonicNs() - start_ns_) / 1000;
}

void SocketNetwork::RegisterAs(SiteId id, Site* site) {
  ESSDDS_CHECK(site != nullptr);
  ESSDDS_CHECK(local_sites_.emplace(id, site).second)
      << "site " << id << " registered twice";
}

SiteId SocketNetwork::Register(Site*) {
  ESSDDS_CHECK(false)
      << "SocketNetwork sites have fixed cluster ids; use RegisterAs. "
         "(In-process LhClient is not supported over sockets — use "
         "net::SocketClient.)";
  return sdds::kInvalidSite;
}

bool SocketNetwork::HostedHere(SiteId site) const {
  if (IsClientSite(site)) return false;
  return options_.cluster.HostOfSite(site) == options_.host_index;
}

void SocketNetwork::NoteExtentAtLeast(uint64_t extent) {
  if (on_extent_) on_extent_(extent);
}

Conn* SocketNetwork::PeerConn(size_t host) {
  auto it = peer_out_.find(host);
  if (it != peer_out_.end()) return it->second;
  Result<int> fd = DialStart(options_.cluster.hosts[host]);
  if (!fd.ok()) {
    ESSDDS_LOG(kWarning) << "dial host " << host << " ("
                         << options_.cluster.hosts[host].ToString()
                         << ") failed: " << fd.status().ToString();
    return nullptr;
  }
  conns_.push_back(Connection{std::make_unique<Conn>(*fd),
                              static_cast<SiteId>(
                                  kHostSiteBase + options_.host_index),
                              &metrics().gauge("net.conn.host." +
                                               std::to_string(host) +
                                               ".backpressure_bytes")});
  Conn* conn = conns_.back().conn.get();
  // Identify ourselves first so the peer can attribute the stream; frames
  // queue behind the in-progress connect and flush when it completes.
  conn->EnqueueFrame(EncodeFrame(
      FrameKind::kHello,
      EncodeHello(static_cast<uint32_t>(kHostSiteBase + options_.host_index))));
  peer_out_[host] = conn;
  return conn;
}

void SocketNetwork::EnqueueMessage(Conn* conn, const Message& msg) {
  conn->EnqueueFrame(EncodeMessageFrame(msg));
}

void SocketNetwork::Send(Message msg) {
  Account(msg);
  const SiteId to = msg.to;
  if (local_sites_.count(to) != 0 || HostedHere(to)) {
    // FIFO local inbox, drained by the loop: local hops behave like a
    // zero-latency link without re-entrant handler recursion.
    local_inbox_.push_back(std::move(msg));
    return;
  }
  if (IsClientSite(to)) {
    auto it = client_conns_.find(to);
    if (it == client_conns_.end() || it->second->dead()) {
      // The client hung up (or never said hello here). Drop; its retry
      // machinery re-asks and re-registers.
      ++stats_.dropped_messages;
      return;
    }
    EnqueueMessage(it->second, msg);
    return;
  }
  Conn* peer = PeerConn(options_.cluster.HostOfSite(to));
  if (peer == nullptr || peer->dead()) {
    ++stats_.dropped_messages;
    return;
  }
  EnqueueMessage(peer, msg);
}

void SocketNetwork::RouteIncoming(Message msg) {
  // Extent advisories implied by protocol traffic (see set_on_extent): a
  // kSplit proves the new bucket exists; a kTransfer proves its
  // destination does. These keep this host's extent knowledge fresh enough
  // that the parent-fold in HandleKeyOp can never fold past a bucket's own
  // children (which would self-forward forever).
  if (msg.type == MsgType::kSplit) {
    NoteExtentAtLeast(msg.key + 1);
  } else if (msg.type == MsgType::kTransfer && IsBucketSite(msg.to)) {
    NoteExtentAtLeast(BucketOfSite(msg.to) + 1);
  }
  MaterializeIfNeeded(msg.to);
  if (local_sites_.count(msg.to) != 0) {
    local_inbox_.push_back(std::move(msg));
    return;
  }
  if (!IsClientSite(msg.to) && !HostedHere(msg.to)) {
    // Transit: a peer mis-routed (e.g. raced a membership change we don't
    // support yet). Forward rather than drop; Send re-accounts it as this
    // host's own send, which it now is.
    Send(std::move(msg));
    return;
  }
  ++stats_.dropped_messages;
}

void SocketNetwork::MaterializeIfNeeded(SiteId to) {
  if (local_sites_.count(to) == 0 && HostedHere(to) && IsBucketSite(to) &&
      materialize_) {
    Site* site = materialize_(BucketOfSite(to));
    if (site != nullptr) RegisterAs(to, site);
  }
}

bool SocketNetwork::DrainInbox() {
  bool any = false;
  while (!local_inbox_.empty()) {
    Message msg = std::move(local_inbox_.front());
    local_inbox_.pop_front();
    // Local hops reach hosted-but-unregistered buckets too: when a splitting
    // bucket and its new child share a host, the parent's kTransfer is
    // the child's first-ever message and must create it, exactly as a
    // network frame would in RouteIncoming.
    MaterializeIfNeeded(msg.to);
    auto it = local_sites_.find(msg.to);
    if (it == local_sites_.end()) {
      ++stats_.dropped_messages;
      continue;
    }
    any = true;
    // The delivery hop + per-type counter: the receive-side mirror of
    // Account()'s send-side bookkeeping, recorded just before the handler
    // runs so a traced op's ring shows send -> deliver pairs per link.
    TraceHop(obs::HopKind::kDeliver, msg);
    DeliveredCounter(msg.type).Increment();
    it->second->OnMessage(msg, *this);
  }
  return any;
}

void SocketNetwork::HandleFrame(size_t conn_index, Frame frame) {
  // NOTE: dispatch below can dial new connections (growing conns_), so the
  // Connection must be re-fetched by index, never held by reference across
  // RouteIncoming.
  ++frames_received_;
  switch (frame.kind) {
    case FrameKind::kHello: {
      Result<uint32_t> site = DecodeHello(frame.payload);
      if (!site.ok()) {
        ESSDDS_LOG(kWarning) << "bad hello: " << site.status().ToString();
        break;
      }
      Connection& c = conns_[conn_index];
      c.hello_site = *site;
      c.bp_gauge = &metrics().gauge("net.conn." +
                                    std::to_string(c.hello_site) +
                                    ".backpressure_bytes");
      if (IsClientSite(c.hello_site)) {
        // Latest connection wins: a reconnecting client replaces its stale
        // registration.
        client_conns_[c.hello_site] = c.conn.get();
      }
      return;
    }
    case FrameKind::kExtent: {
      Result<uint64_t> extent = DecodeExtent(frame.payload);
      if (extent.ok()) {
        NoteExtentAtLeast(*extent);
        return;
      }
      ESSDDS_LOG(kWarning) << "bad extent frame: "
                           << extent.status().ToString();
      break;
    }
    case FrameKind::kMessage: {
      recv_msg_bytes_->Record(frame.payload.size());
      Result<Message> msg = Message::Decode(
          ByteSpan(frame.payload.data(), frame.payload.size()));
      if (msg.ok()) {
        RouteIncoming(std::move(*msg));
        return;
      }
      ESSDDS_LOG(kWarning) << "undecodable message frame: "
                           << msg.status().ToString();
      break;
    }
    case FrameKind::kAdminMetricsPull:
    case FrameKind::kAdminTracePull:
    case FrameKind::kAdminHealth: {
      if (ServeAdminPull(conn_index, frame)) return;
      ESSDDS_LOG(kWarning) << "malformed admin pull";
      break;
    }
    case FrameKind::kAdminReply:
      // Replies flow host -> admin only; one arriving here is garbage.
      ESSDDS_LOG(kWarning) << "unexpected admin reply frame from a peer";
      break;
  }
  // A peer that frames garbage is broken; keeping the stream would only
  // yield more garbage. Semantic garbage (a CRC-valid frame with an
  // undecodable payload) counts as corruption like a failed CRC does.
  corrupt_frames_->Increment();
  (void)::shutdown(conns_[conn_index].conn->fd(), SHUT_RDWR);
}

bool SocketNetwork::ServeAdminPull(size_t conn_index, const Frame& frame) {
  admin_pulls_->Increment();
  Bytes body;
  switch (frame.kind) {
    case FrameKind::kAdminMetricsPull:
      body = EncodeMetricsBody(metrics(), stats());
      break;
    case FrameKind::kAdminTracePull: {
      WireReader r(ByteSpan(frame.payload.data(), frame.payload.size()));
      Result<uint64_t> id = r.ReadU64();
      if (!id.ok() || !r.ExpectEnd().ok()) return false;
      body = EncodeTraceBody(trace(), *id);
      break;
    }
    case FrameKind::kAdminHealth: {
      const std::string health = admin_health_ ? admin_health_() : "{}";
      body.assign(health.begin(), health.end());
      break;
    }
    default:
      return false;
  }
  conns_[conn_index].conn->EnqueueFrame(EncodeFrame(
      FrameKind::kAdminReply,
      EncodeAdminReply(frame.kind,
                       static_cast<uint32_t>(options_.host_index), now_us(),
                       body)));
  return true;
}

bool SocketNetwork::RunOnce(int timeout_ms) {
  bool progress = DrainInbox();

  std::vector<PollEntry> entries;
  entries.reserve(conns_.size() + 1);
  entries.push_back(PollEntry{listen_fd_, true, false});
  size_t queued_total = 0;
  for (Connection& c : conns_) {
    PollEntry e;
    e.fd = c.conn->fd();
    // Backpressure: a connection over its write budget is not read from —
    // its requests (and the replies they would generate) wait until the
    // peer drains what we already owe it.
    e.want_read = c.conn->queued_bytes() < kMaxConnQueuedBytes;
    e.want_write = c.conn->wants_write();
    entries.push_back(e);
    queued_total += c.conn->queued_bytes();
    if (c.bp_gauge != nullptr) {
      c.bp_gauge->Set(static_cast<int64_t>(c.conn->queued_bytes()));
    }
  }
  backpressure_gauge_->Set(static_cast<int64_t>(queued_total));
  poller_.Wait(entries, progress ? 0 : timeout_ms);

  if (entries[0].readable) {
    for (;;) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) break;
      if (!SetNonBlocking(fd).ok()) {
        ::close(fd);
        continue;
      }
      conns_.push_back(Connection{std::make_unique<Conn>(fd), sdds::kInvalidSite});
      progress = true;
    }
  }

  // entries[i + 1] corresponds to conns_[i]; HandleFrame may grow conns_
  // (PeerConn dials), so access is by index and size is re-checked never
  // cached through a reference.
  const size_t polled = std::min(conns_.size(), entries.size() - 1);
  for (size_t i = 0; i < polled; ++i) {
    const PollEntry& e = entries[i + 1];
    if (e.readable || e.error) {
      const bool was_corrupt = conns_[i].conn->stream_corrupt();
      (void)conns_[i].conn->ReadReady();
      for (;;) {
        Frame frame;
        Result<bool> next = conns_[i].conn->NextFrame(&frame);
        if (!next.ok()) {
          // Count each corrupt stream once (the decoder repeats the error
          // every turn until the connection is reaped).
          if (!was_corrupt) corrupt_frames_->Increment();
          ESSDDS_LOG(kWarning)
              << "dropping connection fd " << conns_[i].conn->fd() << ": "
              << next.status().ToString();
          (void)::shutdown(conns_[i].conn->fd(), SHUT_RDWR);
          break;
        }
        if (!*next) break;
        progress = true;
        HandleFrame(i, std::move(frame));
      }
    }
    if ((e.writable || e.error) && conns_[i].conn->wants_write()) {
      if (conns_[i].conn->Flush()) progress = true;
    }
  }

  // Frames delivered above queued local messages; run their handlers (which
  // may send further messages — the drain loops to empty).
  if (DrainInbox()) progress = true;

  // Evaluate this turn's scan batch and send the replies.
  if (scans_pending()) {
    DrainDeferredScans();
    if (DrainInbox()) progress = true;
  }

  // Reap dead connections (EOF, reset, garbage). Erase their routing
  // entries by identity; the Conn closes its fd on destruction.
  for (size_t i = 0; i < conns_.size();) {
    Conn* conn = conns_[i].conn.get();
    if (!conn->dead()) {
      ++i;
      continue;
    }
    for (auto it = client_conns_.begin(); it != client_conns_.end();) {
      it = it->second == conn ? client_conns_.erase(it) : std::next(it);
    }
    for (auto it = peer_out_.begin(); it != peer_out_.end();) {
      it = it->second == conn ? peer_out_.erase(it) : std::next(it);
    }
    // A reaped connection's queue is gone; zero its gauge so the scrape
    // doesn't report phantom backpressure forever.
    if (conns_[i].bp_gauge != nullptr) conns_[i].bp_gauge->Set(0);
    conns_.erase(conns_.begin() + static_cast<ptrdiff_t>(i));
    progress = true;
  }
  return progress;
}

size_t SocketNetwork::total_queued_bytes() const {
  size_t total = 0;
  for (const Connection& c : conns_) total += c.conn->queued_bytes();
  return total;
}

void SocketNetwork::BroadcastExtent(uint64_t extent) {
  const Bytes frame = EncodeFrame(FrameKind::kExtent, EncodeExtent(extent));
  for (size_t h = 0; h < options_.cluster.hosts.size(); ++h) {
    if (h == options_.host_index) continue;
    Conn* peer = PeerConn(h);
    if (peer != nullptr && !peer->dead()) peer->EnqueueFrame(frame);
  }
}

}  // namespace essdds::net
