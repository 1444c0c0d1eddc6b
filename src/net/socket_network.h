#ifndef ESSDDS_NET_SOCKET_NETWORK_H_
#define ESSDDS_NET_SOCKET_NETWORK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "net/cluster.h"
#include "net/socket_transport.h"
#include "sdds/network.h"

namespace essdds::net {

/// The third sdds::Network implementation: real sockets, one process per
/// cluster host. Where SimNetwork delivers re-entrantly and EventNetwork
/// delivers from a virtual-time schedule, SocketNetwork delivers from a
/// poll(2) event loop over non-blocking TCP/unix-domain connections:
///
///   - Send() routes by the global site-id scheme (cluster.h): sites hosted
///     by this process land in a local inbox (delivered FIFO by the loop —
///     never re-entrantly, so handler recursion depth stays bounded);
///     remote bucket/coordinator sites are framed onto a dialed-on-demand
///     server-to-server connection; client sites are framed onto the
///     connection the client registered with its kHello.
///   - RunOnce() is one loop turn: drain the local inbox, poll, accept,
///     read (bytes -> FrameDecoder -> Message::Decode -> dispatch), flush
///     write queues, reap dead connections, drain queued scans.
///   - Backpressure: each connection has a bounded write queue. Protocol
///     sends are never dropped mid-stream; instead the loop stops READING
///     from a connection whose write queue is over budget, so a slow or
///     stalled peer throttles its own request stream instead of ballooning
///     this process. (A dead connection's queue is discarded — the client
///     retry machinery owns recovery.)
///
/// Single-threaded like the simulators: every handler runs on the loop
/// thread. asynchronous() is true — replies are late, lost, or duplicated
/// exactly as on an event network, and clients keep retransmission state.
class SocketNetwork final : public sdds::Network {
 public:
  struct Options {
    ClusterMap cluster;
    size_t host_index = 0;
  };

  explicit SocketNetwork(Options options);
  ~SocketNetwork() override;

  /// Binds the host's listen endpoint. Call before the first RunOnce.
  Status Start();

  /// Lazy bucket materialization: called (if set) when a frame addresses a
  /// bucket site that is hosted here but not yet registered — the receiving
  /// process creates the LhBucketServer on demand (split targets learn of
  /// their birth from their first frame, usually the kTransfer of their
  /// records). Returns the new Site, which this network registers and then
  /// delivers to, or nullptr to drop the message.
  using MaterializeFn = std::function<sdds::Site*(uint64_t bucket)>;
  void set_materialize(MaterializeFn fn) { materialize_ = std::move(fn); }

  /// File-extent advisory: invoked with a lower bound on the file extent,
  /// from kExtent broadcast frames and from extent-implying protocol
  /// messages observed in dispatch (a kSplit order proves every child of
  /// the splitting bucket below its new level exists). The host keeps the
  /// running max; see BucketHost::BucketExists.
  using ExtentFn = std::function<void(uint64_t extent_at_least)>;
  void set_on_extent(ExtentFn fn) { on_extent_ = std::move(fn); }

  /// Health-summary provider for the admin side channel: invoked (if set)
  /// when a kAdminHealth pull arrives, returning a self-describing JSON
  /// object (BucketHost builds it from live bucket/recovery state). Unset
  /// hosts answer "{}".
  using HealthFn = std::function<std::string()>;
  void set_admin_health(HealthFn fn) { admin_health_ = std::move(fn); }

  /// Registers `site` under the globally fixed id `id` (cluster.h scheme).
  void RegisterAs(sdds::SiteId id, sdds::Site* site);

  // --- sdds::Network ---
  /// Sites of a socket cluster have globally fixed ids; nothing
  /// auto-allocates here. (LhClient self-registers through this — clients
  /// in a socket cluster use net::SocketClient instead.)
  sdds::SiteId Register(sdds::Site* site) override;
  void Send(sdds::Message msg) override;
  bool Pump() override { return RunOnce(0); }
  uint64_t now_us() const override;
  bool asynchronous() const override { return true; }
  size_t site_count() const override { return local_sites_.size(); }

  /// One event-loop turn; blocks in poll up to `timeout_ms` when there is
  /// nothing local to deliver. Returns true when any progress happened
  /// (delivery, frame, accept, or flush).
  bool RunOnce(int timeout_ms);

  /// Queues an extent broadcast to every other host (coordinator host,
  /// after creating a bucket).
  void BroadcastExtent(uint64_t extent);

  size_t connection_count() const { return conns_.size(); }
  uint64_t frames_received() const { return frames_received_; }

  /// Bytes queued across every connection's write queue — the host-wide
  /// backpressure signal, also exported as the net.backpressure_bytes gauge.
  size_t total_queued_bytes() const;

 private:
  struct Connection {
    std::unique_ptr<Conn> conn;
    /// Site id from the peer's kHello (client site or kHostSiteBase marker);
    /// kInvalidSite until the hello arrives.
    sdds::SiteId hello_site = sdds::kInvalidSite;
    /// Per-connection backpressure gauge, resolved once the connection is
    /// identified (hello, or peer dial); nullptr until then. Stub under
    /// -DESSDDS_METRICS=OFF like every instrument.
    obs::Gauge* bp_gauge = nullptr;
  };

  bool HostedHere(sdds::SiteId site) const;
  /// Connection to `host`, dialing (non-blocking, hello queued first) on
  /// first use. nullptr when the dial fails outright.
  Conn* PeerConn(size_t host);
  void EnqueueMessage(Conn* conn, const sdds::Message& msg);
  /// Routes a decoded incoming Message: local delivery via the inbox, or
  /// (transit, which healthy routing never produces) back through Send.
  void RouteIncoming(sdds::Message msg);
  /// Lazily creates a hosted-but-unregistered bucket site (see
  /// set_materialize). Applied to both network frames and locally
  /// originated messages — a co-hosted split child's first message can be
  /// its parent's local kTransfer.
  void MaterializeIfNeeded(sdds::SiteId to);
  /// Delivers every queued local message; returns whether any was.
  bool DrainInbox();
  void HandleFrame(size_t conn_index, Frame frame);
  void NoteExtentAtLeast(uint64_t extent);
  /// Serves one admin pull frame (metrics/trace/health) with a kAdminReply
  /// on the same connection. False when the pull payload was malformed —
  /// the caller then drops the connection like any other garbage.
  bool ServeAdminPull(size_t conn_index, const Frame& frame);
  /// Cached per-message-type delivery counter (net.delivered.<Type>).
  obs::Counter& DeliveredCounter(sdds::MsgType type);

  Options options_;
  int listen_fd_ = -1;
  std::vector<Connection> conns_;
  /// Outbound server-to-server connections by host index. Conn objects are
  /// heap-owned by conns_ entries, so these borrowed pointers survive
  /// vector growth; the reap step erases entries whose Conn died.
  std::map<size_t, Conn*> peer_out_;
  std::map<sdds::SiteId, Conn*> client_conns_;
  std::map<sdds::SiteId, sdds::Site*> local_sites_;
  std::deque<sdds::Message> local_inbox_;
  MaterializeFn materialize_;
  ExtentFn on_extent_;
  HealthFn admin_health_;
  uint64_t start_ns_ = 0;
  uint64_t frames_received_ = 0;
  Poller poller_;

  // Hot-path instruments, resolved once at construction (stubs under
  // -DESSDDS_METRICS=OFF; the name map is never touched per frame).
  obs::Counter* corrupt_frames_ = nullptr;
  obs::Counter* admin_pulls_ = nullptr;
  obs::Gauge* backpressure_gauge_ = nullptr;
  obs::Histogram* recv_msg_bytes_ = nullptr;
  std::vector<obs::Counter*> delivered_by_type_;
};

}  // namespace essdds::net

#endif  // ESSDDS_NET_SOCKET_NETWORK_H_
