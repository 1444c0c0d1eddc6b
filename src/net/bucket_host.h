#ifndef ESSDDS_NET_BUCKET_HOST_H_
#define ESSDDS_NET_BUCKET_HOST_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/socket_network.h"
#include "persist/persist_manager.h"
#include "sdds/lh_server.h"

namespace essdds::net {

/// One server process of a socket cluster: the LhRuntime + SocketNetwork
/// glue that LhSystem provides in-process. Hosts every logical bucket the
/// cluster map places here (bucket b on host b mod N, materialized lazily
/// when its first frame arrives — see SocketNetwork::set_materialize), and
/// on host 0 additionally the split coordinator.
///
/// Extent knowledge is local and monotone: known_extent() only grows, fed
/// by local bucket creation, the coordinator's kExtent broadcasts, and
/// extent-implying protocol messages observed in dispatch. It can lag the
/// true file extent, which is safe: BucketExists folds an address onto the
/// parent chain at most as far as a bucket whose authoritative host knows
/// better and re-forwards, and dispatch-implied bumps guarantee a host
/// always knows of its own buckets' children — the fold can never reach the
/// serving bucket itself, so forwarding chains strictly descend and
/// terminate.
///
/// Not supported yet (v1 limits, enforced at Start): merges
/// (merge_threshold must be 0 — cross-process bucket retirement and extent
/// shrink are future work) and restart recovery of an existing cluster data
/// directory (per-host logs are written append-before-ack, but the sparse
/// per-host replay and cross-process transfer repair are future work).
class BucketHost : public sdds::LhRuntime {
 public:
  struct Config {
    ClusterMap cluster;
    size_t host_index = 0;
    sdds::LhOptions options;
    /// Per-host durable log directory (src/persist); empty = RAM-only.
    /// Must be fresh (see class comment).
    std::string data_dir;
    /// When set, this host periodically (every ~200ms of loop time) writes
    /// its MetricRegistry as JSON to this path, atomically (tmp + rename).
    /// On host 0 that exposes the coordinator's counters — e.g.
    /// coord.dead_site_reports from clients whose retries exhausted — to
    /// operators and tests without a wire protocol for metrics.
    std::string metrics_path;
  };

  explicit BucketHost(Config config);
  ~BucketHost() override = default;

  /// Validates the config, binds the listen socket, creates bucket 0 /
  /// the coordinator when they live here.
  Status Start();

  /// One event-loop turn (see SocketNetwork::RunOnce), plus the periodic
  /// metrics dump when Config::metrics_path is set.
  bool RunOnce(int timeout_ms);

  SocketNetwork& network() { return *net_; }

  /// Installs a scan filter. Order matters: every host (and the client's
  /// baseline system, for comparison runs) must install the same filters in
  /// the same order, since the wire carries only the filter index.
  uint64_t InstallFilter(std::unique_ptr<sdds::ScanFilter> filter);

  uint64_t known_extent() const { return known_extent_; }
  size_t local_bucket_count() const { return servers_.size(); }
  const sdds::LhBucketServer* local_bucket(uint64_t b) const;

  /// The health summary served on kAdminHealth pulls: a JSON object built
  /// from live structures — per-bucket record counts and states, total
  /// backpressure, connection count, coordinator/recovery counters. Works
  /// fully under -DESSDDS_METRICS=OFF (health is operational state, not
  /// instruments; only the counter fields read as 0 there).
  std::string HealthJson();

  /// Writes the post-mortem/metrics file immediately (when
  /// Config::metrics_path is set): {host_index, known_extent, local_buckets,
  /// net: NetworkStats, metrics: registry}. The periodic dump and the halt
  /// path both land here.
  void DumpMetricsNow();

  // --- sdds::LhRuntime ---
  sdds::SiteId SiteOfBucket(uint64_t bucket) const override;
  bool BucketExists(uint64_t bucket) const override {
    return bucket < known_extent_;
  }
  sdds::SiteId CoordinatorSite() const override { return kCoordinatorSite; }
  sdds::SiteId CreateBucket(uint64_t bucket, uint32_t level) override;
  const sdds::ScanFilter& FilterById(uint64_t filter_id) const override;
  const sdds::LhOptions& options() const override { return config_.options; }
  void RetireLastBucket() override;
  /// Append-failure halt: log a structured event and flush the metrics
  /// file immediately — the SIGKILL-adjacent path must leave a complete
  /// post-mortem, not wait for a periodic timer that may never fire again.
  void OnBucketHalted(uint64_t bucket) override;

 private:
  /// Creates the LhBucketServer for locally hosted bucket `bucket` (fresh
  /// log attached when persistence is on) and registers it.
  sdds::Site* Materialize(uint64_t bucket);
  void NoteExtentAtLeast(uint64_t extent);
  void MaybeDumpMetrics();

  Config config_;
  std::unique_ptr<SocketNetwork> net_;
  std::unique_ptr<persist::PersistManager> persist_;
  std::map<uint64_t, std::unique_ptr<sdds::LhBucketServer>> servers_;
  std::unique_ptr<sdds::LhCoordinator> coordinator_;  // host 0 only
  std::vector<std::unique_ptr<sdds::ScanFilter>> filters_;
  uint64_t known_extent_ = 1;
  uint64_t next_metrics_dump_us_ = 0;
};

}  // namespace essdds::net

#endif  // ESSDDS_NET_BUCKET_HOST_H_
