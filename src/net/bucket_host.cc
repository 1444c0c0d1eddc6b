#include "net/bucket_host.h"

#include <filesystem>
#include <fstream>
#include <utility>

#include "obs/log.h"
#include "util/json_writer.h"
#include "util/logging.h"

namespace essdds::net {

using sdds::LhBucketServer;
using sdds::LhCoordinator;
using sdds::SiteId;

BucketHost::BucketHost(Config config) : config_(std::move(config)) {
  SocketNetwork::Options net_opts;
  net_opts.cluster = config_.cluster;
  net_opts.host_index = config_.host_index;
  net_ = std::make_unique<SocketNetwork>(std::move(net_opts));
  net_->set_materialize([this](uint64_t bucket) { return Materialize(bucket); });
  net_->set_on_extent([this](uint64_t extent) { NoteExtentAtLeast(extent); });
  net_->set_scan_threads(config_.options.scan_threads);
  net_->set_admin_health([this] { return HealthJson(); });
}

Status BucketHost::Start() {
  if (config_.options.bucket_capacity == 0) {
    return Status::InvalidArgument("bucket_capacity must be positive");
  }
  if (config_.options.merge_threshold != 0.0) {
    // The record transfer works across hosts; what is missing is retiring
    // a bucket cluster-wide (RetireLastBucket).
    return Status::NotSupported(
        "the socket transport cannot retire buckets across processes yet, "
        "so it does not merge; run with merge_threshold = 0");
  }
  if (!config_.data_dir.empty()) {
    if (persist::kPersistEnabled) {
      // Cluster restart recovery (sparse per-host bucket replay plus
      // cross-process transfer repair) is future work; opening existing
      // logs fresh would silently truncate them, so refuse instead.
      std::error_code ec;
      for (const auto& entry :
           std::filesystem::directory_iterator(config_.data_dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("bucket-", 0) == 0) {
          return Status::FailedPrecondition(
              "data dir " + config_.data_dir +
              " holds logs from a previous run; cluster restart recovery "
              "is not supported yet — start from an empty directory");
        }
      }
      persist_ = std::make_unique<persist::PersistManager>(
          persist::PersistManager::Options{config_.data_dir,
                                           config_.options.persist_master,
                                           config_.options.log_checkpoint_min_bytes,
                                           config_.options.persist_fsync},
          &net_->metrics());
    } else {
      ESSDDS_LOG(kWarning)
          << "data dir is set but this build has persistence compiled out "
             "(-DESSDDS_PERSIST=OFF); buckets stay RAM-only";
    }
  }
  ESSDDS_RETURN_IF_ERROR(net_->Start());
  if (config_.host_index == 0) {
    coordinator_ = std::make_unique<LhCoordinator>(this);
    coordinator_->set_site(kCoordinatorSite);
    net_->RegisterAs(kCoordinatorSite, coordinator_.get());
  }
  if (config_.cluster.HostOfBucket(0) == config_.host_index) {
    sdds::Site* root = Materialize(0);
    net_->RegisterAs(net::SiteOfBucket(0), root);
  }
  return Status::OK();
}

bool BucketHost::RunOnce(int timeout_ms) {
  const bool progress = net_->RunOnce(timeout_ms);
  MaybeDumpMetrics();
  return progress;
}

void BucketHost::MaybeDumpMetrics() {
  if (config_.metrics_path.empty()) return;
  const uint64_t now = net_->now_us();
  if (now < next_metrics_dump_us_) return;
  next_metrics_dump_us_ = now + 200'000;
  DumpMetricsNow();
}

void BucketHost::DumpMetricsNow() {
  if (config_.metrics_path.empty()) return;
  // A complete post-mortem: the flat NetworkStats next to the registry —
  // a crash reader needs both, and the registry alone lacks the per-type
  // traffic breakdown.
  JsonWriter w;
  w.BeginObject()
      .KV("host_index", static_cast<uint64_t>(config_.host_index))
      .KV("known_extent", known_extent_)
      .KV("local_buckets", static_cast<uint64_t>(servers_.size()))
      .Key("net")
      .Raw(net_->stats().ToJson())
      .Key("metrics")
      .Raw(net_->metrics().ToJson())
      .EndObject();
  // Write-then-rename so a reader never sees a half-written file.
  const std::string tmp = config_.metrics_path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return;
    out << w.str();
  }
  std::error_code ec;
  std::filesystem::rename(tmp, config_.metrics_path, ec);
}

std::string BucketHost::HealthJson() {
  uint64_t records_total = 0;
  uint64_t halted = 0;
  JsonWriter w;
  w.BeginObject()
      .KV("host_index", static_cast<uint64_t>(config_.host_index))
      .KV("now_us", net_->now_us())
      .KV("known_extent", known_extent_)
      .KV("coordinator", coordinator_ != nullptr);
  if (coordinator_ != nullptr) {
    w.KV("coord_level", coordinator_->level())
        .KV("coord_split_pointer", coordinator_->split_pointer());
  }
  w.Key("buckets").BeginArray();
  for (const auto& [bucket, server] : servers_) {
    records_total += server->record_count();
    if (server->halted()) ++halted;
    w.BeginObject()
        .KV("bucket", bucket)
        .KV("records", static_cast<uint64_t>(server->record_count()))
        .KV("level", server->level())
        .KV("loading", server->loading())
        .KV("frozen", server->frozen())
        .KV("halted", server->halted())
        .EndObject();
  }
  w.EndArray();
  obs::MetricRegistry& reg = net_->metrics();
  w.KV("records_total", records_total)
      .KV("halted_buckets", halted)
      .KV("connections", static_cast<uint64_t>(net_->connection_count()))
      .KV("backpressure_bytes",
          static_cast<uint64_t>(net_->total_queued_bytes()))
      // Registry reads (0 under -DESSDDS_METRICS=OFF, and 0 on hosts that
      // never saw the event — counter() creates on first touch).
      .KV("dead_site_reports", reg.counter("coord.dead_site_reports").value())
      .KV("dead_sites", reg.counter("coord.dead_sites").value())
      .KV("rebuilt_buckets", reg.counter("recovery.rebuilt_buckets").value())
      .KV("corrupt_frames", reg.counter("net.corrupt_frames").value())
      .EndObject();
  return w.str();
}

void BucketHost::OnBucketHalted(uint64_t bucket) {
  obs::LogEvent("bucket_halted", LogLevel::kError)
      .U64("host_index", config_.host_index)
      .U64("bucket", bucket);
  DumpMetricsNow();
}

uint64_t BucketHost::InstallFilter(std::unique_ptr<sdds::ScanFilter> filter) {
  ESSDDS_CHECK(filter != nullptr);
  filters_.push_back(std::move(filter));
  return filters_.size() - 1;
}

const LhBucketServer* BucketHost::local_bucket(uint64_t b) const {
  auto it = servers_.find(b);
  return it == servers_.end() ? nullptr : it->second.get();
}

sdds::Site* BucketHost::Materialize(uint64_t bucket) {
  ESSDDS_CHECK(config_.cluster.HostOfBucket(bucket) == config_.host_index)
      << "bucket " << bucket << " is not hosted here";
  auto [it, inserted] = servers_.emplace(bucket, nullptr);
  ESSDDS_CHECK(inserted) << "bucket " << bucket << " materialized twice";
  const uint32_t level = BucketCreationLevel(bucket);
  it->second =
      std::make_unique<LhBucketServer>(this, config_.options, bucket, level);
  if (persist_ != nullptr) {
    it->second->AttachLog(
        persist_->OpenBucketLog(bucket, level, /*fresh=*/true));
  }
  it->second->set_site(net::SiteOfBucket(bucket));
  NoteExtentAtLeast(bucket + 1);
  return it->second.get();
}

void BucketHost::NoteExtentAtLeast(uint64_t extent) {
  if (extent > known_extent_) known_extent_ = extent;
}

SiteId BucketHost::SiteOfBucket(uint64_t bucket) const {
  // Addresses beyond the locally known extent fold onto the parent chain,
  // same relation as LhSystem::SiteOfBucket. With a lagging extent this can
  // over-fold; the bucket it lands on knows at least its own children (see
  // the class comment) and re-forwards, strictly descending.
  while (bucket >= known_extent_) bucket = sdds::ParentBucket(bucket);
  return net::SiteOfBucket(bucket);
}

SiteId BucketHost::CreateBucket(uint64_t bucket, uint32_t level) {
  // Only the coordinator (host 0) creates buckets; remote hosts materialize
  // on first frame instead.
  ESSDDS_CHECK(coordinator_ != nullptr)
      << "CreateBucket outside the coordinator host";
  ESSDDS_CHECK(level == BucketCreationLevel(bucket))
      << "split level " << level << " disagrees with creation level of bucket "
      << bucket;
  NoteExtentAtLeast(bucket + 1);
  // Tell every other host before any message to the new bucket can race
  // ahead: frames on one connection are FIFO, but the kExtent travels on
  // the server-to-server links while client traffic does not — remote
  // hosts also learn from the protocol messages themselves (dispatch
  // bumps), so this broadcast is freshness, not correctness.
  net_->BroadcastExtent(known_extent_);
  if (config_.cluster.HostOfBucket(bucket) == config_.host_index) {
    sdds::Site* site = Materialize(bucket);
    net_->RegisterAs(net::SiteOfBucket(bucket), site);
  }
  return net::SiteOfBucket(bucket);
}

const sdds::ScanFilter& BucketHost::FilterById(uint64_t filter_id) const {
  ESSDDS_CHECK(filter_id < filters_.size())
      << "unknown scan filter " << filter_id;
  return *filters_[filter_id];
}

void BucketHost::RetireLastBucket() {
  ESSDDS_CHECK(false) << "cross-process bucket retirement is not supported "
                         "by the socket transport (v1)";
}

}  // namespace essdds::net
