#include "sdds/network.h"

#include <algorithm>
#include <iomanip>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "util/json_writer.h"

namespace essdds::sdds {

std::string NetworkStats::ToString() const {
  std::ostringstream os;
  os << "messages=" << total_messages << " bytes=" << total_bytes
     << " forwarded=" << forwarded_messages;
  if (dropped_messages || duplicated_messages || retried_messages) {
    os << " dropped=" << dropped_messages
       << " duplicated=" << duplicated_messages
       << " retried=" << retried_messages;
  }
  if (retransmitted_frames || link_acks) {
    os << " retransmitted_frames=" << retransmitted_frames
       << " link_acks=" << link_acks;
  }
  // Per-type breakdown: one aligned row per type, in wire-enum order (the
  // map key order — stable across runs and platforms).
  for (const auto& [type, count] : per_type) {
    os << "\n  " << std::left << std::setw(12) << MsgTypeToString(type)
       << std::right << std::setw(10) << count;
  }
  return os.str();
}

std::string NetworkStats::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.KV("total_messages", total_messages);
  w.KV("total_bytes", total_bytes);
  w.KV("forwarded_messages", forwarded_messages);
  w.KV("dropped_messages", dropped_messages);
  w.KV("duplicated_messages", duplicated_messages);
  w.KV("retried_messages", retried_messages);
  w.KV("retransmitted_frames", retransmitted_frames);
  w.KV("link_acks", link_acks);
  w.Key("per_type").BeginObject();
  for (const auto& [type, count] : per_type) {
    w.KV(MsgTypeToString(type), count);
  }
  w.EndObject();
  w.EndObject();
  return w.str();
}

void Network::NoteSendMetrics(const Message& msg, uint64_t bytes) {
  if (!obs::kMetricsEnabled) return;
  if (msg.from != kInvalidSite) {
    while (site_msgs_sent_.size() <= msg.from) {
      const std::string prefix =
          "net.site." + std::to_string(site_msgs_sent_.size());
      site_msgs_sent_.push_back(&metrics_.counter(prefix + ".msgs_sent"));
      site_bytes_sent_.push_back(&metrics_.counter(prefix + ".bytes_sent"));
    }
    site_msgs_sent_[msg.from]->Increment();
    site_bytes_sent_[msg.from]->Increment(bytes);
  }
  TraceHop(obs::HopKind::kSend, msg);
}

std::string Network::TraceDump(uint64_t trace_id) const {
  return trace_.DumpText(trace_id, [](uint8_t t) {
    return MsgTypeToString(static_cast<MsgType>(t));
  });
}

void Network::EnqueueScanTask(const ScanFilter& filter, ByteSpan arg,
                              ScanTask task) {
  // One Prepare() per scan, not per bucket: tasks with the same filter and
  // the same argument belong to the same scan, so they share one compiled
  // filter instance (Prepared::Matches is const and thread-safe; see the
  // ScanFilter contract). A scan whose argument fails to compile shares the
  // nullptr — every one of its buckets answers empty. A batch holds few
  // distinct scans, so a linear search finds the entry.
  auto it = std::find_if(
      pending_prepared_.begin(), pending_prepared_.end(),
      [&](const PendingScan& p) {
        return p.filter == &filter && std::ranges::equal(p.arg, arg);
      });
  if (it == pending_prepared_.end()) {
    pending_prepared_.push_back(
        {&filter, Bytes(arg.begin(), arg.end()), filter.Prepare(arg)});
    it = std::prev(pending_prepared_.end());
  }
  task.prepared = it->prepared.get();
  pending_scans_.push_back(std::move(task));
}

ScanWorkerPool& Network::scan_pool() {
  if (!scan_pool_) {
    scan_pool_ = std::make_unique<ScanWorkerPool>(scan_threads_, &metrics_);
  }
  return *scan_pool_;
}

void Network::DrainDeferredScans() {
  if (pending_scans_.empty()) return;
  std::vector<ScanTask> batch = std::move(pending_scans_);
  pending_scans_.clear();
  // The batch's compiled scans live until its evaluation is done; scans
  // enqueued while the replies go out compile afresh.
  const std::vector<PendingScan> prepared = std::move(pending_prepared_);
  pending_prepared_.clear();

  // Tasks a bucket already resolved ahead of a mutation carry their hits
  // and are skipped.
  scan_pool().Run(batch);
  // Replies go out in ascending bucket order: the one deterministic order
  // independent of worker scheduling.
  std::stable_sort(batch.begin(), batch.end(),
                   [](const ScanTask& a, const ScanTask& b) {
                     return a.bucket < b.bucket;
                   });
  for (ScanTask& task : batch) Send(std::move(task.reply));
}

SiteId SimNetwork::Register(Site* site) {
  ESSDDS_CHECK(site != nullptr);
  sites_.push_back(site);
  return static_cast<SiteId>(sites_.size() - 1);
}

void SimNetwork::Send(Message msg) {
  ESSDDS_CHECK(msg.to < sites_.size())
      << "send to unregistered site " << msg.to;
  Account(msg);

  // Guard against protocol bugs that would recurse unboundedly.
  ++delivery_depth_;
  ESSDDS_CHECK(delivery_depth_ < 256) << "message delivery depth exceeded";
  TraceHop(obs::HopKind::kDeliver, msg);
  Site* dest = sites_[msg.to];
  dest->OnMessage(msg, *this);
  --delivery_depth_;
}

}  // namespace essdds::sdds
