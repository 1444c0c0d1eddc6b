#include "sdds/client_core.h"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/log.h"
#include "util/logging.h"

namespace essdds::sdds {

ClientCore::ClientCore(SiteId site, SiteId coordinator,
                       std::function<SiteId(uint64_t)> site_of_bucket,
                       const LhOptions& options, obs::MetricRegistry& metrics,
                       obs::TraceRing& trace, bool retransmit)
    : site_(site),
      coordinator_(coordinator),
      site_of_bucket_(std::move(site_of_bucket)),
      options_(options),
      trace_(trace),
      retransmit_(retransmit),
      insert_us_(&metrics.histogram("client.insert_us")),
      lookup_us_(&metrics.histogram("client.lookup_us")),
      delete_us_(&metrics.histogram("client.delete_us")),
      scan_us_(&metrics.histogram("client.scan_us")),
      retries_counter_(&metrics.counter("client.retries")),
      stale_counter_(&metrics.counter("client.stale_replies")),
      iam_counter_(&metrics.counter("client.iams")) {}

uint64_t ClientCore::BackoffDeadline(uint64_t now_us, uint64_t timeout_us,
                                     uint32_t attempts) {
  const uint32_t shift = std::min<uint32_t>(attempts, 6);
  const uint64_t backoff =
      timeout_us > (UINT64_MAX >> shift) ? UINT64_MAX : timeout_us << shift;
  return backoff > UINT64_MAX - now_us ? UINT64_MAX : now_us + backoff;
}

uint64_t ClientCore::AddressFor(uint64_t key) const {
  // LH* client addressing: h_{i'} first, stepped up to h_{i'+1} for buckets
  // the image says have already split.
  const uint64_t key_image = LhKeyImage(key, options_);
  uint64_t a = key_image & ((uint64_t{1} << image_.level) - 1);
  if (a < image_.split_pointer) {
    a = key_image & ((uint64_t{1} << (image_.level + 1)) - 1);
  }
  return a;
}

void ClientCore::ApplyIam(const Message& reply) {
  if (!reply.has_iam) return;
  ++iam_count_;
  iam_counter_->Increment();
  // LNS96 image adjustment: i' <- j - 1, n' <- a + 1 (wrapping), where j and
  // a are the level and address of the first bucket that had to forward.
  FileImage candidate;
  candidate.level = reply.iam_level >= 1 ? reply.iam_level - 1 : 0;
  candidate.split_pointer = static_cast<uint32_t>(reply.iam_address) + 1;
  if (candidate.split_pointer >= (uint32_t{1} << candidate.level)) {
    candidate.split_pointer = 0;
    ++candidate.level;
  }
  // The image may only grow; a concurrent smarter client could otherwise
  // regress it.
  if (candidate.BucketCount() > image_.BucketCount()) {
    image_ = candidate;
  }
}

uint64_t ClientCore::NextTraceId() {
  if (!obs::kMetricsEnabled) return 0;
  last_trace_id_ = (static_cast<uint64_t>(site_) << 32) | ++next_trace_seq_;
  return last_trace_id_;
}

void ClientCore::Hop(obs::HopKind kind, const Message& msg, uint64_t now_us) {
  if (!obs::kMetricsEnabled) return;
  trace_.Record({now_us, msg.trace_id, msg.request_id, msg.key, msg.from,
                 msg.to, static_cast<uint8_t>(msg.type), kind});
}

void ClientCore::RecordLatency(MsgType type, uint64_t elapsed_us,
                               uint64_t trace_id, std::optional<uint64_t> key,
                               const char* count_name, uint64_t count) {
  switch (type) {
    case MsgType::kInsert:
      insert_us_->Record(elapsed_us);
      break;
    case MsgType::kLookup:
      lookup_us_->Record(elapsed_us);
      break;
    case MsgType::kDelete:
      delete_us_->Record(elapsed_us);
      break;
    default:
      scan_us_->Record(elapsed_us);
      break;
  }
  const uint64_t slow = options_.slow_op_us;
  if (slow == 0 || elapsed_us < slow) return;
  // Structured breadcrumb for ops past the budget: the trace id makes the
  // op followable with `essdds_admin trace` / AssembleTrace.
  obs::LogEvent event("slow_op");
  event.Str("op", MsgTypeToString(type));
  if (key.has_value()) event.U64("key", *key);
  event.U64("elapsed_us", elapsed_us)
      .U64("trace_id", trace_id)
      .U64(count_name, count);
}

Message ClientCore::Request(uint64_t id, const PendingOp& op) const {
  Message req;
  req.type = op.type;
  req.from = site_;
  req.reply_to = site_;
  req.request_id = id;
  req.key = op.key;
  req.trace_id = op.trace_id;
  // The computed address rides along so a recovery proxy standing in for a
  // dead site can route degraded-mode requests without the client's image.
  req.bucket_to_split = AddressFor(op.key);
  req.to = site_of_bucket_(req.bucket_to_split);
  return req;
}

Message ClientCore::StartKeyOp(MsgType type, uint64_t key, Bytes value,
                               uint64_t now_us) {
  const uint64_t id = next_request_id_++;
  PendingOp& op = pending_[id];
  op.type = type;
  op.key = key;
  op.trace_id = NextTraceId();
  op.start_us = now_us;
  op.deadline_us =
      BackoffDeadline(now_us, options_.request_timeout_us, /*attempts=*/0);
  Message req = Request(id, op);
  if (retransmit_) op.value = value;
  req.value = std::move(value);
  Hop(obs::HopKind::kOpStart, req, now_us);
  return req;
}

std::optional<ClientCore::Completion> ClientCore::OnReply(Message reply,
                                                          uint64_t now_us) {
  if (scan_.has_value() && reply.request_id == scan_->request_id &&
      reply.type == MsgType::kScanReply) {
    // One reply per bucket (reply.key), the first to arrive: a stale-ahead
    // image (possible after merges) can deliver the scan to a folded bucket
    // more than once.
    const uint64_t bucket = reply.key;
    scan_->replies.emplace(bucket, std::move(reply));
    return std::nullopt;
  }
  auto it = pending_.find(reply.request_id);
  if (it == pending_.end()) {
    // The late original of a retried request, or a duplicate: idempotent
    // servers make re-execution harmless, and the straggler is just noise.
    ++stale_reply_count_;
    stale_counter_->Increment();
    Hop(obs::HopKind::kStale, reply, now_us);
    return std::nullopt;
  }
  ApplyIam(reply);
  const PendingOp& op = it->second;
  Hop(obs::HopKind::kOpDone, reply, now_us);
  RecordLatency(op.type, now_us - op.start_us, op.trace_id, op.key,
                "attempts", op.attempts);
  Completion done{it->first, op.trace_id, std::move(reply)};
  pending_.erase(it);
  return done;
}

std::vector<ClientCore::Expiry> ClientCore::Tick(uint64_t now_us) {
  std::vector<uint64_t> overdue;
  for (const auto& [id, op] : pending_) {
    if (now_us > op.deadline_us) overdue.push_back(id);
  }
  std::vector<Expiry> out;
  for (uint64_t id : overdue) out.push_back(Expire(id, now_us));
  return out;
}

ClientCore::Expiry ClientCore::Expire(uint64_t id, uint64_t now_us) {
  auto it = pending_.find(id);
  ESSDDS_CHECK(it != pending_.end()) << "expiring unknown op " << id;
  ESSDDS_CHECK(retransmit_) << "request " << id << " lost without a copy";
  PendingOp& op = it->second;
  const bool exhausted = op.attempts >= options_.max_request_retries;
  Expiry out;
  Message again;
  if (!exhausted) {
    ++op.attempts;
    ++retry_count_;
    retries_counter_->Increment();
    again = Request(id, op);
    again.value = op.value;
    Hop(obs::HopKind::kRetry, again, now_us);
  }
  // Failure detection: a bucket that keeps timing out may be hosted on a
  // dead site. Report the RECORD KEY that cannot get served — the
  // coordinator probes every bucket on the key's forwarding chain (this
  // image may be stale and the dead hop anywhere on it) and declares only
  // probes that stay unanswered; a merely slow site answers the ping.
  if (exhausted || (options_.parity_group_size > 0 &&
                    op.attempts >= kReportDeadAfterRetries)) {
    Message report;
    report.type = MsgType::kDeadSite;
    report.from = site_;
    report.to = coordinator_;
    report.key = op.key;
    report.trace_id = op.trace_id;
    out.sends.push_back(std::move(report));
  }
  if (!exhausted) {
    op.deadline_us =
        BackoffDeadline(now_us, options_.request_timeout_us, op.attempts);
    out.sends.push_back(std::move(again));
    return out;
  }
  // Always worth a structured line (no slow_op_us gate): an exhausted op
  // is the client-visible symptom of a dead host.
  const uint64_t attempts = uint64_t{op.attempts} + 1;
  obs::LogEvent("op_unavailable", LogLevel::kError)
      .Str("op", MsgTypeToString(op.type))
      .U64("key", op.key)
      .U64("elapsed_us", now_us - op.start_us)
      .U64("trace_id", op.trace_id)
      .U64("attempts", attempts);
  out.failed = Completion{
      id, op.trace_id,
      Status::Unavailable("request " + std::to_string(id) + " (" +
                          std::string(MsgTypeToString(op.type)) + " key " +
                          std::to_string(op.key) + ") unanswered after " +
                          std::to_string(attempts) + " attempts")};
  pending_.erase(it);
  return out;
}

std::vector<Message> ClientCore::StartScan(uint64_t filter_id,
                                           const Bytes& filter_arg,
                                           uint64_t now_us) {
  ESSDDS_CHECK(!scan_.has_value()) << "one scan at a time";
  Scan& scan = scan_.emplace();
  scan.request_id = next_request_id_++;
  scan.trace_id = NextTraceId();
  scan.start_us = now_us;
  const uint64_t extent = image_.BucketCount();
  std::vector<Message> fanout(extent);
  for (uint64_t a = 0; a < extent; ++a) {
    Message& req = fanout[a];
    req.type = MsgType::kScan;
    req.from = site_;
    req.reply_to = site_;
    req.request_id = scan.request_id;
    req.trace_id = scan.trace_id;
    req.key = a;  // addressed bucket, for degraded-mode proxy routing
    req.filter_id = filter_id;
    req.filter_arg = filter_arg;
    req.assumed_level = image_.AssumedLevel(a);
    req.to = site_of_bucket_(a);
  }
  Hop(obs::HopKind::kOpStart, fanout.front(), now_us);
  return fanout;
}

const std::map<uint64_t, Message>& ClientCore::scan_replies() const {
  ESSDDS_CHECK(scan_.has_value()) << "no scan running";
  return scan_->replies;
}

ScanResult ClientCore::FinishScan(uint64_t now_us) {
  ESSDDS_CHECK(scan_.has_value()) << "no scan running";
  Scan scan = std::move(*scan_);
  scan_.reset();
  ScanResult result;
  result.buckets_answered = scan.replies.size();
  // Ascending bucket order, hits within a bucket already ascending: the
  // simulators' drain order and the socket tier's arrival order give
  // identical results.
  for (auto& [bucket, reply] : scan.replies) {
    for (WireRecord& r : reply.records) result.hits.push_back(std::move(r));
  }
  RecordLatency(MsgType::kScan, now_us - scan.start_us, scan.trace_id,
                std::nullopt, "buckets_answered", result.buckets_answered);
  // The scan has no single accepting reply; close the trace with a summary
  // hop (key = buckets answered).
  Message done;
  done.type = MsgType::kScanReply;
  done.from = site_;
  done.to = site_;
  done.request_id = scan.request_id;
  done.trace_id = scan.trace_id;
  done.key = result.buckets_answered;
  Hop(obs::HopKind::kOpDone, done, now_us);
  return result;
}

}  // namespace essdds::sdds
