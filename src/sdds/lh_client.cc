#include "sdds/lh_client.h"

#include <string>
#include <utility>
#include <vector>

namespace essdds::sdds {

LhClient::LhClient(LhRuntime* runtime, Network* net)
    : net_(net),
      core_(net->Register(this), runtime->CoordinatorSite(),
            [runtime](uint64_t bucket) { return runtime->SiteOfBucket(bucket); },
            runtime->options(), net->metrics(), net->trace(),
            /*retransmit=*/net->asynchronous()) {}

void LhClient::OnMessage(Message& msg, Network& net) {
  (void)net;
  if (auto done = core_.OnReply(std::move(msg), net_->now_us())) {
    completed_ = std::move(done);
  }
}

Message LhClient::RoundTrip(MsgType type, uint64_t key, Bytes value) {
  Message req = core_.StartKeyOp(type, key, std::move(value), net_->now_us());
  const uint64_t id = req.request_id;
  net_->Send(std::move(req));
  while (!completed_.has_value()) {
    std::vector<ClientCore::Expiry> overdue;
    if (net_->Pump()) {
      // The pump that crossed the deadline may be the one that delivered
      // the reply; a completed op is no longer overdue.
      overdue = core_.Tick(net_->now_us());
    } else {
      // Idle without a reply: on a synchronous network that is a protocol
      // bug (the reply arrives inside Send); on an event network the
      // request or its reply was provably lost.
      ESSDDS_CHECK(net_->asynchronous())
          << "no reply for request " << id << " on a synchronous network";
      overdue.push_back(core_.Expire(id, net_->now_us()));
    }
    for (ClientCore::Expiry& e : overdue) {
      ESSDDS_CHECK(!e.failed.has_value())
          << e.failed->reply.status().ToString() << " at t=" << net_->now_us()
          << "us";
      net_->NoteRetry();
      for (Message& m : e.sends) net_->Send(std::move(m));
    }
  }
  Result<Message> reply = std::move(completed_->reply);
  completed_.reset();
  return std::move(reply).value();
}

bool LhClient::Insert(uint64_t key, Bytes value) {
  Message reply = RoundTrip(MsgType::kInsert, key, std::move(value));
  ESSDDS_CHECK(reply.type == MsgType::kInsertAck);
  return reply.found;
}

Result<Bytes> LhClient::Lookup(uint64_t key) {
  Message reply = RoundTrip(MsgType::kLookup, key, {});
  ESSDDS_CHECK(reply.type == MsgType::kLookupReply);
  if (!reply.found) {
    return Status::NotFound("no record with key " + std::to_string(key));
  }
  return std::move(reply.value);
}

Status LhClient::Delete(uint64_t key) {
  Message reply = RoundTrip(MsgType::kDelete, key, {});
  ESSDDS_CHECK(reply.type == MsgType::kDeleteAck);
  if (!reply.found) {
    return Status::NotFound("no record with key " + std::to_string(key));
  }
  return Status::OK();
}

LhClient::ScanResult LhClient::Scan(uint64_t filter_id, Bytes filter_arg) {
  // Termination here is quiescence, not the socket tier's level rule: that
  // rule assumes every child of an answering bucket exists, but merges
  // dissolve children, and buckets defer their replies to
  // DrainDeferredScans. First complete any in-flight splits/merges so the
  // fan-out sees a stable extent (event networks; no-op synchronously) —
  // otherwise a split racing the scan can move records from an
  // already-scanned bucket into a not-yet-created one.
  net_->PumpUntilIdle();
  for (Message& req : core_.StartScan(filter_id, filter_arg, net_->now_us())) {
    net_->Send(std::move(req));
  }
  // Deliver the fan-out (and any forwards to buckets the image missed);
  // scan traffic is never dropped, so idleness means every bucket has
  // queued its evaluation.
  net_->PumpUntilIdle();
  // Evaluate the queued batch and send its replies.
  net_->DrainDeferredScans();
  // Event network: the drained replies were scheduled, not delivered.
  net_->PumpUntilIdle();
  return core_.FinishScan(net_->now_us());
}

}  // namespace essdds::sdds
