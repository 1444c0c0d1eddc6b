#ifndef ESSDDS_SDDS_LH_CLIENT_H_
#define ESSDDS_SDDS_LH_CLIENT_H_

#include <cstdint>
#include <optional>

#include "sdds/client_core.h"
#include "sdds/lh_options.h"
#include "sdds/network.h"
#include "util/result.h"

namespace essdds::sdds {

/// An LH* client application view over a simulated Network: a thin driver
/// of ClientCore, which keeps the client's own, possibly stale, image of the
/// file extent (mis-addressed requests are forwarded by the servers, at
/// most two hops, and the image is repaired by piggybacked IAMs), the
/// retransmission state and the instruments. Clients never talk to the
/// coordinator — that is the SDDS autonomy property.
///
/// The driver supplies the virtual clock and pumps the network until each
/// operation's reply arrives. On an event network that includes
/// retransmission: an overdue request is resent, and an idle network
/// without the reply means it was lost and is resent at once. Exhausting
/// the retries aborts — in simulation a lost message is a bug.
class LhClient : public Site {
 public:
  using ScanResult = sdds::ScanResult;

  LhClient(LhRuntime* runtime, Network* net);

  void OnMessage(Message& msg, Network& net) override;

  /// Inserts or overwrites; returns true when an existing record was
  /// replaced.
  bool Insert(uint64_t key, Bytes value);

  /// Point lookup by key.
  Result<Bytes> Lookup(uint64_t key);

  /// Deletes; NotFound when the key did not exist.
  Status Delete(uint64_t key);

  /// Parallel scan: ships (filter_id, arg) to every bucket; each bucket
  /// evaluates the installed filter against its local records in parallel
  /// (simulated) and replies with its hits. On an event network the scan
  /// first quiesces in-flight restructuring (a split racing the fan-out
  /// could otherwise move records between two buckets after one was scanned
  /// and before the other), then pumps to completion; scan traffic itself
  /// is never dropped (see FaultEligible), so every live bucket answers.
  ScanResult Scan(uint64_t filter_id, Bytes filter_arg);

  const FileImage& image() const { return core_.image(); }
  SiteId site() const { return core_.site(); }

  /// Number of image adjustments this client has received (a measure of how
  /// often it was stale).
  uint64_t iam_count() const { return core_.iam_count(); }

  /// Requests this client retransmitted after a timeout or a detected loss.
  uint64_t retry_count() const { return core_.retry_count(); }

  /// Replies discarded because their request had already completed (late
  /// originals overtaken by a retry, or fault-injected duplicates).
  uint64_t stale_reply_count() const { return core_.stale_reply_count(); }

  /// Trace id of the most recently started operation (0 with metrics
  /// compiled out). Tests use it to pull one op's causal hop chain out of
  /// the network's trace ring; the shell's `trace last` does the same.
  uint64_t last_trace_id() const { return core_.last_trace_id(); }

 private:
  /// Sends a key request and pumps the network until its reply arrives. On
  /// a synchronous network the reply is already waiting when Send returns.
  Message RoundTrip(MsgType type, uint64_t key, Bytes value);

  Network* net_;
  ClientCore core_;
  /// The running op's completion, parked by OnMessage for RoundTrip.
  std::optional<ClientCore::Completion> completed_;
};

}  // namespace essdds::sdds

#endif  // ESSDDS_SDDS_LH_CLIENT_H_
