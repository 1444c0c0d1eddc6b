#ifndef ESSDDS_SDDS_EVENT_NETWORK_H_
#define ESSDDS_SDDS_EVENT_NETWORK_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "sdds/lh_options.h"
#include "sdds/network.h"
#include "util/random.h"

namespace essdds::sdds {

/// True for the message types the fault knobs may drop or duplicate:
/// client key requests and their replies, which the LhClient retry
/// machinery recovers (idempotent retransmission, stale-reply discard),
/// plus kDeadSite reports (re-sent on every further retry of the stuck
/// request). Scans are always delivered; protocol-internal traffic is
/// either always delivered (protocol_faults() false) or carried by the
/// reliable link layer (protocol_faults() true — see ProtocolReliable).
bool FaultEligible(MsgType type);

/// True for the protocol-internal types the reliable link layer carries
/// when EventNetworkOptions::protocol_faults() holds: split/merge
/// restructuring, record transfers, parity updates, and the reconstruction
/// control plane. Client traffic and scans are excluded (they have their
/// own recovery: retries and quiesce barriers), as are kDeadSite (fire-
/// and-forget, re-reported) and kRecoveryTick (never crosses a link).
bool ProtocolReliable(MsgType type);

/// Discrete-event simulation of the multicomputer: Send() draws a latency
/// from a seeded generator and schedules the delivery; Pump() pops the
/// earliest scheduled event, advances the virtual clock, and runs the
/// destination's OnMessage. Messages on different links overtake each
/// other, so splits, merges, image adjustments, and forwards genuinely race
/// in-flight client operations — the interleavings the synchronous
/// SimNetwork can never produce.
///
/// Determinism and replay: every random choice comes from one xoshiro
/// generator seeded with EventNetworkOptions::seed, ties in the event queue
/// break by submission order, and virtual time is decoupled from wall
/// clock. A run is therefore reproducible bit-for-bit from its options —
/// a failing interleaving is a seed, not a heisenbug.
///
/// Fault injection:
///  - drop_prob / duplicate_prob: per-send Bernoulli faults on
///    fault-eligible messages (see FaultEligible).
///  - protocol_drop_prob / protocol_duplicate_prob (protocol_faults()):
///    protocol-internal frames (ProtocolReliable) ride a reliable link
///    layer — per-link sequence numbers, receiver acks, kAckTimeoutUs
///    retransmission — that delivers each frame exactly once and in link
///    order to a live destination no matter how the Bernoulli rolls land.
///  - ScriptDrop(type, n): deterministically discard the n-th future send
///    of `type` (any type — scripted tests own the consequences).
///  - PauseSite / ResumeSite: a paused site receives nothing; deliveries
///    addressed to it park until resume. The timed overload schedules the
///    resume as an event, modelling a site that stalls and recovers.
///    Parking is lossless, so the reliable layer treats a park as the
///    delivery for ack purposes.
///  - KillSite: fail-stop. Deliveries addressed to a killed site park in
///    its dead-letter queue (messages already in flight FROM it still
///    arrive — the site died with its output drained). Reliable frames
///    stop retransmitting and wait in sender-side link state. After
///    recovery rebuilds the bucket elsewhere, RedirectSite(old, spare)
///    re-points the address: dead letters replay and parked frames resend,
///    all delivered to the successor.
class EventNetwork final : public Network {
 public:
  /// Reliable-layer retransmission timer: an unacked frame is resent every
  /// kAckTimeoutUs of virtual time. Must comfortably exceed 2x the max
  /// latency or every frame is spuriously resent once.
  static constexpr uint64_t kAckTimeoutUs = 8000;

  /// Retransmissions per frame before the network aborts the run (a frame
  /// to a LIVE site failing this many independent Bernoulli drops means the
  /// configuration is broken, not unlucky; frames to killed sites park
  /// instead of retrying). p=0.2^64 is never.
  static constexpr uint32_t kMaxFrameRetransmits = 64;

  explicit EventNetwork(EventNetworkOptions options = {});

  SiteId Register(Site* site) override;
  void Send(Message msg) override;
  bool Pump() override;
  uint64_t now_us() const override { return now_us_; }
  bool asynchronous() const override { return true; }
  size_t site_count() const override { return sites_.size(); }

  /// Schedules `msg` for direct delivery to msg.to after `delay_us` of
  /// virtual time: no faults, no accounting, no link state — a site's
  /// private timer (the recovery coordinator arms its probe timeouts with
  /// these). Keeps the network non-idle until it fires.
  void ScheduleTimer(Message msg, uint64_t delay_us) override;

  const EventNetworkOptions& options() const { return options_; }

  /// Scheduled (not yet delivered) events, including pending resumes.
  size_t queued_events() const { return heap_.size(); }

  /// Virtual due time of the earliest queued event (UINT64_MAX when the
  /// queue is empty). Lets a test pump up to a horizon without crossing a
  /// far-future timer — e.g. observing the degraded window a rebuild hold
  /// keeps open.
  uint64_t next_event_due_us() const {
    return heap_.empty() ? UINT64_MAX : heap_.front().time_us;
  }

  /// Messages currently parked at paused sites.
  size_t parked_messages() const;

  /// Messages parked in dead-letter queues of killed sites.
  size_t dead_letter_messages() const;

  /// Stops delivery to `site`: subsequent deliveries park until resume.
  void PauseSite(SiteId site);

  /// Pauses and schedules an automatic resume `duration_us` of virtual time
  /// from now (the resume is an event, so the network never looks idle
  /// while a timed pause is active — client timeouts keep firing).
  void PauseSite(SiteId site, uint64_t duration_us);

  /// Delivers everything parked at `site` (rescheduled with fresh
  /// latencies) and resumes normal delivery.
  void ResumeSite(SiteId site);

  /// Fail-stop kill: the site never receives another message. Deliveries
  /// addressed to it (directly or via redirects) park in its dead-letter
  /// queue; reliable frames additionally stop retransmitting. Messages it
  /// already sent still deliver. Irreversible except through RedirectSite.
  void KillSite(SiteId site);

  bool site_killed(SiteId site) const {
    return site < killed_.size() && killed_[site];
  }

  /// Re-points every address of killed `from` at `to` (the rebuilt bucket's
  /// site): future and queued deliveries resolve through the redirect, the
  /// dead-letter queue replays, and parked reliable frames retransmit.
  /// Redirects chain, so a twice-rebuilt bucket still resolves.
  void RedirectSite(SiteId from, SiteId to);

  /// Follows the redirect chain from `site` to the currently live address.
  SiteId Resolve(SiteId site) const;

  /// True while any message sent by `site` could still be delivered:
  /// scheduled deliveries, copies parked at paused sites, or unacked
  /// reliable frames that are not themselves waiting on a killed
  /// destination. Recovery uses this as a drain barrier before trusting a
  /// slice snapshot; tests use it to assert a killed site's traffic has
  /// settled.
  bool HasInFlightFrom(SiteId site) const;

  /// Scripted fault: discards the `occurrence`-th (1-based, counted from
  /// now) send of `type`. Repeatable; each call arms one drop.
  void ScriptDrop(MsgType type, uint64_t occurrence);

 private:
  enum class EvKind : uint8_t {
    kDeliver = 0,  // msg (frame_seq > 0: reliable frame on link (a, b))
    kResume,       // resume_site
    kTimer,        // msg, delivered directly
    kAck,          // reliable ack for link (a, b) seq frame_seq
    kRtxCheck,     // retransmission timer for link (a, b) seq frame_seq
  };

  struct Event {
    uint64_t time_us = 0;
    uint64_t seq = 0;  // tie-break: equal times deliver in submission order
    EvKind kind = EvKind::kDeliver;
    SiteId resume_site = kInvalidSite;
    // Reliable-layer link key (original addresses, pre-redirect) + frame
    // sequence. 0 = not a reliable frame.
    SiteId a = kInvalidSite;
    SiteId b = kInvalidSite;
    uint64_t frame_seq = 0;
    Message msg;
  };

  /// std::push_heap builds a max-heap; order events "after" each other so
  /// the top is the earliest (time, seq).
  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time_us != b.time_us) return a.time_us > b.time_us;
      return a.seq > b.seq;
    }
  };

  /// One reliable frame awaiting its ack. `parked_dead` marks a frame whose
  /// destination is killed: retransmission stops and RedirectSite resends.
  struct PendingFrame {
    Message msg;
    uint32_t retransmits = 0;
    bool parked_dead = false;
  };

  /// Sender- and receiver-side state of one directed link (keyed by the
  /// ORIGINAL site addresses; redirects never rename a link, so sequence
  /// numbering survives a rebuild).
  struct LinkState {
    uint64_t next_send_seq = 1;
    uint64_t next_recv_seq = 1;
    std::map<uint64_t, PendingFrame> unacked;
    std::map<uint64_t, Message> reorder;  // received early, held for order
  };

  /// Delivery time for a message sent now on (from -> to): now + uniform
  /// latency, pushed past the link's previous delivery when FIFO links are
  /// on.
  uint64_t DeliveryTime(SiteId from, SiteId to);

  void PushEvent(Event ev);
  void ScheduleMessage(Message msg);

  // --- reliable link layer (protocol_faults()) ---
  void SendReliable(Message msg);
  /// One physical transmission attempt of unacked frame `seq` on (from,
  /// to): rolls the protocol drop/duplicate faults, then schedules the
  /// delivery event(s).
  void TransmitFrame(SiteId from, SiteId to, uint64_t seq);
  void ScheduleRtxCheck(SiteId from, SiteId to, uint64_t seq);
  void HandleRtxCheck(const Event& ev);
  /// Delivery of a reliable frame: ack, dedup, reorder, in-order delivery.
  void DeliverReliable(Event ev);
  /// Runs the destination's OnMessage (after redirect resolution).
  void DeliverNow(Message& msg, SiteId dest);

  EventNetworkOptions options_;
  Rng rng_;
  uint64_t now_us_ = 0;
  uint64_t next_seq_ = 0;
  std::vector<Site*> sites_;
  std::vector<Event> heap_;
  std::vector<bool> paused_;
  std::vector<bool> killed_;
  std::vector<std::vector<Event>> parked_;       // per paused site
  std::vector<std::vector<Message>> dead_letter_;  // per killed site
  std::map<SiteId, SiteId> redirect_;
  std::map<std::pair<SiteId, SiteId>, LinkState> links_;
  std::map<std::pair<SiteId, SiteId>, uint64_t> link_clock_;
  std::map<MsgType, uint64_t> sends_of_type_;
  // Armed scripted drops: absolute per-type send ordinals to discard.
  std::map<MsgType, std::vector<uint64_t>> scripted_drops_;
};

}  // namespace essdds::sdds

#endif  // ESSDDS_SDDS_EVENT_NETWORK_H_
