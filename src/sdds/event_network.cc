#include "sdds/event_network.h"

#include <algorithm>
#include <utility>

namespace essdds::sdds {

bool FaultEligible(MsgType type) {
  switch (type) {
    case MsgType::kInsert:
    case MsgType::kLookup:
    case MsgType::kDelete:
    case MsgType::kInsertAck:
    case MsgType::kLookupReply:
    case MsgType::kDeleteAck:
    case MsgType::kDeadSite:
      return true;
    default:
      return false;
  }
}

bool ProtocolReliable(MsgType type) {
  switch (type) {
    case MsgType::kOverflow:
    case MsgType::kSplit:
    case MsgType::kSplitDone:
    case MsgType::kUnderflow:
    case MsgType::kMerge:
    case MsgType::kMergeDone:
    case MsgType::kTransfer:
    case MsgType::kTransferAck:
    case MsgType::kParityUpdate:
    case MsgType::kPing:
    case MsgType::kPong:
    case MsgType::kReconstructRequest:
    case MsgType::kReconstructSlice:
    case MsgType::kRebuild:
    case MsgType::kRebuildDone:
      return true;
    default:
      return false;
  }
}

EventNetwork::EventNetwork(EventNetworkOptions options)
    : options_(options), rng_(options.seed) {
  ESSDDS_CHECK(options_.min_latency_us <= options_.max_latency_us)
      << "latency range inverted";
  ESSDDS_CHECK(options_.drop_prob >= 0.0 && options_.drop_prob < 1.0)
      << "drop probability must be in [0, 1)";
  ESSDDS_CHECK(options_.duplicate_prob >= 0.0 && options_.duplicate_prob <= 1.0)
      << "duplicate probability must be in [0, 1]";
  ESSDDS_CHECK(options_.protocol_drop_prob >= 0.0 &&
               options_.protocol_drop_prob < 1.0)
      << "protocol drop probability must be in [0, 1)";
  ESSDDS_CHECK(options_.protocol_duplicate_prob >= 0.0 &&
               options_.protocol_duplicate_prob <= 1.0)
      << "protocol duplicate probability must be in [0, 1]";
}

SiteId EventNetwork::Register(Site* site) {
  ESSDDS_CHECK(site != nullptr);
  sites_.push_back(site);
  paused_.push_back(false);
  killed_.push_back(false);
  parked_.emplace_back();
  dead_letter_.emplace_back();
  return static_cast<SiteId>(sites_.size() - 1);
}

SiteId EventNetwork::Resolve(SiteId site) const {
  // The chain is acyclic by construction (a redirect always points at a
  // strictly newer site), so this terminates; the bound is a corruption
  // backstop.
  size_t steps = 0;
  auto it = redirect_.find(site);
  while (it != redirect_.end()) {
    site = it->second;
    it = redirect_.find(site);
    ESSDDS_CHECK(++steps <= redirect_.size()) << "redirect cycle";
  }
  return site;
}

uint64_t EventNetwork::DeliveryTime(SiteId from, SiteId to) {
  const uint64_t span =
      uint64_t{options_.max_latency_us} - options_.min_latency_us;
  uint64_t t = now_us_ + options_.min_latency_us +
               (span > 0 ? rng_.Uniform(span + 1) : 0);
  if (options_.fifo_links) {
    uint64_t& clock = link_clock_[{from, to}];
    t = std::max(t, clock);
    clock = t;
  }
  return t;
}

void EventNetwork::PushEvent(Event ev) {
  ev.seq = next_seq_++;
  heap_.push_back(std::move(ev));
  std::push_heap(heap_.begin(), heap_.end(), EventAfter{});
}

void EventNetwork::ScheduleMessage(Message msg) {
  Event ev;
  ev.time_us = DeliveryTime(msg.from, msg.to);
  ev.msg = std::move(msg);
  PushEvent(std::move(ev));
}

void EventNetwork::ScheduleTimer(Message msg, uint64_t delay_us) {
  Event ev;
  ev.time_us = now_us_ + delay_us;
  ev.kind = EvKind::kTimer;
  ev.msg = std::move(msg);
  PushEvent(std::move(ev));
}

void EventNetwork::Send(Message msg) {
  ESSDDS_CHECK(msg.to < sites_.size())
      << "send to unregistered site " << msg.to;
  Account(msg);

  const uint64_t ordinal = ++sends_of_type_[msg.type];
  auto scripted = scripted_drops_.find(msg.type);
  if (scripted != scripted_drops_.end()) {
    auto& ordinals = scripted->second;
    auto hit = std::find(ordinals.begin(), ordinals.end(), ordinal);
    if (hit != ordinals.end()) {
      ordinals.erase(hit);
      ++stats_.dropped_messages;
      TraceHop(obs::HopKind::kDrop, msg);
      return;
    }
  }

  if (options_.protocol_faults() && ProtocolReliable(msg.type)) {
    SendReliable(std::move(msg));
    return;
  }

  const bool eligible = FaultEligible(msg.type);
  if (eligible && options_.drop_prob > 0.0 &&
      rng_.Bernoulli(options_.drop_prob)) {
    ++stats_.dropped_messages;
    TraceHop(obs::HopKind::kDrop, msg);
    return;
  }
  if (eligible && options_.duplicate_prob > 0.0 &&
      rng_.Bernoulli(options_.duplicate_prob)) {
    ++stats_.duplicated_messages;
    TraceHop(obs::HopKind::kDuplicate, msg);
    ScheduleMessage(msg);  // the extra copy; charged only to duplicated_
  }
  ScheduleMessage(std::move(msg));
}

// --- reliable link layer ---

void EventNetwork::SendReliable(Message msg) {
  const SiteId from = msg.from;
  const SiteId to = msg.to;
  LinkState& link = links_[{from, to}];
  const uint64_t seq = link.next_send_seq++;
  PendingFrame pending;
  pending.msg = std::move(msg);
  link.unacked.emplace(seq, std::move(pending));
  TransmitFrame(from, to, seq);
  ScheduleRtxCheck(from, to, seq);
}

void EventNetwork::TransmitFrame(SiteId from, SiteId to, uint64_t seq) {
  auto link_it = links_.find({from, to});
  ESSDDS_CHECK(link_it != links_.end());
  auto pending_it = link_it->second.unacked.find(seq);
  ESSDDS_CHECK(pending_it != link_it->second.unacked.end());
  const Message& msg = pending_it->second.msg;

  if (options_.protocol_drop_prob > 0.0 &&
      rng_.Bernoulli(options_.protocol_drop_prob)) {
    ++stats_.dropped_messages;
    TraceHop(obs::HopKind::kDrop, msg);
    return;  // the retransmission timer recovers
  }
  if (options_.protocol_duplicate_prob > 0.0 &&
      rng_.Bernoulli(options_.protocol_duplicate_prob)) {
    ++stats_.duplicated_messages;
    TraceHop(obs::HopKind::kDuplicate, msg);
    Event dup;
    dup.time_us = DeliveryTime(from, to);
    dup.a = from;
    dup.b = to;
    dup.frame_seq = seq;
    dup.msg = msg;
    PushEvent(std::move(dup));
  }
  Event ev;
  ev.time_us = DeliveryTime(from, to);
  ev.a = from;
  ev.b = to;
  ev.frame_seq = seq;
  ev.msg = msg;
  PushEvent(std::move(ev));
}

void EventNetwork::ScheduleRtxCheck(SiteId from, SiteId to, uint64_t seq) {
  Event ev;
  ev.time_us = now_us_ + kAckTimeoutUs;
  ev.kind = EvKind::kRtxCheck;
  ev.a = from;
  ev.b = to;
  ev.frame_seq = seq;
  PushEvent(std::move(ev));
}

void EventNetwork::HandleRtxCheck(const Event& ev) {
  auto link_it = links_.find({ev.a, ev.b});
  if (link_it == links_.end()) return;
  auto pending_it = link_it->second.unacked.find(ev.frame_seq);
  if (pending_it == link_it->second.unacked.end()) return;  // acked
  PendingFrame& pending = pending_it->second;
  if (pending.parked_dead) return;  // waits for RedirectSite
  if (killed_[Resolve(ev.b)]) {
    // The destination died while the frame (or its ack) was in flight:
    // stop the timer chain and wait for the rebuilt site.
    pending.parked_dead = true;
    TraceHop(obs::HopKind::kPark, pending.msg);
    return;
  }
  ++pending.retransmits;
  ESSDDS_CHECK(pending.retransmits <= kMaxFrameRetransmits)
      << "frame to live site " << ev.b << " exceeded "
      << kMaxFrameRetransmits << " retransmits";
  ++stats_.retransmitted_frames;
  TraceHop(obs::HopKind::kRetry, pending.msg);
  TransmitFrame(ev.a, ev.b, ev.frame_seq);
  ScheduleRtxCheck(ev.a, ev.b, ev.frame_seq);
}

void EventNetwork::DeliverNow(Message& msg, SiteId dest) {
  msg.to = dest;  // redirects rewrite the address the handler sees
  TraceHop(obs::HopKind::kDeliver, msg);
  sites_[dest]->OnMessage(msg, *this);
}

void EventNetwork::DeliverReliable(Event ev) {
  const SiteId dest = Resolve(ev.msg.to);
  LinkState& link = links_[{ev.a, ev.b}];
  if (killed_[dest]) {
    // Keep the frame in sender-side link state; RedirectSite resends it to
    // the rebuilt site. The physical copy is dropped (a killed site reads
    // nothing), so nothing replays out of the dead-letter queue twice.
    auto pending_it = link.unacked.find(ev.frame_seq);
    if (pending_it != link.unacked.end()) {
      pending_it->second.parked_dead = true;
      TraceHop(obs::HopKind::kPark, ev.msg);
    }
    return;
  }
  if (paused_[dest]) {
    // Parking is lossless (ResumeSite replays), so the park IS the
    // delivery as far as the ack layer is concerned: ack now, stop the
    // retransmission chain, and let the resume-time delivery dedup.
    link.unacked.erase(ev.frame_seq);
    TraceHop(obs::HopKind::kPark, ev.msg);
    parked_[dest].push_back(std::move(ev));
    return;
  }

  // Ack travels the reverse link and may itself be dropped — the sender
  // then retransmits and the sequence check below discards the duplicate.
  ++stats_.link_acks;
  if (!(options_.protocol_drop_prob > 0.0 &&
        rng_.Bernoulli(options_.protocol_drop_prob))) {
    Event ack;
    ack.time_us = DeliveryTime(ev.b, ev.a);
    ack.kind = EvKind::kAck;
    ack.a = ev.a;
    ack.b = ev.b;
    ack.frame_seq = ev.frame_seq;
    PushEvent(std::move(ack));
  }

  if (ev.frame_seq < link.next_recv_seq) {
    TraceHop(obs::HopKind::kStale, ev.msg);  // duplicate of a delivered frame
    return;
  }
  if (ev.frame_seq > link.next_recv_seq) {
    link.reorder.emplace(ev.frame_seq, std::move(ev.msg));  // hold for order
    return;
  }
  ++link.next_recv_seq;
  DeliverNow(ev.msg, dest);
  // Drain any successors that arrived early.
  auto next = link.reorder.find(link.next_recv_seq);
  while (next != link.reorder.end()) {
    Message held = std::move(next->second);
    link.reorder.erase(next);
    ++link.next_recv_seq;
    DeliverNow(held, Resolve(held.to));
    next = link.reorder.find(link.next_recv_seq);
  }
}

bool EventNetwork::Pump() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), EventAfter{});
  Event ev = std::move(heap_.back());
  heap_.pop_back();
  now_us_ = std::max(now_us_, ev.time_us);

  switch (ev.kind) {
    case EvKind::kResume:
      ResumeSite(ev.resume_site);
      return true;
    case EvKind::kAck:
      links_[{ev.a, ev.b}].unacked.erase(ev.frame_seq);
      return true;
    case EvKind::kRtxCheck:
      HandleRtxCheck(ev);
      return true;
    case EvKind::kTimer: {
      const SiteId dest = Resolve(ev.msg.to);
      if (killed_[dest]) return true;  // a dead site's timers die with it
      if (paused_[dest]) {
        parked_[dest].push_back(std::move(ev));
        return true;
      }
      DeliverNow(ev.msg, dest);
      return true;
    }
    case EvKind::kDeliver:
      break;
  }

  if (ev.frame_seq > 0) {
    DeliverReliable(std::move(ev));
    return true;
  }
  const SiteId dest = Resolve(ev.msg.to);
  if (killed_[dest]) {
    TraceHop(obs::HopKind::kPark, ev.msg);
    dead_letter_[dest].push_back(std::move(ev.msg));
    return true;
  }
  if (paused_[dest]) {
    TraceHop(obs::HopKind::kPark, ev.msg);
    parked_[dest].push_back(std::move(ev));
    return true;
  }
  // A kScan delivery enqueues a ScanTask; its reply goes out at the next
  // drain. A kScan parked at a paused bucket can replay here long after
  // its initiator drained the batch — the task then waits in the pending
  // queue until the next drain, and the bucket resolves it against
  // pre-mutation content before any record change, so the (eventually
  // stale) reply still carries the hits the bucket held at this delivery.
  DeliverNow(ev.msg, dest);
  return true;
}

size_t EventNetwork::parked_messages() const {
  size_t n = 0;
  for (const auto& p : parked_) n += p.size();
  return n;
}

size_t EventNetwork::dead_letter_messages() const {
  size_t n = 0;
  for (const auto& p : dead_letter_) n += p.size();
  return n;
}

void EventNetwork::PauseSite(SiteId site) {
  ESSDDS_CHECK(site < sites_.size());
  ESSDDS_CHECK(!killed_[site]) << "cannot pause a killed site";
  paused_[site] = true;
}

void EventNetwork::PauseSite(SiteId site, uint64_t duration_us) {
  PauseSite(site);
  Event resume;
  resume.time_us = now_us_ + duration_us;
  resume.kind = EvKind::kResume;
  resume.resume_site = site;
  PushEvent(std::move(resume));
}

void EventNetwork::ResumeSite(SiteId site) {
  ESSDDS_CHECK(site < sites_.size());
  paused_[site] = false;
  std::vector<Event> held = std::move(parked_[site]);
  parked_[site].clear();
  for (Event& ev : held) {
    TraceHop(obs::HopKind::kReplay, ev.msg);
    if (ev.kind == EvKind::kTimer) {
      ev.time_us = now_us_;
      PushEvent(std::move(ev));
    } else if (ev.frame_seq > 0) {
      // Replayed reliable frame: keep its link identity and sequence (it
      // was already acked at park time), redraw only the latency.
      ev.time_us = DeliveryTime(ev.a, ev.b);
      PushEvent(std::move(ev));
    } else {
      ScheduleMessage(std::move(ev.msg));
    }
  }
}

void EventNetwork::KillSite(SiteId site) {
  ESSDDS_CHECK(site < sites_.size());
  ESSDDS_CHECK(!paused_[site]) << "kill of a paused site is unsupported";
  killed_[site] = true;
}

void EventNetwork::RedirectSite(SiteId from, SiteId to) {
  ESSDDS_CHECK(from < sites_.size() && to < sites_.size());
  ESSDDS_CHECK(killed_[from]) << "only killed sites can be redirected";
  ESSDDS_CHECK(!killed_[Resolve(to)]) << "redirect target is dead";
  redirect_[from] = to;

  // Everything that parked while the site was dead now flows to the
  // rebuilt successor: dead letters replay with fresh latencies...
  std::vector<Message> held = std::move(dead_letter_[from]);
  dead_letter_[from].clear();
  for (Message& msg : held) {
    TraceHop(obs::HopKind::kReplay, msg);
    ScheduleMessage(std::move(msg));  // msg.to re-resolves at delivery
  }
  // ...and reliable frames that were waiting on a dead destination
  // retransmit (the redirect may have revived destinations reached through
  // chains, so re-check every parked frame).
  for (auto& [key, link] : links_) {
    for (auto& [seq, pending] : link.unacked) {
      if (!pending.parked_dead) continue;
      if (killed_[Resolve(key.second)]) continue;
      pending.parked_dead = false;
      ++stats_.retransmitted_frames;
      TraceHop(obs::HopKind::kRetry, pending.msg);
      TransmitFrame(key.first, key.second, seq);
      ScheduleRtxCheck(key.first, key.second, seq);
    }
  }
}

bool EventNetwork::HasInFlightFrom(SiteId site) const {
  for (const Event& ev : heap_) {
    if (ev.kind == EvKind::kDeliver && ev.msg.from == site) return true;
  }
  for (const auto& p : parked_) {
    for (const Event& ev : p) {
      if (ev.kind == EvKind::kDeliver && ev.msg.from == site) return true;
    }
  }
  for (const auto& [key, link] : links_) {
    if (key.first != site) continue;
    for (const auto& [seq, pending] : link.unacked) {
      if (!pending.parked_dead) return true;
    }
  }
  return false;
}

void EventNetwork::ScriptDrop(MsgType type, uint64_t occurrence) {
  ESSDDS_CHECK(occurrence > 0) << "occurrences are 1-based";
  scripted_drops_[type].push_back(sends_of_type_[type] + occurrence);
}

}  // namespace essdds::sdds
