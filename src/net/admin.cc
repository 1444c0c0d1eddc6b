#include "net/admin.h"

#include <algorithm>
#include <chrono>
#include <compare>
#include <map>
#include <string>
#include <tuple>
#include <utility>

#include "sdds/message.h"
#include "util/json_writer.h"
#include "util/logging.h"
#include "util/wire.h"

namespace essdds::net {

namespace {

// How long one admin pull waits for its reply.
constexpr auto kAdminReplyTimeout = std::chrono::seconds(10);

std::string_view TypeName(uint8_t t) {
  return sdds::MsgTypeToString(static_cast<sdds::MsgType>(t));
}

void WriteName(WireWriter& w, std::string_view name) {
  w.WriteLengthPrefixed(
      ByteSpan(reinterpret_cast<const uint8_t*>(name.data()), name.size()));
}

Result<std::string> ReadName(WireReader& r) {
  ESSDDS_ASSIGN_OR_RETURN(const ByteSpan b, r.ReadLengthPrefixed());
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

}  // namespace

// ---------------------------------------------------------------------------
// Metrics body
// ---------------------------------------------------------------------------

Bytes EncodeMetricsBody(const obs::MetricRegistry& registry,
                        const sdds::NetworkStats& stats) {
  WireWriter w;
  w.WriteU8(kAdminMetricsVersion);

  const auto counters = registry.CounterValues();
  w.WriteU32(static_cast<uint32_t>(counters.size()));
  for (const auto& [name, v] : counters) {
    WriteName(w, name);
    w.WriteU64(v);
  }

  const auto gauges = registry.GaugeValues();
  w.WriteU32(static_cast<uint32_t>(gauges.size()));
  for (const auto& [name, v] : gauges) {
    WriteName(w, name);
    w.WriteU64(static_cast<uint64_t>(v));  // two's-complement round trip
  }

  const auto hists = registry.HistogramStates();
  w.WriteU32(static_cast<uint32_t>(hists.size()));
  for (const auto& [name, s] : hists) {
    WriteName(w, name);
    w.WriteU64(s.count);
    w.WriteU64(s.sum);
    w.WriteU64(s.max);
    uint8_t nonzero = 0;
    for (size_t b = 0; b < obs::HistogramState::kBuckets; ++b) {
      if (s.buckets[b]) ++nonzero;
    }
    w.WriteU8(nonzero);  // sparse: a latency histogram fills ~10 of 65
    for (size_t b = 0; b < obs::HistogramState::kBuckets; ++b) {
      if (s.buckets[b]) {
        w.WriteU8(static_cast<uint8_t>(b));
        w.WriteU64(s.buckets[b]);
      }
    }
  }

  w.WriteU64(stats.total_messages);
  w.WriteU64(stats.total_bytes);
  w.WriteU64(stats.forwarded_messages);
  w.WriteU64(stats.dropped_messages);
  w.WriteU64(stats.duplicated_messages);
  w.WriteU64(stats.retried_messages);
  w.WriteU64(stats.retransmitted_frames);
  w.WriteU64(stats.link_acks);
  w.WriteU32(static_cast<uint32_t>(stats.per_type.size()));
  for (const auto& [type, count] : stats.per_type) {
    w.WriteU8(static_cast<uint8_t>(type));
    w.WriteU64(count);
  }
  return w.TakeBuffer();
}

Status DecodeMetricsBody(ByteSpan body, HostMetrics* out) {
  WireReader r(body);
  ESSDDS_ASSIGN_OR_RETURN(const uint8_t version, r.ReadU8());
  if (version != kAdminMetricsVersion) {
    return Status::Corruption("admin metrics: unsupported version " +
                              std::to_string(version));
  }

  ESSDDS_ASSIGN_OR_RETURN(const uint32_t n_counters, r.ReadCount(4 + 8));
  out->counters.clear();
  out->counters.reserve(n_counters);
  for (uint32_t i = 0; i < n_counters; ++i) {
    ESSDDS_ASSIGN_OR_RETURN(std::string name, ReadName(r));
    ESSDDS_ASSIGN_OR_RETURN(const uint64_t v, r.ReadU64());
    out->counters.emplace_back(std::move(name), v);
  }

  ESSDDS_ASSIGN_OR_RETURN(const uint32_t n_gauges, r.ReadCount(4 + 8));
  out->gauges.clear();
  out->gauges.reserve(n_gauges);
  for (uint32_t i = 0; i < n_gauges; ++i) {
    ESSDDS_ASSIGN_OR_RETURN(std::string name, ReadName(r));
    ESSDDS_ASSIGN_OR_RETURN(const uint64_t v, r.ReadU64());
    out->gauges.emplace_back(std::move(name), static_cast<int64_t>(v));
  }

  ESSDDS_ASSIGN_OR_RETURN(const uint32_t n_hists, r.ReadCount(4 + 24 + 1));
  out->histograms.clear();
  out->histograms.reserve(n_hists);
  for (uint32_t i = 0; i < n_hists; ++i) {
    ESSDDS_ASSIGN_OR_RETURN(std::string name, ReadName(r));
    obs::HistogramState s;
    ESSDDS_ASSIGN_OR_RETURN(s.count, r.ReadU64());
    ESSDDS_ASSIGN_OR_RETURN(s.sum, r.ReadU64());
    ESSDDS_ASSIGN_OR_RETURN(s.max, r.ReadU64());
    ESSDDS_ASSIGN_OR_RETURN(const uint8_t nonzero, r.ReadU8());
    for (uint8_t b = 0; b < nonzero; ++b) {
      ESSDDS_ASSIGN_OR_RETURN(const uint8_t idx, r.ReadU8());
      if (idx >= obs::HistogramState::kBuckets) {
        return Status::Corruption("admin metrics: histogram bucket index " +
                                  std::to_string(idx) + " out of range");
      }
      ESSDDS_ASSIGN_OR_RETURN(s.buckets[idx], r.ReadU64());
    }
    out->histograms.emplace_back(std::move(name), s);
  }

  sdds::NetworkStats& st = out->stats;
  st = sdds::NetworkStats{};
  ESSDDS_ASSIGN_OR_RETURN(st.total_messages, r.ReadU64());
  ESSDDS_ASSIGN_OR_RETURN(st.total_bytes, r.ReadU64());
  ESSDDS_ASSIGN_OR_RETURN(st.forwarded_messages, r.ReadU64());
  ESSDDS_ASSIGN_OR_RETURN(st.dropped_messages, r.ReadU64());
  ESSDDS_ASSIGN_OR_RETURN(st.duplicated_messages, r.ReadU64());
  ESSDDS_ASSIGN_OR_RETURN(st.retried_messages, r.ReadU64());
  ESSDDS_ASSIGN_OR_RETURN(st.retransmitted_frames, r.ReadU64());
  ESSDDS_ASSIGN_OR_RETURN(st.link_acks, r.ReadU64());
  ESSDDS_ASSIGN_OR_RETURN(const uint32_t n_types, r.ReadCount(1 + 8));
  for (uint32_t i = 0; i < n_types; ++i) {
    ESSDDS_ASSIGN_OR_RETURN(const uint8_t type, r.ReadU8());
    if (type > static_cast<uint8_t>(sdds::MsgType::kRecoveryTick)) {
      return Status::Corruption("admin metrics: unknown message type " +
                                std::to_string(type));
    }
    ESSDDS_ASSIGN_OR_RETURN(const uint64_t count, r.ReadU64());
    st.per_type[static_cast<sdds::MsgType>(type)] = count;
  }
  return r.ExpectEnd();
}

// ---------------------------------------------------------------------------
// Trace body
// ---------------------------------------------------------------------------

Bytes EncodeTraceBody(const obs::TraceRing& ring, uint64_t trace_id) {
  WireWriter w;
  w.WriteU64(ring.overwritten());
  const std::vector<obs::TraceEvent> events = ring.Snapshot(trace_id);
  w.WriteU32(static_cast<uint32_t>(events.size()));
  for (const obs::TraceEvent& ev : events) {
    w.WriteU64(ev.time_us);
    w.WriteU64(ev.trace_id);
    w.WriteU64(ev.request_id);
    w.WriteU64(ev.key);
    w.WriteU32(ev.from);
    w.WriteU32(ev.to);
    w.WriteU8(ev.msg_type);
    w.WriteU8(static_cast<uint8_t>(ev.kind));
  }
  return w.TakeBuffer();
}

Status DecodeTraceBody(ByteSpan body, HostTrace* out) {
  WireReader r(body);
  ESSDDS_ASSIGN_OR_RETURN(out->overwritten, r.ReadU64());
  ESSDDS_ASSIGN_OR_RETURN(const uint32_t n, r.ReadCount(42));
  out->events.clear();
  out->events.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    obs::TraceEvent ev;
    ESSDDS_ASSIGN_OR_RETURN(ev.time_us, r.ReadU64());
    ESSDDS_ASSIGN_OR_RETURN(ev.trace_id, r.ReadU64());
    ESSDDS_ASSIGN_OR_RETURN(ev.request_id, r.ReadU64());
    ESSDDS_ASSIGN_OR_RETURN(ev.key, r.ReadU64());
    ESSDDS_ASSIGN_OR_RETURN(ev.from, r.ReadU32());
    ESSDDS_ASSIGN_OR_RETURN(ev.to, r.ReadU32());
    ESSDDS_ASSIGN_OR_RETURN(ev.msg_type, r.ReadU8());
    ESSDDS_ASSIGN_OR_RETURN(const uint8_t kind, r.ReadU8());
    if (kind > static_cast<uint8_t>(obs::HopKind::kOpDone)) {
      return Status::Corruption("admin trace: unknown hop kind " +
                                std::to_string(kind));
    }
    ev.kind = static_cast<obs::HopKind>(kind);
    out->events.push_back(ev);
  }
  return r.ExpectEnd();
}

// ---------------------------------------------------------------------------
// Reply envelope
// ---------------------------------------------------------------------------

Bytes EncodeAdminReply(FrameKind orig, uint32_t host_index, uint64_t now_us,
                       ByteSpan body) {
  WireWriter w;
  w.WriteU8(static_cast<uint8_t>(orig));
  w.WriteU32(host_index);
  w.WriteU64(now_us);
  w.WriteBytes(body);
  return w.TakeBuffer();
}

Result<AdminReply> DecodeAdminReply(ByteSpan payload) {
  WireReader r(payload);
  ESSDDS_ASSIGN_OR_RETURN(const uint8_t orig, r.ReadU8());
  if (orig < static_cast<uint8_t>(FrameKind::kAdminMetricsPull) ||
      orig > static_cast<uint8_t>(FrameKind::kAdminHealth)) {
    return Status::Corruption("admin reply: invalid original kind " +
                              std::to_string(orig));
  }
  AdminReply reply;
  reply.orig = static_cast<FrameKind>(orig);
  ESSDDS_ASSIGN_OR_RETURN(reply.host_index, r.ReadU32());
  ESSDDS_ASSIGN_OR_RETURN(reply.now_us, r.ReadU64());
  ESSDDS_ASSIGN_OR_RETURN(const ByteSpan body, r.ReadBytes(r.remaining()));
  reply.body.assign(body.begin(), body.end());
  return reply;
}

// ---------------------------------------------------------------------------
// Cluster metrics merge + rendering
// ---------------------------------------------------------------------------

namespace {

/// Folds plain snapshots into a registry and renders its JSON. Counters and
/// gauges accumulate by summation, histograms via Histogram::MergeState —
/// the same machinery MergeFrom uses, so the rendered cluster quantiles are
/// exactly what one process-wide histogram over all samples would report.
/// With metrics compiled out the registry is a stub and this renders "{}".
class RegistryAccumulator {
 public:
  void Add(const HostMetrics& host) {
    for (const auto& [name, v] : host.counters) {
      registry_.counter(name).Increment(v);
    }
    for (const auto& [name, v] : host.gauges) {
      gauge_sums_[name] += v;
      registry_.gauge(name).Set(gauge_sums_[name]);
    }
    for (const auto& [name, s] : host.histograms) {
      registry_.histogram(name).MergeState(s);
    }
  }

  std::string ToJson() const { return registry_.ToJson(); }

 private:
  obs::MetricRegistry registry_;
  std::map<std::string, int64_t> gauge_sums_;
};

}  // namespace

sdds::NetworkStats ClusterMetrics::MergedStats() const {
  sdds::NetworkStats merged;
  for (const HostMetrics& h : hosts) {
    merged.total_messages += h.stats.total_messages;
    merged.total_bytes += h.stats.total_bytes;
    merged.forwarded_messages += h.stats.forwarded_messages;
    merged.dropped_messages += h.stats.dropped_messages;
    merged.duplicated_messages += h.stats.duplicated_messages;
    merged.retried_messages += h.stats.retried_messages;
    merged.retransmitted_frames += h.stats.retransmitted_frames;
    merged.link_acks += h.stats.link_acks;
    for (const auto& [type, count] : h.stats.per_type) {
      merged.per_type[type] += count;
    }
  }
  return merged;
}

std::string ClusterMetrics::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("hosts").BeginArray();
  for (const HostMetrics& h : hosts) {
    RegistryAccumulator acc;
    acc.Add(h);
    w.BeginObject()
        .KV("host_index", h.host_index)
        .KV("now_us", h.now_us)
        .Key("net")
        .Raw(h.stats.ToJson())
        .Key("metrics")
        .Raw(acc.ToJson())
        .EndObject();
  }
  w.EndArray();
  RegistryAccumulator cluster;
  for (const HostMetrics& h : hosts) cluster.Add(h);
  w.Key("cluster")
      .BeginObject()
      .KV("host_count", static_cast<uint64_t>(hosts.size()))
      .Key("net")
      .Raw(MergedStats().ToJson())
      .Key("metrics")
      .Raw(cluster.ToJson())
      .EndObject();
  w.EndObject();
  return w.str();
}

// ---------------------------------------------------------------------------
// Trace assembly
// ---------------------------------------------------------------------------

AssembledTrace StitchTrace(
    uint64_t trace_id,
    const std::vector<std::pair<int32_t, std::vector<obs::TraceEvent>>>&
        sources) {
  AssembledTrace out;
  out.trace_id = trace_id;

  // Flatten into nodes, keeping (source order, ring order) addressing.
  struct Node {
    int32_t host;
    size_t source;  // index into `sources`
    size_t index;   // ring order within the source
    obs::TraceEvent ev;
    size_t indegree = 0;
    bool emitted = false;
    std::vector<size_t> succ;
  };
  std::vector<Node> nodes;
  for (size_t s = 0; s < sources.size(); ++s) {
    size_t prev = SIZE_MAX;
    for (size_t i = 0; i < sources[s].second.size(); ++i) {
      const obs::TraceEvent& ev = sources[s].second[i];
      if (trace_id != 0 && ev.trace_id != trace_id) continue;
      nodes.push_back(Node{sources[s].first, s, i, ev, 0, false, {}});
      // Rule 1: program order within one ring.
      if (prev != SIZE_MAX) {
        nodes[prev].succ.push_back(nodes.size() - 1);
        nodes.back().indegree++;
      }
      prev = nodes.size() - 1;
    }
  }

  // Rule 2: kSend -> the receive it caused. Per-connection FIFO means the
  // k-th receive of a (request_id, from, to, msg_type) signature was caused
  // by the k-th send of that signature; match ordinally per signature, with
  // sends and receives each taken in deterministic (source, index) order
  // (nodes[] is already in that order). "Receive" is kDeliver on a host,
  // and kOpDone / kStale on the client — a client records a reply's arrival
  // as the op closing (or a stale discard), never as a kDeliver, and
  // without this edge the server's reply send would dangle unordered past
  // the end of the op.
  struct Sig {
    uint64_t request_id;
    uint32_t from, to;
    uint8_t msg_type;
    auto operator<=>(const Sig&) const = default;
  };
  std::map<Sig, std::pair<std::vector<size_t>, std::vector<size_t>>> by_sig;
  for (size_t n = 0; n < nodes.size(); ++n) {
    const obs::TraceEvent& ev = nodes[n].ev;
    const Sig sig{ev.request_id, ev.from, ev.to, ev.msg_type};
    if (nodes[n].ev.kind == obs::HopKind::kSend) {
      by_sig[sig].first.push_back(n);
    } else if (nodes[n].ev.kind == obs::HopKind::kDeliver ||
               nodes[n].ev.kind == obs::HopKind::kOpDone ||
               nodes[n].ev.kind == obs::HopKind::kStale) {
      by_sig[sig].second.push_back(n);
    }
  }
  for (auto& [sig, lists] : by_sig) {
    auto& [sends, delivers] = lists;
    const size_t pairs = std::min(sends.size(), delivers.size());
    for (size_t k = 0; k < pairs; ++k) {
      if (nodes[sends[k]].source == nodes[delivers[k]].source) continue;
      nodes[sends[k]].succ.push_back(delivers[k]);
      nodes[delivers[k]].indegree++;
    }
  }

  // Kahn topological sort; rule 3: among ready nodes, smallest
  // (host, source, index) first — the client ring (host -1) leads, and the
  // result is deterministic for a given pull.
  out.hops.reserve(nodes.size());
  size_t remaining = nodes.size();
  while (remaining > 0) {
    size_t pick = SIZE_MAX;
    for (size_t n = 0; n < nodes.size(); ++n) {
      if (nodes[n].emitted || nodes[n].indegree > 0) continue;
      if (pick == SIZE_MAX ||
          std::tuple(nodes[n].host, nodes[n].source, nodes[n].index) <
              std::tuple(nodes[pick].host, nodes[pick].source,
                         nodes[pick].index)) {
        pick = n;
      }
    }
    if (pick == SIZE_MAX) {
      // Cycle (truncated rings can orphan edges): emit the rest in source
      // order and flag the timeline as not fully ordered.
      out.ordered = false;
      for (size_t n = 0; n < nodes.size(); ++n) {
        if (!nodes[n].emitted) {
          out.hops.push_back(ClusterHop{nodes[n].host, nodes[n].ev});
          nodes[n].emitted = true;
        }
      }
      break;
    }
    nodes[pick].emitted = true;
    --remaining;
    out.hops.push_back(ClusterHop{nodes[pick].host, nodes[pick].ev});
    for (size_t succ : nodes[pick].succ) {
      if (nodes[succ].indegree > 0) nodes[succ].indegree--;
    }
  }
  return out;
}

std::string FormatAssembledTrace(const AssembledTrace& trace) {
  std::string out;
  out += "trace " + std::to_string(trace.trace_id) + ": " +
         std::to_string(trace.hops.size()) + " hop(s)";
  if (trace.overwritten > 0) {
    out += " (rings overwrote " + std::to_string(trace.overwritten) +
           " events; early hops may be missing)";
  }
  if (!trace.ordered) out += " (cycle detected; tail in source order)";
  out += "\n";
  for (const ClusterHop& hop : trace.hops) {
    out += hop.host < 0 ? "client " : ("host " + std::to_string(hop.host)) + " ";
    out += FormatTraceEvent(hop.ev, TypeName);
    out += "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// AdminClient
// ---------------------------------------------------------------------------

AdminClient::AdminClient(Options options) : options_(std::move(options)) {}
AdminClient::~AdminClient() = default;

Status AdminClient::Connect() {
  conns_.clear();
  conns_.reserve(options_.cluster.hosts.size());
  for (const Endpoint& ep : options_.cluster.hosts) {
    auto fd = DialBlocking(ep, kDialTimeoutMs);
    if (!fd.ok()) {
      conns_.clear();
      return Status::Unavailable("admin: cannot reach " + ep.ToString() +
                                 ": " + fd.status().ToString());
    }
    conns_.push_back(std::make_unique<Conn>(*fd));
  }
  return Status::OK();
}

Result<AdminReply> AdminClient::RoundTrip(size_t host, FrameKind kind,
                                          ByteSpan payload) {
  if (host >= conns_.size() || conns_[host] == nullptr) {
    return Status::FailedPrecondition("admin: not connected");
  }
  Conn& conn = *conns_[host];
  conn.EnqueueFrame(EncodeFrame(kind, payload));
  const auto deadline = std::chrono::steady_clock::now() + kAdminReplyTimeout;
  Poller poller;
  std::vector<PollEntry> entries(1);
  Frame frame;
  for (;;) {
    if (!conn.Flush()) {
      return Status::Unavailable("admin: host " + std::to_string(host) +
                                 " connection lost");
    }
    // Drain any frame already buffered before blocking again.
    ESSDDS_ASSIGN_OR_RETURN(const bool have, conn.NextFrame(&frame));
    if (have) break;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      return Status::Unavailable("admin: host " + std::to_string(host) +
                                 " reply timed out");
    }
    const int timeout_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count() +
        1);
    entries[0] = PollEntry{conn.fd(), true, conn.wants_write()};
    poller.Wait(entries, timeout_ms);
    if (entries[0].error ||
        (entries[0].readable && !conn.ReadReady())) {
      return Status::Unavailable("admin: host " + std::to_string(host) +
                                 " connection lost");
    }
  }
  if (frame.kind != FrameKind::kAdminReply) {
    return Status::Corruption("admin: unexpected frame kind " +
                              std::to_string(static_cast<int>(frame.kind)) +
                              " from host " + std::to_string(host));
  }
  ESSDDS_ASSIGN_OR_RETURN(AdminReply reply, DecodeAdminReply(frame.payload));
  if (reply.orig != kind) {
    return Status::Corruption("admin: reply correlates to a different pull");
  }
  return reply;
}

Result<ClusterMetrics> AdminClient::Metrics() {
  ClusterMetrics out;
  out.hosts.reserve(conns_.size());
  for (size_t h = 0; h < conns_.size(); ++h) {
    ESSDDS_ASSIGN_OR_RETURN(const AdminReply reply,
                            RoundTrip(h, FrameKind::kAdminMetricsPull, {}));
    HostMetrics hm;
    ESSDDS_RETURN_IF_ERROR(DecodeMetricsBody(reply.body, &hm));
    hm.host_index = reply.host_index;
    hm.now_us = reply.now_us;
    out.hosts.push_back(std::move(hm));
  }
  return out;
}

Result<std::vector<HostHealth>> AdminClient::Health() {
  std::vector<HostHealth> out;
  out.reserve(conns_.size());
  for (size_t h = 0; h < conns_.size(); ++h) {
    ESSDDS_ASSIGN_OR_RETURN(const AdminReply reply,
                            RoundTrip(h, FrameKind::kAdminHealth, {}));
    HostHealth health;
    health.host_index = reply.host_index;
    health.now_us = reply.now_us;
    health.json.assign(reply.body.begin(), reply.body.end());
    out.push_back(std::move(health));
  }
  return out;
}

Result<std::vector<HostTrace>> AdminClient::Trace(uint64_t trace_id) {
  WireWriter w;
  w.WriteU64(trace_id);
  const Bytes payload = w.TakeBuffer();
  std::vector<HostTrace> out;
  out.reserve(conns_.size());
  for (size_t h = 0; h < conns_.size(); ++h) {
    ESSDDS_ASSIGN_OR_RETURN(
        const AdminReply reply,
        RoundTrip(h, FrameKind::kAdminTracePull, payload));
    HostTrace trace;
    ESSDDS_RETURN_IF_ERROR(DecodeTraceBody(reply.body, &trace));
    trace.host_index = reply.host_index;
    trace.now_us = reply.now_us;
    out.push_back(std::move(trace));
  }
  return out;
}

Result<AssembledTrace> AdminClient::AssembleTrace(
    uint64_t trace_id, const std::vector<obs::TraceEvent>& client_events) {
  ESSDDS_ASSIGN_OR_RETURN(const std::vector<HostTrace> host_traces,
                          Trace(trace_id));
  std::vector<std::pair<int32_t, std::vector<obs::TraceEvent>>> sources;
  sources.reserve(host_traces.size() + 1);
  uint64_t overwritten = 0;
  if (!client_events.empty()) sources.emplace_back(-1, client_events);
  for (const HostTrace& t : host_traces) {
    overwritten += t.overwritten;
    sources.emplace_back(static_cast<int32_t>(t.host_index), t.events);
  }
  AssembledTrace assembled = StitchTrace(trace_id, sources);
  assembled.overwritten = overwritten;
  return assembled;
}

}  // namespace essdds::net
