#ifndef ESSDDS_SDDS_PARITY_SERVER_H_
#define ESSDDS_SDDS_PARITY_SERVER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "gf/gf2n.h"
#include "sdds/column_store.h"
#include "sdds/lh_options.h"
#include "sdds/network.h"
#include "sdds/rs_code.h"
#include "util/bytes.h"
#include "util/result.h"

namespace essdds::sdds {

// --- parity wire helpers (DESIGN.md §16) -------------------------------
//
// Parity is computed over fixed "rank" slots, LH*_RS style: every data
// bucket assigns each of its records a small integer rank, and the group's
// parity bucket j holds, per rank r,
//   P_j[r] = sum_i ParityCoeff(j, i) * D_i[r]
// over GF(2^8), where D_i[r] is member i's canonical rank buffer below
// (empty when member i has no record at rank r). Because GF addition is
// XOR, a record mutation folds into every parity row as a scaled delta of
// the old and new rank buffers — no other member's data needed.

/// Canonical rank buffer of a record: [present=1 u8][key u64][value
/// length-prefixed]. Buffers are compared modulo trailing zeros: the empty
/// byte string is the canonical buffer of an unoccupied rank, all-zero
/// padding added by XOR arithmetic or RS decode is equivalent, and
/// trimming may even cut into the encoding (a value ending in 0x00, an
/// empty value under a key with zero low bytes) — ParseRankBuffer restores
/// the missing bytes by zero-extension.
Bytes RankBuffer(uint64_t key, ByteSpan value);

/// A parsed rank buffer; `present` false for an unoccupied rank.
struct RankEntry {
  bool present = false;
  uint64_t key = 0;
  Bytes value;
};

/// Upper bound on a single record value reachable through a rank buffer.
/// Rank buffers are an equivalence class modulo trailing zeros, so the
/// parser must zero-extend up to the declared value length; the bound keeps
/// a garbage length prefix from turning that extension into a giant
/// allocation (junk in, error out).
inline constexpr size_t kMaxRankValueBytes = size_t{1} << 24;  // 16 MiB

/// Parses a rank buffer modulo trailing zeros: extra zero bytes (XOR
/// arithmetic / RS decode padding) are ignored, and a buffer cut short by
/// canonical trimming — a value ending in 0x00 loses those bytes — is
/// implicitly zero-extended to its declared length. Fails on nonzero bytes
/// past the payload, an invalid marker, or a value length above
/// kMaxRankValueBytes — decoded garbage must not pass.
Result<RankEntry> ParseRankBuffer(ByteSpan buf);

/// XOR of two byte strings, zero-padded to the longer length, with
/// trailing zero bytes trimmed (keeps rank buffers canonical).
Bytes XorBytes(ByteSpan a, ByteSpan b);

/// One record mutation as shipped to the group's parity sites inside a
/// kParityUpdate (one WireRecord per entry: key = rank, value = encoded
/// entry). The delta is the unscaled XOR of the member's old and new rank
/// buffers; each parity site scales it by its own generator coefficient.
struct ParityEntry {
  uint8_t op = 0;  // 0 = upsert (key now occupies the rank), 1 = erase
  uint64_t record_key = 0;
  Bytes delta;
};

Bytes EncodeParityEntry(const ParityEntry& e);
Result<ParityEntry> DecodeParityEntry(ByteSpan data);

/// Per-member sequence targets of a reconstruction round (member index ->
/// update count), sent by the recovery proxy to its parity peers so every
/// parity row snapshots the identical cut of the update stream.
Bytes EncodeSeqTargets(const std::map<int, uint64_t>& targets);
Result<std::map<int, uint64_t>> DecodeSeqTargets(ByteSpan data);

/// One parity bucket of an LH*RS-style parity group (DESIGN.md §16): the
/// k data buckets [group*k, group*k + k) are RS-coded onto m of these.
///
/// Normal operation: applies kParityUpdate deltas from its group's data
/// members, strictly in each member's sequence order (an out-of-order
/// buffer absorbs network reordering — rank/keymap bookkeeping does not
/// commute even though the XOR arithmetic does).
///
/// Recovery: when the hosting system declares a member dead it names the
/// group's first live parity site the RECOVERY PROXY (BeginRecovery). The
/// proxy freezes the surviving members (kReconstructRequest mode 0; they
/// answer a rank-buffer slice and park mutations), waits for the dead
/// members' in-flight updates to drain, aligns its parity peers on the
/// exact per-member sequence cut (mode 1), RS-decodes every lost bucket,
/// serves degraded reads and scans from the decoded shadow while the
/// coordinator's rebuild hold lasts, installs the rebuilt bucket via
/// LhRuntime::RebuildBucket on kRebuild, and finally releases everyone
/// (mode 2).
class ParityServer final : public Site {
 public:
  ParityServer(LhRuntime* runtime, const LhOptions& options, uint64_t group,
               int parity_index);

  void OnMessage(Message& msg, Network& net) override;

  void set_site(SiteId site) { site_ = site; }
  SiteId site() const { return site_; }
  uint64_t group() const { return group_; }
  int parity_index() const { return parity_index_; }

  /// Hosting-system hook: member `bucket` of this group was (re)created at
  /// `level`. First creation initialises its tracking; a re-creation after
  /// a merge-retire only refreshes level/loading — the update sequence and
  /// rank mirror continue across the bucket number's reuse. A member born
  /// while a gather runs is frozen immediately (hence the network).
  void InitMember(uint64_t bucket, uint32_t level, bool loading, Network& net);

  /// Hosting-system hook (proxy role): data bucket `bucket` was declared
  /// dead; start (or restart, folding the new death in) the gather.
  void BeginRecovery(uint64_t bucket, Network& net);

  /// Restart / parity-rebuild path: adopts a parity row recomputed
  /// in-process from the data buckets, plus the member bookkeeping that
  /// goes with it.
  struct MemberSeed {
    uint64_t bucket = 0;
    uint32_t level = 0;
    uint64_t applied = 0;
    std::map<uint64_t, uint64_t> key_rank;  // record key -> rank
  };
  void InstallSeed(std::map<uint64_t, Bytes> parity,
                   std::vector<MemberSeed> seeds);

  // --- introspection (tests, audit) ---
  const std::map<uint64_t, Bytes>& parity() const { return parity_; }
  uint64_t applied(uint64_t bucket) const;
  bool recovering() const { return gather_active_; }
  bool shadow_ready() const { return decode_valid_; }

 private:
  struct MemberState {
    bool inited = false;  // ever created in this group
    bool dead = false;    // currently being recovered
    bool loading = false;
    uint32_t level = 0;
    uint64_t applied = 0;  // updates applied == member's emitted seq
    std::map<uint64_t, Message> ooo;        // seq -> pending update
    std::map<uint64_t, uint64_t> key_rank;  // mirror of the member's ranks
  };

  /// Decoded state of one dead member, served degraded until installed.
  /// `records` is built once at decode and read like any bucket's store.
  struct Shadow {
    ColumnStore records;
    std::map<uint64_t, uint64_t> key_rank;
    uint32_t level = 0;
    bool loading = false;
    uint64_t seq = 0;
  };

  uint64_t BucketOfMember(int i) const {
    return group_ * static_cast<uint64_t>(k_) + static_cast<uint64_t>(i);
  }
  int MemberOfBucket(uint64_t bucket) const;

  void HandleParityUpdate(Message& msg, Network& net);
  void ApplyUpdate(int member, Message& msg);
  void DrainReady(int member, Network& net);

  // proxy role
  void NoteDead(int member, Network& net);
  void RestartGather(Network& net);
  void CheckGather(Network& net);
  void DecodeDead(Network& net);
  void InstallRebuild(int member, Network& net);
  void ReleaseAll(Network& net);
  void ArmTick(Network& net);

  // peer role
  void CheckPeerConverged(Network& net);

  // degraded serving
  void ServeDegradedLookup(Message& msg, Network& net, int member);
  void ServeDegradedScan(Message& msg, Network& net, int member);
  void ServeParkedReads(Network& net);

  LhRuntime* runtime_;
  LhOptions options_;
  uint64_t group_;
  int parity_index_;
  int k_;
  int m_;
  SiteId site_ = kInvalidSite;
  const gf::GfField* field_;
  RsCode code_;

  std::map<uint64_t, Bytes> parity_;  // rank -> this row's parity buffer
  std::vector<MemberState> members_;  // size k_

  // --- proxy state ---
  bool gather_active_ = false;
  /// Virtual time of the most recent gather (re)start — the base of the
  /// recovery.freeze_us phase timer (freeze broadcast -> decode start).
  uint64_t gather_started_us_ = 0;
  uint64_t epoch_ = 0;
  bool tick_armed_ = false;
  std::set<int> dead_members_;
  struct SliceInfo {
    std::map<uint64_t, Bytes> buffers;  // rank -> buffer
    uint64_t seq = 0;
    uint32_t level = 0;
    bool loading = false;
  };
  std::map<int, SliceInfo> slices_;                       // live members
  std::map<int, std::map<uint64_t, Bytes>> peer_pieces_;  // parity index
  std::set<int> peers_awaited_;
  bool targets_sent_ = false;
  std::map<int, uint64_t> targets_;
  bool decode_valid_ = false;
  std::map<int, Shadow> shadow_;
  std::set<int> pending_rebuilds_;  // kRebuild received before decode
  /// Reads parked until the decode lands; writes/control parked until the
  /// rebuilt server is installed (keyed for dedup across client retries).
  std::vector<Message> parked_reads_;
  std::map<std::pair<SiteId, uint64_t>, Message> parked_ops_;
  uint64_t shadow_generation_ = 0;  // scan-task generation anchor

  // --- peer state ---
  bool held_ = false;
  bool have_peer_targets_ = false;
  std::map<int, uint64_t> peer_targets_;
  uint64_t peer_epoch_ = 0;
  SiteId peer_proxy_site_ = kInvalidSite;
  bool peer_piece_sent_ = false;
};

}  // namespace essdds::sdds

#endif  // ESSDDS_SDDS_PARITY_SERVER_H_
