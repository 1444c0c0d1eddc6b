#ifndef ESSDDS_SDDS_LH_SYSTEM_H_
#define ESSDDS_SDDS_LH_SYSTEM_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "persist/persist_manager.h"
#include "sdds/event_network.h"
#include "sdds/lh_client.h"
#include "sdds/lh_options.h"
#include "sdds/lh_server.h"
#include "sdds/network.h"
#include "sdds/parity_server.h"

namespace essdds::sdds {

/// Owns one LH* file: the simulated network, the split coordinator, the
/// bucket servers, the logical-bucket directory, and the scan-filter
/// registry. This is the embedding application's entry point to the SDDS
/// substrate.
///
/// Usage:
///   LhSystem sys({.bucket_capacity = 128});
///   uint64_t match_all = sys.InstallFilter([](auto, auto, auto) { ... });
///   LhClient* c = sys.NewClient();
///   c->Insert(42, ToBytes("hello"));
///   auto r = c->Lookup(42);
class LhSystem : public LhRuntime {
 public:
  explicit LhSystem(LhOptions options = {});

  LhSystem(const LhSystem&) = delete;
  LhSystem& operator=(const LhSystem&) = delete;

  /// Creates a client with a fresh (minimal) image of the file.
  LhClient* NewClient();

  /// Installs a site-side scan filter, returning its id for LhClient::Scan.
  /// Stands in for query code deployed at the sites. The filter's Prepare()
  /// hook runs once per scan, and the Prepared instance it returns is
  /// shared by every bucket of the scan (and by worker threads when
  /// scan_threads > 1), so per-scan state lives in the Prepared instance,
  /// never in the filter itself.
  uint64_t InstallFilter(std::unique_ptr<ScanFilter> filter);

  /// Convenience for stateless predicates (tests, benches): wraps the
  /// callable in a ScanFilter whose Prepare() just captures the argument.
  uint64_t InstallFilter(
      std::function<bool(uint64_t key, ByteSpan value, ByteSpan arg)>
          predicate);

  // --- LhRuntime ---
  SiteId SiteOfBucket(uint64_t bucket) const override;
  bool BucketExists(uint64_t bucket) const override;
  SiteId CoordinatorSite() const override;
  SiteId CreateBucket(uint64_t bucket, uint32_t level) override;
  const ScanFilter& FilterById(uint64_t filter_id) const override;
  const LhOptions& options() const override { return options_; }
  void RetireLastBucket() override;

  // --- LhRuntime, high availability (DESIGN.md §16) ---
  std::vector<SiteId> ParitySitesOfBucket(uint64_t bucket) const override;
  bool SiteIsDead(SiteId site) const override;
  SiteId MarkBucketDead(uint64_t bucket) override;
  void RebuildBucket(uint64_t bucket, RebuiltBucket state) override;
  bool MemberTrafficDrained(uint64_t bucket) const override;

  /// In-process rebuild of one parity bucket (parity-site death): registers
  /// a fresh ParityServer for (group, parity_index), re-encodes its row
  /// from the live data buckets, and redirects the dead site's address to
  /// it. Duplicate updates still in flight toward the old address are
  /// absorbed by the sequence check. Requires the event network.
  void RebuildParityBucket(uint64_t group, int parity_index);

  // --- introspection for tests, benches and recovery tooling ---
  Network& network() { return *network_; }
  const Network& network() const { return *network_; }

  /// The event simulator when options().network_mode == kEvent (fault
  /// scripting, pause/resume, virtual clock); nullptr in synchronous mode.
  EventNetwork* event_network() { return event_network_; }
  size_t bucket_count() const { return servers_.size(); }
  const LhCoordinator& coordinator() const { return coordinator_; }
  /// The durable-persistence manager when options().data_dir is set on a
  /// persistence-enabled build; nullptr otherwise (RAM-only file).
  persist::PersistManager* persist() { return persist_.get(); }
  /// Number of buckets the constructor rebuilt from the data directory
  /// (0 on a fresh directory or without persistence).
  size_t recovered_bucket_count() const { return recovered_bucket_count_; }
  const LhBucketServer& bucket(uint64_t b) const;
  LhBucketServer& mutable_bucket(uint64_t b);
  /// The parity bucket `parity_index` of `group`; CHECK-fails when parity
  /// is off or the group has no members yet.
  const ParityServer& parity_bucket(uint64_t group, int parity_index) const;
  /// Number of parity groups instantiated so far (0 with parity off).
  size_t parity_group_count() const { return parity_servers_.size(); }
  /// True while `bucket` is declared dead and its address is served by a
  /// recovery proxy.
  bool bucket_dead(uint64_t bucket) const {
    return dead_buckets_.count(bucket) > 0;
  }
  uint64_t TotalRecords() const;
  /// Fraction of used capacity: records / (buckets * capacity).
  double LoadFactor() const;

 private:
  /// Creates the m parity buckets of `group` on first use.
  void EnsureParityGroup(uint64_t group);
  /// Restart path: re-encodes every group's parity rows from the recovered
  /// data buckets (the parity sites themselves are RAM-only).
  void SeedParityFromData();
  /// Re-encodes one parity row from the live data buckets of `group`.
  std::map<uint64_t, Bytes> EncodeParityRow(uint64_t group,
                                            int parity_index) const;
  std::vector<ParityServer::MemberSeed> MemberSeedsOf(uint64_t group) const;

  LhOptions options_;
  std::unique_ptr<Network> network_;
  EventNetwork* event_network_ = nullptr;  // network_ downcast (kEvent only)
  /// Durable log manager (only with data_dir + ESSDDS_PERSIST). Declared
  /// before the servers so bucket logs outlive every server that appends.
  std::unique_ptr<persist::PersistManager> persist_;
  /// True while the constructor re-creates recovered buckets: CreateBucket
  /// then adopts existing logs instead of truncating them.
  bool recovering_ = false;
  size_t recovered_bucket_count_ = 0;
  LhCoordinator coordinator_;
  SiteId coordinator_site_;
  std::vector<std::unique_ptr<LhBucketServer>> servers_;  // by bucket number
  // Dissolved bucket servers: kept alive (network sites hold raw pointers)
  // but no longer routed to.
  std::vector<std::unique_ptr<LhBucketServer>> retired_servers_;
  std::vector<std::unique_ptr<LhClient>> clients_;
  std::vector<std::unique_ptr<ScanFilter>> filters_;

  // --- high availability (parity_group_size > 0) ---
  /// group number -> its m parity buckets (created lazily with the group's
  /// first data member).
  std::map<uint64_t, std::vector<std::unique_ptr<ParityServer>>>
      parity_servers_;
  /// Parity update sequence of each retired bucket, so a number-reusing
  /// re-creation continues the stream where its predecessor stopped.
  std::map<uint64_t, uint64_t> last_parity_seq_;
  /// Every site a bucket number was ever served from (creation + rebuilds):
  /// the drain barrier must cover in-flight traffic from dead incarnations.
  std::map<uint64_t, std::vector<SiteId>> site_history_;
  /// Buckets declared dead, mapped to the proxy site serving their address
  /// until the rebuild installs.
  std::map<uint64_t, SiteId> dead_buckets_;
  /// Replaced parity servers (parity-site rebuild): kept alive, like
  /// retired_servers_, because network sites hold raw pointers.
  std::vector<std::unique_ptr<ParityServer>> retired_parity_;
};

}  // namespace essdds::sdds

#endif  // ESSDDS_SDDS_LH_SYSTEM_H_
