#include "sdds/lh_system.h"

#include <utility>

namespace essdds::sdds {

LhSystem::LhSystem(LhOptions options)
    : options_(std::move(options)), coordinator_(this) {
  ESSDDS_CHECK(options_.bucket_capacity > 0);
  if (options_.network_mode == NetworkMode::kEvent) {
    auto event_net = std::make_unique<EventNetwork>(options_.event_net);
    event_network_ = event_net.get();
    network_ = std::move(event_net);
  } else {
    network_ = std::make_unique<SimNetwork>();
  }
  network_->set_scan_threads(options_.scan_threads);
  network_->set_scan_shard_min_records(options_.scan_shard_min_records);
  coordinator_site_ = network_->Register(&coordinator_);
  coordinator_.set_site(coordinator_site_);

  if (!options_.data_dir.empty()) {
    if (persist::kPersistEnabled) {
      persist_ = std::make_unique<persist::PersistManager>(
          persist::PersistManager::Options{options_.data_dir,
                                           options_.persist_master,
                                           options_.log_checkpoint_min_bytes,
                                           options_.persist_fsync},
          &network_->metrics());
      std::vector<persist::PersistManager::RecoveredBucket> recovered =
          persist_->Recover();
      if (!recovered.empty()) {
        // Restart over an existing file: re-create every live bucket at its
        // replayed level, load its records into its store, and re-derive
        // the coordinator's (i, n) from the extent.
        recovering_ = true;
        for (size_t b = 0; b < recovered.size(); ++b) {
          CreateBucket(b, recovered[b].level);
          servers_[b]->RestoreRecovered(recovered[b].records);
        }
        recovering_ = false;
        recovered_bucket_count_ = recovered.size();
        coordinator_.RestoreExtent(recovered.size());
        // Parity rows are RAM-only: re-encode them from the recovered data
        // buckets (fresh sequential ranks, sequences restarted at the data
        // servers' replayed counts — both sides reset together).
        if (options_.parity_group_size > 0) SeedParityFromData();
        return;
      }
    } else {
      ESSDDS_LOG(kWarning)
          << "LhOptions::data_dir is set but this build has persistence "
             "compiled out (-DESSDDS_PERSIST=OFF); buckets stay RAM-only";
    }
  }
  CreateBucket(0, 0);
}

LhClient* LhSystem::NewClient() {
  clients_.push_back(std::make_unique<LhClient>(this, network_.get()));
  return clients_.back().get();
}

uint64_t LhSystem::InstallFilter(std::unique_ptr<ScanFilter> filter) {
  ESSDDS_CHECK(filter != nullptr);
  filters_.push_back(std::move(filter));
  return filters_.size() - 1;
}

uint64_t LhSystem::InstallFilter(
    std::function<bool(uint64_t key, ByteSpan value, ByteSpan arg)>
        predicate) {
  return InstallFilter(MakeScanFilter(std::move(predicate)));
}

SiteId LhSystem::SiteOfBucket(uint64_t bucket) const {
  // After a merge, stale client images can address buckets beyond the
  // current extent. The address table keeps forwarding stubs from dissolved
  // buckets to their parents.
  while (bucket >= servers_.size()) bucket = ParentBucket(bucket);
  // A declared-dead bucket's address points at its recovery proxy until
  // the rebuild installs; retries, forwards, and parked-op replays all
  // resolve there.
  auto dead = dead_buckets_.find(bucket);
  if (dead != dead_buckets_.end()) return dead->second;
  return servers_[bucket]->site();
}

bool LhSystem::BucketExists(uint64_t bucket) const {
  return bucket < servers_.size();
}

SiteId LhSystem::CoordinatorSite() const { return coordinator_site_; }

SiteId LhSystem::CreateBucket(uint64_t bucket, uint32_t level) {
  // Buckets are created in linear-hash order, so the new bucket's number is
  // always the next free slot.
  ESSDDS_CHECK(bucket == servers_.size())
      << "bucket creation out of order: " << bucket;
  servers_.push_back(
      std::make_unique<LhBucketServer>(this, options_, bucket, level));
  if (persist_ != nullptr) {
    // Recovery adopts the bucket's existing log; normal creation (the root
    // at construction, split targets later) starts a fresh one — truncating
    // any stale file left by a retired bucket whose number is being reused,
    // under a bumped epoch so keystreams never repeat.
    servers_.back()->AttachLog(
        persist_->OpenBucketLog(bucket, level, /*fresh=*/!recovering_));
  }
  const SiteId site = network_->Register(servers_.back().get());
  servers_.back()->set_site(site);
  site_history_[bucket].push_back(site);
  if (options_.parity_group_size > 0) {
    const uint64_t group = bucket / options_.parity_group_size;
    EnsureParityGroup(group);
    // A number-reusing re-creation (split after a merge-retire) continues
    // the retired bucket's parity update sequence — the group's parity
    // sites track one stream per member slot, not per incarnation.
    auto seq = last_parity_seq_.find(bucket);
    if (seq != last_parity_seq_.end()) {
      servers_.back()->set_parity_seq(seq->second);
    }
    // Split targets are born loading (restart recovery restores them as
    // settled, and the root never loads).
    const bool loading = bucket != 0 && !recovering_;
    for (auto& ps : parity_servers_[group]) {
      ps->InitMember(bucket, level, loading, *network_);
    }
  }
  return site;
}

void LhSystem::EnsureParityGroup(uint64_t group) {
  auto& row = parity_servers_[group];
  if (!row.empty()) return;
  for (int j = 0; j < static_cast<int>(options_.parity_count); ++j) {
    auto ps = std::make_unique<ParityServer>(this, options_, group, j);
    const SiteId site = network_->Register(ps.get());
    ps->set_site(site);
    row.push_back(std::move(ps));
  }
}

void LhSystem::RetireLastBucket() {
  ESSDDS_CHECK(servers_.size() > 1) << "cannot retire the root bucket";
  ESSDDS_CHECK(servers_.back()->record_count() == 0)
      << "retiring a non-empty bucket";
  last_parity_seq_[servers_.back()->bucket_number()] =
      servers_.back()->parity_seq();
  servers_.back()->Retire();
  // The retired server must not touch the log again: the bucket number may
  // be reused by a later split, which replaces the log object (the retired
  // server's pointer would dangle). Its dissolution — a kClear, or the
  // retired checkpoint of a rebuild mid-merge — is already on disk.
  servers_.back()->AttachLog(nullptr);
  retired_servers_.push_back(std::move(servers_.back()));
  servers_.pop_back();
}

const ScanFilter& LhSystem::FilterById(uint64_t filter_id) const {
  ESSDDS_CHECK(filter_id < filters_.size())
      << "unknown scan filter " << filter_id;
  return *filters_[filter_id];
}

std::vector<SiteId> LhSystem::ParitySitesOfBucket(uint64_t bucket) const {
  if (options_.parity_group_size == 0) return {};
  auto it = parity_servers_.find(bucket / options_.parity_group_size);
  if (it == parity_servers_.end()) return {};
  std::vector<SiteId> sites;
  sites.reserve(it->second.size());
  for (const auto& ps : it->second) sites.push_back(ps->site());
  return sites;
}

bool LhSystem::SiteIsDead(SiteId site) const {
  return event_network_ != nullptr && event_network_->site_killed(site);
}

bool LhSystem::MemberTrafficDrained(uint64_t bucket) const {
  if (event_network_ == nullptr) return true;
  auto it = site_history_.find(bucket);
  if (it == site_history_.end()) return true;
  // Every incarnation of the bucket number counts: a rebuilt-then-killed
  // bucket's first corpse may still have frames in flight.
  for (SiteId site : it->second) {
    if (event_network_->HasInFlightFrom(site)) return false;
  }
  return true;
}

SiteId LhSystem::MarkBucketDead(uint64_t bucket) {
  ESSDDS_CHECK(options_.parity_group_size > 0) << "parity is off";
  ESSDDS_CHECK(bucket < servers_.size()) << "no bucket " << bucket;
  auto it = parity_servers_.find(bucket / options_.parity_group_size);
  ESSDDS_CHECK(it != parity_servers_.end());
  // The group's first live parity site becomes the recovery proxy; with
  // m > 1 a proxy that itself dies mid-gather is succeeded by the next.
  ParityServer* proxy = nullptr;
  for (const auto& ps : it->second) {
    if (!SiteIsDead(ps->site())) {
      proxy = ps.get();
      break;
    }
  }
  ESSDDS_CHECK(proxy != nullptr)
      << "group " << bucket / options_.parity_group_size
      << " lost every parity site; bucket " << bucket << " is unrecoverable";
  dead_buckets_[bucket] = proxy->site();
  const SiteId old_site = servers_[bucket]->site();
  if (event_network_ != nullptr) {
    // Declaration is fencing: a declared site is administratively dead even
    // if it was merely slow (otherwise a zombie would keep serving — and
    // diverging from — the bucket the proxy now answers for). Then take
    // over the dead address immediately, not at rebuild time: requests
    // parked in the dead site's letter queue (client retries among them)
    // replay straight into the proxy's degraded service instead of waiting
    // out the whole reconstruction.
    if (!event_network_->site_killed(old_site)) {
      event_network_->KillSite(old_site);
    }
    event_network_->RedirectSite(old_site, proxy->site());
  }
  proxy->BeginRecovery(bucket, *network_);
  return proxy->site();
}

void LhSystem::RebuildBucket(uint64_t bucket, RebuiltBucket state) {
  ESSDDS_CHECK(bucket < servers_.size()) << "no bucket " << bucket;
  LhBucketServer* dead = servers_[bucket].get();
  const SiteId old_site = dead->site();
  // The corpse must never touch the log again: OpenBucketLog below replaces
  // the log object its pointer refers to.
  dead->AttachLog(nullptr);
  auto replacement =
      std::make_unique<LhBucketServer>(this, options_, bucket, state.level);
  if (persist_ != nullptr) {
    replacement->AttachLog(
        persist_->OpenBucketLog(bucket, state.level, /*fresh=*/true));
  }
  const SiteId site = network_->Register(replacement.get());
  replacement->set_site(site);
  const uint32_t level = state.level;
  replacement->RestoreRebuilt(std::move(state));
  if (replacement->log() != nullptr) {
    // One snapshot frame makes the reconstruction durable: a crash after
    // the rebuild replays the decoded content, not the dead site's file.
    // A merge victim rebuilt before its ack is retired in it: its records
    // went to the parent, and the ack owes no clear.
    replacement->log()->Checkpoint(level, replacement->retired(),
                                   replacement->columns());
  }
  site_history_[bucket].push_back(site);
  // The corpse stays alive (network sites hold raw pointers) but is no
  // longer routed to — same lifecycle as a merge-retired server.
  retired_servers_.push_back(std::move(servers_[bucket]));
  servers_[bucket] = std::move(replacement);
  dead_buckets_.erase(bucket);
  if (event_network_ != nullptr) {
    // Re-point the dead address: parked reliable frames retransmit and
    // dead letters replay, all delivered to the successor.
    event_network_->RedirectSite(old_site, site);
  }
}

std::map<uint64_t, Bytes> LhSystem::EncodeParityRow(uint64_t group,
                                                    int parity_index) const {
  const int k = static_cast<int>(options_.parity_group_size);
  const int m = static_cast<int>(options_.parity_count);
  const gf::GfField& field = gf::GfField::Of(8);
  RsCode code = RsCode::Create(k, m).value();
  std::map<uint64_t, Bytes> row;
  for (int i = 0; i < k; ++i) {
    const uint64_t b = group * options_.parity_group_size +
                       static_cast<uint64_t>(i);
    if (b >= servers_.size()) break;
    const LhBucketServer& s = *servers_[b];
    const uint8_t coeff = code.ParityCoeff(parity_index, i);
    for (const auto& [key, rank] : s.rank_of()) {
      Bytes buf = RankBuffer(key, s.columns().Lookup(key).value());
      for (auto& byte : buf) {
        byte = static_cast<uint8_t>(field.Mul(coeff, byte));
      }
      Bytes& acc = row[rank];
      acc = XorBytes(acc, buf);
    }
  }
  return row;
}

std::vector<ParityServer::MemberSeed> LhSystem::MemberSeedsOf(
    uint64_t group) const {
  const int k = static_cast<int>(options_.parity_group_size);
  std::vector<ParityServer::MemberSeed> seeds;
  for (int i = 0; i < k; ++i) {
    const uint64_t b = group * options_.parity_group_size +
                       static_cast<uint64_t>(i);
    if (b >= servers_.size()) break;
    ParityServer::MemberSeed seed;
    seed.bucket = b;
    seed.level = servers_[b]->level();
    seed.applied = servers_[b]->parity_seq();
    seed.key_rank = servers_[b]->rank_of();
    seeds.push_back(std::move(seed));
  }
  return seeds;
}

void LhSystem::SeedParityFromData() {
  for (auto& [group, row] : parity_servers_) {
    std::vector<ParityServer::MemberSeed> seeds = MemberSeedsOf(group);
    for (auto& ps : row) {
      ps->InstallSeed(EncodeParityRow(group, ps->parity_index()), seeds);
    }
  }
}

void LhSystem::RebuildParityBucket(uint64_t group, int parity_index) {
  auto it = parity_servers_.find(group);
  ESSDDS_CHECK(it != parity_servers_.end()) << "no parity group " << group;
  ESSDDS_CHECK(parity_index >= 0 &&
               static_cast<size_t>(parity_index) < it->second.size());
  auto& slot = it->second[static_cast<size_t>(parity_index)];
  const SiteId old_site = slot->site();
  auto ps = std::make_unique<ParityServer>(this, options_, group,
                                           parity_index);
  const SiteId site = network_->Register(ps.get());
  ps->set_site(site);
  // Re-encode the row from the (all-live) data members. Updates still in
  // flight toward the dead site replay through the redirect and are
  // absorbed by the per-member sequence check: their effects are already
  // inside the seed.
  ps->InstallSeed(EncodeParityRow(group, parity_index), MemberSeedsOf(group));
  retired_parity_.push_back(std::move(slot));
  slot = std::move(ps);
  if (event_network_ != nullptr) {
    event_network_->RedirectSite(old_site, site);
  }
}

const ParityServer& LhSystem::parity_bucket(uint64_t group,
                                            int parity_index) const {
  auto it = parity_servers_.find(group);
  ESSDDS_CHECK(it != parity_servers_.end()) << "no parity group " << group;
  ESSDDS_CHECK(parity_index >= 0 &&
               static_cast<size_t>(parity_index) < it->second.size());
  return *it->second[static_cast<size_t>(parity_index)];
}

const LhBucketServer& LhSystem::bucket(uint64_t b) const {
  ESSDDS_CHECK(b < servers_.size());
  return *servers_[b];
}

LhBucketServer& LhSystem::mutable_bucket(uint64_t b) {
  ESSDDS_CHECK(b < servers_.size());
  return *servers_[b];
}

uint64_t LhSystem::TotalRecords() const {
  uint64_t total = 0;
  for (const auto& s : servers_) total += s->record_count();
  return total;
}

double LhSystem::LoadFactor() const {
  return static_cast<double>(TotalRecords()) /
         (static_cast<double>(bucket_count()) *
          static_cast<double>(options_.bucket_capacity));
}

}  // namespace essdds::sdds
