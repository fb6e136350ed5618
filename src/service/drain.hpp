#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "core/experiments.hpp"
#include "core/mtrm.hpp"

namespace manet::service {

/// Knobs of one distributed drain worker (CLI mapping in service/cli.hpp).
struct DrainOptions {
  /// The underlying campaign knobs: directory, store, resume, kill-after,
  /// unit size. checkpoint_every is unused here (workers do not checkpoint
  /// shared progress — the store itself is the progress record).
  campaign::CampaignOptions campaign;
  /// Owner id stamped into claimed leases ("worker-0", "host:pid"). Must be
  /// unique among concurrently draining workers; required.
  std::string worker;
  /// Lease staleness horizon. A lease untouched for longer than this is
  /// presumed abandoned (holder crashed) and may be stolen. Heartbeats fire
  /// every iteration, so the TTL only needs to exceed one iteration's
  /// runtime with margin.
  double lease_ttl_seconds = 30.0;
  /// Sleep between passes when every remaining unit is leased to someone
  /// else — the only waiting this worker ever does.
  double poll_seconds = 0.05;
  /// Abort (ConfigError) after this much accumulated poll sleep without any
  /// unit completing — the campaign is wedged (all holders dead *and* the
  /// TTL never expiring would take a clock going backwards, so in practice
  /// this fires only on misconfiguration). At most kMaxWaitLimit, and at
  /// least poll_seconds.
  double max_wait_seconds = 600.0;
  /// Upper bound on max_wait_seconds (~32 years): keeps every sleep inside
  /// the range of time_t.
  static constexpr double kMaxWaitLimit = 1e9;
};

/// Accounting of the last run_points() call on one worker. Unlike
/// CampaignReport this is per-worker, not per-campaign: N workers partition
/// `executed` among themselves and each counts the rest as store hits.
struct DrainReport {
  std::size_t units_total = 0;
  /// Units this worker loaded complete from the store (including units other
  /// workers finished while this one waited).
  std::size_t store_hits = 0;
  /// Units this worker computed under a fresh claim.
  std::size_t executed = 0;
  /// Units this worker computed under a stolen (stale) lease.
  std::size_t stolen = 0;
  /// Passes that ended with nothing claimable (slept poll_seconds).
  std::size_t idle_polls = 0;
};

/// Lease-coordinated campaign executor: N independent DistributedCampaignRunner
/// processes pointed at the same campaign + store directories drain one
/// manifest cooperatively, and every finisher writes the same result.json —
/// byte-identical to CampaignRunner's single-process file (DESIGN.md §16).
///
/// Per pass, each incomplete unit is (1) probed in the store — complete
/// units are taken as-is, the same replay path CampaignRunner resume uses —
/// then (2) claimed via LeaseStore. A claimed unit is computed serially
/// (worker-level parallelism comes from running N workers, so results never
/// depend on intra-worker thread count), heartbeated every iteration,
/// persisted atomically, and only then released. Units leased to live
/// workers are skipped and re-probed next pass; stale leases are stolen.
/// The worker finishes when all units are complete, then merges through the
/// same fold as every other execution path.
class DistributedCampaignRunner final : public MtrmSweepExecutor {
 public:
  /// Throws ConfigError on inconsistent options (empty dir/worker,
  /// non-positive TTL or poll).
  DistributedCampaignRunner(std::string name, DrainOptions options);

  /// Drains the campaign as described above and returns the merged results
  /// in point order. Throws ConfigError on resume-validation failures and
  /// on a wedged campaign (max_wait_seconds of no progress).
  std::vector<MtrmResult> run_points(std::vector<MtrmSweepPoint> points) override;

  const std::string& name() const noexcept { return name_; }
  const DrainOptions& options() const noexcept { return options_; }
  /// Accounting of the last run_points() call.
  const DrainReport& report() const noexcept { return report_; }

 private:
  std::string name_;
  DrainOptions options_;
  DrainReport report_;
};

}  // namespace manet::service
