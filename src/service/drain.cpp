#include "service/drain.hpp"

#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <utility>

#include "campaign/manifest.hpp"
#include "campaign/result_store.hpp"
#include "service/lease.hpp"
#include "support/bench_json.hpp"
#include "support/error.hpp"
#include "support/fs.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"
#include "support/numeric.hpp"

namespace manet::service {

namespace {

/// Drain accounting, exported per worker to <campaign-dir>/metrics-<worker>.json
/// via metrics::collect_json (the shared result.json must stay free of it).
struct DrainMetrics {
  metrics::Counter units_claimed = metrics::counter("service.drain.units_claimed");
  metrics::Counter units_stolen = metrics::counter("service.drain.units_stolen");
  metrics::Counter units_store_hits = metrics::counter("service.drain.units_store_hits");
  metrics::Counter held_skips = metrics::counter("service.drain.held_skips");
  metrics::Counter idle_polls = metrics::counter("service.drain.idle_polls");
  metrics::Counter heartbeats = metrics::counter("service.drain.heartbeats");
  metrics::Timer unit_seconds = metrics::timer("service.drain.unit_seconds");
};

DrainMetrics& drain_metrics() {
  static DrainMetrics bundle;
  return bundle;
}

/// Blocking sleep between claim passes. ::nanosleep, not std::this_thread
/// (which the manet-lint thread-confinement rule reserves for the parallel
/// engine): drain workers are single-threaded by design, their concurrency
/// lives across processes.
void sleep_seconds(double seconds) {
  if (!(seconds > 0.0)) return;
  timespec request{};
  request.tv_sec = static_cast<time_t>(seconds);
  request.tv_nsec = static_cast<long>((seconds - static_cast<double>(request.tv_sec)) * 1e9);
  ::nanosleep(&request, nullptr);
}

}  // namespace

DistributedCampaignRunner::DistributedCampaignRunner(std::string name, DrainOptions options)
    : name_(std::move(name)), options_(std::move(options)) {
  if (name_.empty()) throw ConfigError("drain: campaign name must not be empty");
  if (options_.campaign.dir.empty()) {
    throw ConfigError("drain: a campaign directory is required (--campaign-dir)");
  }
  if (options_.worker.empty()) {
    throw ConfigError("drain: a worker id is required (--worker-id)");
  }
  // Every horizon is a finite positive duration. The poll is bounded by the
  // stall horizon, and that by kMaxWaitLimit, so sleep_seconds' time_t
  // conversion is always defined; a poll longer than the stall horizon
  // could only end the drain by timing out after one full sleep.
  const double ttl = options_.lease_ttl_seconds;
  const double max_wait = options_.max_wait_seconds;
  const double poll = options_.poll_seconds;
  if (!(ttl > 0.0 && std::isfinite(ttl))) {
    throw ConfigError("drain: --lease-ttl must be a finite number of seconds > 0");
  }
  if (!(max_wait > 0.0 && max_wait <= DrainOptions::kMaxWaitLimit)) {
    throw ConfigError("drain: --drain-max-wait must be > 0 and <= 1e9 seconds");
  }
  if (!(poll > 0.0 && poll <= max_wait)) {
    throw ConfigError("drain: --drain-poll must be > 0 seconds and <= --drain-max-wait");
  }
}

std::vector<MtrmResult> DistributedCampaignRunner::run_points(
    std::vector<MtrmSweepPoint> points) {
  report_ = DrainReport{};
  for (const MtrmSweepPoint& point : points) point.config.validate();

  const std::vector<campaign::UnitWork> units =
      campaign::decompose_sweep(points, options_.campaign.unit_iterations);
  report_.units_total = units.size();
  const std::uint64_t campaign_key = campaign::campaign_key_for(name_, units);

  const std::filesystem::path dir(options_.campaign.dir);
  const std::filesystem::path manifest_path = dir / "manifest.json";
  if (options_.campaign.resume) {
    campaign::validate_resume_manifest(manifest_path, campaign_key);
  }

  // Base manifest: identity + unit list, zeroed progress — a pure function
  // of the sweep, so N workers racing on this atomic write all write the
  // same bytes. Shared progress is deliberately NOT checkpointed by drain
  // workers (it would just be N writers fighting over one advisory block);
  // the store itself is the progress record, and each worker's own counters
  // go to its metrics-<worker>.json.
  {
    campaign::Manifest manifest;
    manifest.campaign = name_;
    manifest.campaign_key = campaign_key;
    manifest.points = points.size();
    manifest.units.reserve(units.size());
    for (const campaign::UnitWork& unit : units) {
      manifest.units.push_back(
          campaign::ManifestUnit{unit.point, unit.begin, unit.end, unit.key});
    }
    std::error_code ec;
    if (!std::filesystem::exists(manifest_path, ec) || ec) {
      campaign::save_manifest_atomic(manifest_path, manifest);
    }
  }

  const campaign::ResultStore store{std::filesystem::path(options_.campaign.store_dir)};
  const LeaseStore leases(store.dir() / "claims", options_.worker,
                          options_.lease_ttl_seconds);

  if (!options_.campaign.quiet) {
    std::fprintf(stderr, "[drain %s/%s] %zu points, %zu units -> %s\n", name_.c_str(),
                 options_.worker.c_str(), points.size(), units.size(),
                 options_.campaign.dir.c_str());
  }

  std::vector<std::vector<MtrmIterationOutcome>> unit_outcomes(units.size());
  std::vector<bool> done(units.size(), false);
  std::size_t remaining = units.size();
  std::size_t executed_for_kill = 0;
  // Stall horizon in *logical* wait: accumulated poll sleep since the last
  // completed unit. No clock reads — the drain's only time source is the
  // lease layer's mtime staleness.
  double waited_since_progress = 0.0;

  while (remaining > 0) {
    bool progressed = false;

    for (std::size_t i = 0; i < units.size(); ++i) {
      if (done[i]) continue;
      const campaign::UnitWork& unit = units[i];

      // (1) Store probe: someone (maybe a past run, maybe a neighbor worker
      // seconds ago) may have completed this unit already.
      auto cached = store.load(unit.canonical, unit.end - unit.begin);
      if (cached.has_value()) {
        unit_outcomes[i] = std::move(*cached);
        done[i] = true;
        --remaining;
        ++report_.store_hits;
        drain_metrics().units_store_hits.increment();
        progressed = true;
        continue;
      }

      // (2) Claim. kHeld means a live worker is on it — skip, re-probe next
      // pass (their completed unit then shows up as a store hit).
      const ClaimOutcome claim = leases.try_claim(unit.key);
      if (claim == ClaimOutcome::kHeld) {
        drain_metrics().held_skips.increment();
        continue;
      }
      if (claim == ClaimOutcome::kStolen) {
        ++report_.stolen;
        drain_metrics().units_stolen.increment();
      } else {
        drain_metrics().units_claimed.increment();
      }

      // (3) Compute under the lease, heartbeating every iteration so the
      // lease's mtime age never exceeds one iteration's runtime while this
      // worker is alive.
      std::vector<MtrmIterationOutcome> outcomes;
      {
        const metrics::Timer::Scope unit_timer = drain_metrics().unit_seconds.measure();
        outcomes = campaign::execute_unit(points[unit.point], unit, [&leases, &unit] {
          leases.refresh(unit.key);
          drain_metrics().heartbeats.increment();
        });
      }

      // Fault injection *before* the save: a worker killed here leaves a
      // dangling lease and no store entry — exactly the crash the stale-
      // steal path exists for, and what the 4-worker kill/resume test and
      // CI smoke exercise.
      ++executed_for_kill;
      if (options_.campaign.kill_after != 0 &&
          executed_for_kill == options_.campaign.kill_after) {
        if (!options_.campaign.quiet) {
          std::fprintf(stderr, "[drain %s/%s] --kill-after %zu: simulating a crash\n",
                       name_.c_str(), options_.worker.c_str(),
                       options_.campaign.kill_after);
        }
        campaign::detail::trigger_kill();
      }

      store.save(unit.canonical, outcomes);
      leases.release(unit.key);
      unit_outcomes[i] = std::move(outcomes);
      done[i] = true;
      --remaining;
      ++report_.executed;
      progressed = true;
    }

    if (remaining == 0) break;
    if (progressed) {
      waited_since_progress = 0.0;
      continue;
    }
    // Nothing claimable this pass: every remaining unit is leased to a live
    // worker. Wait a beat; their results arrive as store hits, or their
    // leases go stale and get stolen.
    ++report_.idle_polls;
    drain_metrics().idle_polls.increment();
    waited_since_progress += options_.poll_seconds;
    if (waited_since_progress > options_.max_wait_seconds) {
      throw ConfigError("drain: no unit completed within " +
                        format_fixed(options_.max_wait_seconds, 1) +
                        "s of waiting; campaign looks wedged (worker " + options_.worker +
                        ", " + format_u64(remaining) + " units outstanding)");
    }
    sleep_seconds(options_.poll_seconds);
  }

  std::vector<MtrmResult> results =
      campaign::merge_unit_outcomes(points, units, std::move(unit_outcomes));

  // Every finishing worker writes the same result.json bytes (atomic write;
  // last writer wins harmlessly) and its own metrics file.
  campaign::write_campaign_result(dir, name_, campaign_key, points, units, results);

  BenchReport metrics_report("campaign_" + name_ + "_drain_metrics");
  metrics_report.add_param("campaign", JsonValue::string(name_));
  metrics_report.add_param("worker", JsonValue::string(options_.worker));
  metrics_report.add_param("units_total", JsonValue::number(report_.units_total));
  metrics_report.add_param("store_hits", JsonValue::number(report_.store_hits));
  metrics_report.add_param("executed", JsonValue::number(report_.executed));
  metrics_report.add_param("stolen", JsonValue::number(report_.stolen));
  metrics_report.add_param("idle_polls", JsonValue::number(report_.idle_polls));
  metrics_report.add_extra("metrics", metrics::collect_json());
  write_text_file_atomic(dir / ("metrics-" + options_.worker + ".json"),
                         metrics_report.dump());

  if (!options_.campaign.quiet) {
    std::fprintf(stderr,
                 "[drain %s/%s] complete: %zu units (%zu executed, %zu stolen, %zu from "
                 "store) -> %s\n",
                 name_.c_str(), options_.worker.c_str(), report_.units_total,
                 report_.executed, report_.stolen, report_.store_hits,
                 (dir / "result.json").string().c_str());
  }
  return results;
}

}  // namespace manet::service
