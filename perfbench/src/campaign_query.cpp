// campaign_query: a Figure 7-shaped sweep (15 p_stationary points at
// l = 4096, n = 64) cut to one iteration of 200 mobility steps per unit,
// 240 units, run in three phases:
//   (a) one in-process DistributedCampaignRunner drains it cold into an
//       empty store,
//   (b) a CampaignRunner replays it warm (every unit a store hit),
//   (c) the built manetd serves the resulting result.json and the benchmark
//       drives it as a closed-loop client over one persistent connection,
//       asking the documented queries of the figure round after round, each
//       round in a seeded order (the first round misses manetd's cache, the
//       later ones hit).
// Correctness: (a), (b) and the traced run write byte-identical result.json
// files, and every manetd response equals QueryEngine::handle(...).dump().

#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "campaign/campaign.hpp"
#include "campaign/result_store.hpp"
#include "core/experiments.hpp"
#include "layers.hpp"
#include "service/drain.hpp"
#include "service/lease.hpp"
#include "service/query.hpp"
#include "service/socket.hpp"
#include "support/error.hpp"
#include "support/fs.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"
#include "tracer.hpp"

extern char** environ;

namespace perfbench {

namespace {

using namespace manet;
using trace::Count;
using trace::Site;
namespace fs = std::filesystem;

constexpr const char* kCampaign = "perfbench_fig7";
constexpr const char* kWorker = "perfbench-0";
constexpr std::size_t kReplays = 25;  // warm replays per pass

struct Plan {
  std::vector<MtrmConfig> configs;
  std::uint64_t sweep_seed = 0;
  std::uint64_t request_seed = 0;
  std::size_t rounds = 0;  // passes over the documented queries per pass
  std::size_t units = 0;
  fs::path root;    // scratch directory of this workload
  fs::path socket;  // manetd socket (relative: sun_path holds 108 bytes)
};

/// The queries the repository documents for a served campaign (README
/// "Distributed campaigns & query service", scripts/distributed_smoke.sh),
/// asked of every point and every Figure 7 value: per point the full
/// statistics (mtrm) and r_f at the documented fraction 0.95 and at the
/// figure's own fraction 1.0 (rquantile); per p_stationary value the plotted
/// r100 and the README's mean_critical_range (phase).
std::vector<std::string> documented_queries(const Plan& plan) {
  const auto query = [](const char* op) {
    JsonValue r = JsonValue::object();
    r.set("op", JsonValue::string(op));
    r.set("campaign", JsonValue::string(kCampaign));
    return r;
  };
  std::vector<std::string> queries;
  for (std::size_t point = 0; point < plan.configs.size(); ++point) {
    JsonValue mtrm = query("mtrm");
    mtrm.set("point", JsonValue::number(point));
    queries.push_back(mtrm.dump());
    for (const double fraction : {0.95, 1.0}) {
      JsonValue rquantile = query("rquantile");
      rquantile.set("point", JsonValue::number(point));
      rquantile.set("fraction", JsonValue::number(fraction));
      queries.push_back(rquantile.dump());
    }
  }
  for (const MtrmConfig& config : plan.configs) {
    for (const char* stat : {"range_for_time[0].mean", "mean_critical_range.mean"}) {
      JsonValue phase = query("phase");
      phase.set("param", JsonValue::string("p_stationary"));
      phase.set("value", JsonValue::number(config.mobility.waypoint.p_stationary));
      phase.set("stat", JsonValue::string(stat));
      queries.push_back(phase.dump());
    }
  }
  return queries;
}

/// The request stream: `plan.rounds` rounds over the documented queries,
/// each round in its own seeded order.
std::vector<std::string> make_requests(const Plan& plan) {
  const std::vector<std::string> queries = documented_queries(plan);
  Rng rng(plan.request_seed);
  std::vector<std::string> requests;
  requests.reserve(plan.rounds * queries.size());
  std::vector<std::size_t> order(queries.size());
  for (std::size_t round = 0; round < plan.rounds; ++round) {
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.uniform_index(i)]);
    }
    for (const std::size_t i : order) requests.push_back(queries[i]);
  }
  return requests;
}

Plan make_plan(const Options& options) {
  Plan plan;
  for (const double p : experiments::figure7_pstationary_values()) {
    MtrmConfig config = experiments::sweep_base_config(Preset::kQuick);
    config.steps = options.smoke ? 5 : 200;
    config.iterations = options.smoke ? 8 : 16;
    config.mobility.waypoint.p_stationary = p;
    config.component_fractions.clear();  // fig7 solves r100 only
    config.time_fractions = {1.0};
    plan.units += config.iterations;
    plan.configs.push_back(config);
  }
  Rng rng = substream(options.seed, 0);
  plan.sweep_seed = rng.next_u64();
  plan.request_seed = rng.next_u64();
  plan.rounds = options.smoke ? 4 : 400;
  plan.root = fs::path(options.work_dir) / "campaign_query";
  plan.socket = fs::path(options.work_dir) / "manetd.sock";
  return plan;
}

/// A running manetd. The destructor kills and reaps it if stop() was not
/// reached (an exception on the way).
class Manetd {
 public:
  Manetd(const std::string& binary, const fs::path& socket, const fs::path& campaign_dir) {
    const std::string socket_arg = socket.string();
    const std::string dir_arg = campaign_dir.string();
    std::vector<const char*> argv = {binary.c_str(), "--socket",      socket_arg.c_str(),
                                     "--campaign-dir", dir_arg.c_str(), "--quiet", nullptr};
    if (posix_spawn(&pid_, binary.c_str(), nullptr, nullptr, const_cast<char**>(argv.data()),
                    environ) != 0) {
      throw std::runtime_error("cannot start manetd at " + binary);
    }
    // Connect once the listener is up, then wait for the first health answer.
    for (int attempt = 0;; ++attempt) {
      try {
        stream_ = service::dial_unix(socket);
        break;
      } catch (const ConfigError&) {
        int status = 0;
        if (waitpid(pid_, &status, WNOHANG) == pid_) {
          pid_ = -1;
          throw std::runtime_error("manetd exited during start-up");
        }
        if (attempt > 20000) throw std::runtime_error("manetd did not start listening");
        const timespec pause{0, 500000};  // 0.5 ms
        nanosleep(&pause, nullptr);
      }
    }
    const std::string health = ask(R"({"op":"health"})");
    if (health.find("\"ok\":true") == std::string::npos) {
      throw std::runtime_error("manetd health check failed: " + health);
    }
  }
  ~Manetd() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      int status = 0;
      waitpid(pid_, &status, 0);
    }
  }
  Manetd(const Manetd&) = delete;
  Manetd& operator=(const Manetd&) = delete;

  int pid() const { return pid_; }

  /// One request line out, one response line back.
  std::string ask(const std::string& line) {
    stream_.send_all(line + "\n");
    std::string response;
    if (!stream_.read_line(response)) throw std::runtime_error("manetd closed the connection");
    return response;
  }

  /// Reads the server's cache accounting, stops it and reaps the process.
  JsonValue stop() {
    JsonValue stats = JsonValue::parse(ask(R"({"op":"stats"})"));
    ask(R"({"op":"stop"})");
    stream_.close_stream();
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("manetd did not exit cleanly");
    }
    return stats;
  }

 private:
  pid_t pid_ = -1;
  service::Socket stream_;
};

/// Sends every request over one connection, closed loop; returns the
/// responses and each round trip's latency in nanoseconds.
void drive(Manetd& server, const std::vector<std::string>& requests,
           std::vector<std::string>& responses, std::vector<double>& latency_ns,
           std::uint32_t parent) {
  responses.clear();
  latency_ns.clear();
  for (const std::string& request : requests) {
    std::optional<trace::Span> span;
    if (parent != 0) span.emplace("request", parent);
    const std::uint64_t start = now_ns();
    responses.push_back(server.ask(request));
    latency_ns.push_back(static_cast<double>(now_ns() - start));
  }
}

/// The in-process engine's answer to every request; an error answer is
/// returned as an empty string, which no manetd response equals.
std::vector<std::string> expected_responses(const fs::path& campaign_dir,
                                            const std::vector<std::string>& requests) {
  service::QueryEngine engine;
  engine.load_campaign_dir(campaign_dir);
  std::vector<std::string> expected;
  expected.reserve(requests.size());
  for (const std::string& request : requests) {
    const JsonValue response = engine.handle(JsonValue::parse(request));
    expected.push_back(response.at("ok").as_bool() ? response.dump() : std::string());
  }
  return expected;
}

std::uint64_t mismatches(const std::vector<std::string>& expected,
                         const std::vector<std::string>& responses) {
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    failed += expected[i] == responses[i] ? 0 : 1;
  }
  return failed;
}

std::uint64_t digest(const std::vector<std::string>& texts) {
  std::uint64_t hash = kFnv1aOffset;
  for (const std::string& text : texts) hash = fnv1a(text + "\n", hash);
  return hash;
}

struct Outputs {
  std::string result;  // result.json bytes of the cold drain
  std::uint64_t responses = 0;
};

// ---------------------------------------------------------------- untraced

struct PassTimes {
  double setup = 0.0;
  double drain = 0.0;
  double replay = 0.0;
  double queries = 0.0;
  std::vector<double> latency_ns;
  service::DrainReport drain_report;
  double held_skips = 0.0;
};

Outputs untraced_pass(const Options& options, const Plan& plan, std::size_t pass,
                      Report& report, PassTimes& times) {
  Outputs out;
  // Every pass drains into its own fresh directories: deleting a drained
  // store mid-run would put its file-system clean-up into the next drain.
  const fs::path root = plan.root / ("pass-" + std::to_string(pass));
  const fs::path store = root / "store";
  const fs::path drain_dir = root / "drain";
  const fs::path replay_dir = root / "replay";

  // Set-up, before the drain: the request stream and the directories.
  std::uint64_t start = now_ns();
  const std::vector<std::string> requests = make_requests(plan);
  for (const fs::path& dir : {store, drain_dir, replay_dir}) fs::create_directories(dir);
  times.setup = seconds_between(start, now_ns());

  service::DrainOptions drain_options;
  drain_options.campaign.dir = drain_dir.string();
  drain_options.campaign.store_dir = store.string();
  drain_options.campaign.unit_iterations = 1;
  drain_options.campaign.quiet = true;
  drain_options.worker = kWorker;
  auto rotation = std::make_unique<CpuRotation>(std::vector<int>{0});
  const metrics::Snapshot before = metrics::snapshot();
  start = now_ns();
  service::DistributedCampaignRunner drain(kCampaign, drain_options);
  experiments::solve_mtrm_sweep(plan.configs, plan.sweep_seed, &drain);
  times.drain = seconds_between(start, now_ns());
  times.drain_report = drain.report();
  times.held_skips = static_cast<double>(
      metrics::snapshot().counter_value("service.drain.held_skips") -
      before.counter_value("service.drain.held_skips"));
  out.result = read_text_file(drain_dir / "result.json");

  campaign::CampaignOptions replay_options;
  replay_options.dir = replay_dir.string();
  replay_options.store_dir = store.string();
  replay_options.unit_iterations = 1;
  replay_options.quiet = true;
  // A warm replay takes milliseconds, most of it store reads and the
  // result.json write: the pass reports the median of several.
  std::vector<double> replays;
  for (std::size_t r = 0; r < kReplays; ++r) {
    start = now_ns();
    campaign::CampaignRunner replay(kCampaign, replay_options);
    experiments::solve_mtrm_sweep(plan.configs, plan.sweep_seed, &replay);
    replays.push_back(seconds_between(start, now_ns()));
    report.check_count(plan.units, plan.units - replay.report().cache_hits,
                       "campaign_query: warm replay missed the store");
    report.check(read_text_file(replay_dir / "result.json") == out.result,
                 "campaign_query: warm replay result.json differs from the cold drain");
  }
  times.replay = median(replays);
  rotation.reset();

  // Set-up, before the requests: the expected answers, manetd start-up.
  start = now_ns();
  const std::vector<std::string> expected = expected_responses(drain_dir, requests);
  Manetd server(options.manetd, plan.socket, drain_dir);
  times.setup += seconds_between(start, now_ns());
  std::vector<std::string> responses;
  rotation = std::make_unique<CpuRotation>(std::vector<int>{0, server.pid()});
  start = now_ns();
  drive(server, requests, responses, times.latency_ns, 0);
  times.queries = seconds_between(start, now_ns());
  rotation.reset();
  server.stop();

  report.check_count(requests.size(), mismatches(expected, responses),
                     "campaign_query: manetd response differs from QueryEngine::handle");
  out.responses = digest(responses);
  return out;
}

// ------------------------------------------------------------------ traced

/// Captures the sweep points solve_mtrm_sweep derives, so the traced drain
/// runs on exactly the points the untraced executors receive.
class PointRecorder final : public MtrmSweepExecutor {
 public:
  std::vector<MtrmResult> run_points(std::vector<MtrmSweepPoint> points) override {
    points_ = std::move(points);
    return std::vector<MtrmResult>(points_.size());
  }
  const std::vector<MtrmSweepPoint>& points() const { return points_; }

 private:
  std::vector<MtrmSweepPoint> points_;
};

/// The single-worker drain loop through the campaign and lease functions:
/// probe, claim, execute (heartbeat per iteration), save, release; then
/// merge and write result.json.
void traced_drain(const std::vector<MtrmSweepPoint>& points, const fs::path& store_dir,
                  const fs::path& dir, Report& report, std::uint32_t parent) {
  const auto units =
      trace::timed(Site::kDecompose, [&] { return campaign::decompose_sweep(points, 1); });
  const std::uint64_t key = campaign::campaign_key_for(kCampaign, units);
  const campaign::ResultStore store{store_dir};
  const service::LeaseStore leases(store.dir() / "claims", kWorker, 30.0);
  std::vector<std::vector<MtrmIterationOutcome>> outcomes(units.size());
  std::uint64_t unexpected = 0;
  for (std::size_t i = 0; i < units.size(); ++i) {
    const trace::Span span("unit", parent);
    const campaign::UnitWork& unit = units[i];
    const bool probe = trace::timed(Site::kStoreLoadMiss, [&] {
      return store.load(unit.canonical, unit.end - unit.begin).has_value();
    });
    const auto claim =
        trace::timed(Site::kLeaseClaim, [&] { return leases.try_claim(unit.key); });
    unexpected += (probe || claim != service::ClaimOutcome::kClaimed) ? 1 : 0;
    outcomes[i] = trace::timed(Site::kExecuteUnit, [&] {
      return campaign::execute_unit(points[unit.point], unit, [&] {
        trace::timed(Site::kLeaseRefresh, [&] { leases.refresh(unit.key); });
        trace::add(Count::kHeartbeats, 1);
      });
    });
    trace::timed(Site::kStoreSave, [&] { store.save(unit.canonical, outcomes[i]); });
    trace::add(Count::kStoreBytesWritten, fs::file_size(store.path_for(unit.canonical)));
    trace::timed(Site::kLeaseRelease, [&] { leases.release(unit.key); });
    trace::add(Count::kUnitsComputed, 1);
  }
  report.check_count(units.size(), unexpected,
                     "campaign_query: traced drain found a unit cached or leased");
  const auto results = trace::timed(Site::kMergeUnits, [&] {
    return campaign::merge_unit_outcomes(points, units, std::move(outcomes));
  });
  trace::timed(Site::kResultWrite, [&] {
    campaign::write_campaign_result(dir, kCampaign, key, points, units, results);
  });
}

/// The warm replay: every unit loaded from the store, merged, written.
void traced_replay(const std::vector<MtrmSweepPoint>& points, const fs::path& store_dir,
                   const fs::path& dir, Report& report) {
  const auto units =
      trace::timed(Site::kDecompose, [&] { return campaign::decompose_sweep(points, 1); });
  const std::uint64_t key = campaign::campaign_key_for(kCampaign, units);
  const campaign::ResultStore store{store_dir};
  std::vector<std::vector<MtrmIterationOutcome>> outcomes(units.size());
  std::uint64_t misses = 0;
  for (std::size_t i = 0; i < units.size(); ++i) {
    auto loaded = trace::timed(Site::kStoreLoadHit, [&] {
      return store.load(units[i].canonical, units[i].end - units[i].begin);
    });
    if (loaded.has_value()) {
      outcomes[i] = std::move(*loaded);
      trace::add(Count::kUnitsCached, 1);
    } else {
      ++misses;
    }
  }
  report.check_count(units.size(), misses, "campaign_query: traced replay missed the store");
  const auto results = trace::timed(Site::kMergeUnits, [&] {
    return campaign::merge_unit_outcomes(points, units, std::move(outcomes));
  });
  trace::timed(Site::kResultWrite, [&] {
    campaign::write_campaign_result(dir, kCampaign, key, points, units, results);
  });
}

struct TracedTotals {
  std::vector<double> transport_ns;
  double hits = 0.0;
  double misses = 0.0;
  double parse_errors = 0.0;
  std::vector<double> walls;  // per pass: drain + replay + manetd requests
};

void traced_pass(const Options& options, const Plan& plan, std::size_t pass_index,
                 const Outputs& reference, Report& report, TracedTotals& totals) {
  const trace::Span pass("pass", 0);
  const fs::path root = plan.root / ("traced-" + std::to_string(pass_index));
  const fs::path store = root / "store";
  const fs::path drain_dir = root / "drain";
  const fs::path replay_dir = root / "replay";
  for (const fs::path& dir : {store, drain_dir, replay_dir}) fs::create_directories(dir);

  PointRecorder recorder;
  experiments::solve_mtrm_sweep(plan.configs, plan.sweep_seed, &recorder);
  double wall = 0.0;
  auto rotation = std::make_unique<CpuRotation>(std::vector<int>{0});
  {
    const trace::Span span("drain", pass.id());
    traced_drain(recorder.points(), store, drain_dir, report, span.id());
    wall += span.elapsed();
  }
  {
    const trace::Span span("replay", pass.id());
    traced_replay(recorder.points(), store, replay_dir, report);
    wall += span.elapsed();
  }
  rotation.reset();
  const std::string result = read_text_file(drain_dir / "result.json");
  report.check(read_text_file(replay_dir / "result.json") == result,
               "campaign_query: traced replay result.json differs from the traced drain");
  report.check(result == reference.result,
               "campaign_query: traced result.json differs from the untraced drain");

  // In-process handle time per request, then the same stream through manetd.
  const std::vector<std::string> requests = make_requests(plan);
  service::QueryEngine engine;
  engine.load_campaign_dir(drain_dir);
  std::vector<double> handle_ns;
  for (const std::string& request : requests) {
    const JsonValue parsed = JsonValue::parse(request);
    const std::uint64_t start = now_ns();
    const std::string response = engine.handle(parsed).dump();
    const std::uint64_t elapsed = now_ns() - start;
    handle_ns.push_back(static_cast<double>(elapsed));
    trace::record(Site::kHandle, elapsed);
  }
  Manetd server(options.manetd, plan.socket, drain_dir);
  std::vector<std::string> responses;
  std::vector<double> latency_ns;
  rotation = std::make_unique<CpuRotation>(std::vector<int>{0, server.pid()});
  {
    const trace::Span span("queries", pass.id());
    drive(server, requests, responses, latency_ns, span.id());
    wall += span.elapsed();
  }
  rotation.reset();
  const JsonValue stats = server.stop();
  for (std::size_t i = 0; i < latency_ns.size(); ++i) {
    totals.transport_ns.push_back(latency_ns[i] - handle_ns[i]);
  }
  const double hits = stats.at("cache_hits").as_double();
  const double misses = stats.at("cache_misses").as_double();
  totals.hits += hits;
  totals.misses += misses;
  totals.parse_errors += stats.at("parse_errors").as_double();
  totals.walls.push_back(wall);
  report.check(digest(responses) == reference.responses,
               "campaign_query: traced manetd responses differ from the untraced ones");
  // Only the start-up health request and the first round of the documented
  // queries may miss the cache.
  const auto distinct = static_cast<double>(requests.size() / plan.rounds);
  report.check(misses == distinct + 1 && hits == static_cast<double>(requests.size()) - distinct,
               "campaign_query: manetd cache hits differ from the repeats in the stream");
}

}  // namespace

Report run_campaign_query(const Options& options) {
  set_max_parallelism(1);
  const Plan plan = make_plan(options);
  Report report;
  PassSamples samples;
  Outputs reference;
  bool have_reference = false;
  std::vector<double> latency_ns;
  std::vector<double> untraced_walls;
  std::vector<double> queries;
  PassTimes last;
  std::size_t pass_index = 0;
  fs::remove_all(plan.root);  // stores left by an earlier run

  const auto untraced = [&] {
    PassTimes times;
    const Outputs out = untraced_pass(options, plan, pass_index++, report, times);
    if (!have_reference) {
      reference = out;
      have_reference = true;
    }
    report.check(out.result == reference.result && out.responses == reference.responses,
                 "campaign_query: a pass differs from the first pass");
    const double wall = times.drain + times.replay + times.queries;
    samples.setup_s.push_back(times.setup);
    samples.wall_s.push_back(wall);
    samples.part1_s.push_back(times.drain);
    samples.part2_s.push_back(times.replay);
    queries.push_back(times.queries);
    samples.rate_per_s.push_back(static_cast<double>(times.latency_ns.size()) / times.queries);
    latency_ns.insert(latency_ns.end(), times.latency_ns.begin(), times.latency_ns.end());
    untraced_walls.push_back(wall);
    last = times;
    return times.setup + wall;
  };

  if (!options.trace) {
    run_passes(options.seconds, untraced);
  } else {
    // The first pass gives the reference outputs and warms the process up;
    // after it, untraced and traced passes alternate, so that both sides of
    // trace.overhead_s see the same drift of the host.
    const double first = untraced();
    untraced_walls.clear();
    trace::reset();
    TracedTotals traced;
    const std::size_t passes = run_passes(options.seconds - first, [&] {
      const double plain = untraced();
      const std::uint64_t start = now_ns();
      traced_pass(options, plan, pass_index++, reference, report, traced);
      return plain + seconds_between(start, now_ns());
    });
    const trace::Totals totals = trace::collect();
    const double n = static_cast<double>(passes);
    LayerExtras extras;
    extras.idle_polls = static_cast<double>(last.drain_report.idle_polls);
    extras.held_skips = last.held_skips;
    extras.transport_us_p50 = median(traced.transport_ns) * 1e-3;
    extras.cache_hits = traced.hits / n;
    extras.cache_misses = traced.misses / n;
    extras.parse_errors = traced.parse_errors / n;
    extras.trace_overhead_s = median(traced.walls) - median(untraced_walls);
    // Share of the traced drain, replay and request loop spent inside timed
    // layer calls and manetd round trips.
    double layer_seconds = 0.0;
    for (const Site site : {Site::kDecompose, Site::kStoreLoadMiss, Site::kStoreLoadHit,
                            Site::kLeaseClaim, Site::kExecuteUnit, Site::kStoreSave,
                            Site::kLeaseRelease, Site::kMergeUnits, Site::kResultWrite}) {
      layer_seconds += totals[site].seconds();
    }
    double request_seconds = 0.0;
    for (const double s : trace::span_seconds("request")) request_seconds += s;
    double pass_seconds = 0.0;
    for (const double s : traced.walls) pass_seconds += s;
    extras.trace_coverage = (layer_seconds + request_seconds) / pass_seconds;
    add_per_layer(report, totals, n, extras);
  }

  fs::remove_all(plan.root);
  samples.add_end_to_end(report);
  report.digests.emplace_back("campaign_query.result_json", hex_u64(fnv1a(reference.result)));
  report.digests.emplace_back("campaign_query.responses", hex_u64(reference.responses));
  report.named = {{"drain_s", report.end_to_end[2].value, "s"},
                  {"replay_s", report.end_to_end[3].value, "s"},
                  {"query_s", median(queries), "s"},
                  {"query_p50_us", quantile(latency_ns, 0.5) * 1e-3, "us"},
                  {"query_p99_us", quantile(latency_ns, 0.99) * 1e-3, "us"},
                  {"queries_per_s", report.end_to_end[4].value, "1/s"},
                  {"query_samples", static_cast<double>(latency_ns.size()), "count"}};
  std::printf("campaign_query: %zu points, %zu units, %zu rounds of %zu queries per pass\n",
              plan.configs.size(), plan.units, plan.rounds, documented_queries(plan).size());
  return report;
}

}  // namespace perfbench
