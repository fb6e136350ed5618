// perfbench: the repository benchmark (see ../README.md).
//
//   perfbench --workload paper_figs|trace_65k|campaign_query --seed N
//             --seconds S --trace 0|1 [--smoke] --manetd PATH --work-dir DIR
//
// Prints provenance and the workload's named metrics as text lines, then, as
// the last line, one JSON object {"correct", "attempted", "failed",
// "metrics"} holding the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1). Exits 1 when a correctness gate failed, 2 on a usage
// or run error (no result line).

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.hpp"
#include "tracer.hpp"
#include "geometry/distance_kernels.hpp"
#include "support/bench_json.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Options;
using perfbench::Report;

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper_figs|trace_65k|campaign_query --seed N --seconds S --trace 0|1 "
               "[--smoke] --manetd PATH --work-dir DIR\n",
               message.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (arg == "--manetd") {
        options.manetd = value;
      } else if (arg == "--work-dir") {
        options.work_dir = value;
      } else {
        usage("unknown option " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  if (options.work_dir.empty()) usage("--work-dir is required");
  if (!(options.seconds > 0.0)) usage("--seconds must be > 0");
  return options;
}

/// What ran: one JSON line.
void print_provenance(const Options& options) {
  using manet::JsonValue;
  JsonValue p = JsonValue::object();
  p.set("git_describe", JsonValue::string(manet::git_describe()));
  p.set("compiler", JsonValue::string(std::string("gcc ") + __VERSION__));
  p.set("cxx_flags", JsonValue::string(PERFBENCH_CXX_FLAGS));
  const std::string flags = PERFBENCH_CXX_FLAGS;
  const std::size_t march = flags.find("-march=");
  const std::string target =
      march == std::string::npos
          ? "compiler default"
          : flags.substr(march + 7, flags.find(' ', march) - march - 7);
  p.set("march", JsonValue::string(target));
  p.set("build_type", JsonValue::string(PERFBENCH_BUILD_TYPE));
  p.set("distance_kernels",
        JsonValue::string(manet::kernels::cpu_has_avx2() ? "avx2" : "portable"));
  p.set("manet_metrics", JsonValue::boolean(manet::metrics::compiled_in()));
  p.set("threads", JsonValue::number(manet::max_parallelism()));
  p.set("nproc",
        JsonValue::number(static_cast<std::size_t>(std::thread::hardware_concurrency())));
  p.set("workload", JsonValue::string(options.workload));
  p.set("seed", JsonValue::number(static_cast<std::size_t>(options.seed)));
  p.set("trace", JsonValue::boolean(options.trace));
  p.set("smoke", JsonValue::boolean(options.smoke));
  std::printf("provenance %s\n", p.dump().c_str());
}

void print_result(const Options& options, const Report& report) {
  for (const auto& metric : report.named) {
    std::printf("metric %s %.9g %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  for (const auto& metric : report.end_to_end) {
    std::printf("metric %s %.9g %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  const double error_rate =
      static_cast<double>(report.failed) / static_cast<double>(report.attempted);
  std::printf("metric error_rate %.9g ratio\n", error_rate);
  for (const auto& [name, value] : report.digests) {
    std::printf("digest %s %s\n", name.c_str(), value.c_str());
  }

  using manet::JsonValue;
  JsonValue metrics = JsonValue::object();
  for (const auto& metric : options.trace ? report.per_layer : report.end_to_end) {
    JsonValue entry = JsonValue::object();
    entry.set("value", JsonValue::number(metric.value));
    entry.set("unit", JsonValue::string(metric.unit));
    metrics.set(metric.name, std::move(entry));
  }
  JsonValue result = JsonValue::object();
  result.set("correct", JsonValue::boolean(report.failed == 0));
  result.set("attempted", JsonValue::number(static_cast<std::size_t>(report.attempted)));
  result.set("failed", JsonValue::number(static_cast<std::size_t>(report.failed)));
  result.set("metrics", std::move(metrics));
  std::printf("%s\n", result.dump().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  try {
    std::filesystem::create_directories(options.work_dir);
    Report report;
    if (options.workload == "paper_figs") {
      report = perfbench::run_paper_figs(options);
    } else if (options.workload == "trace_65k") {
      report = perfbench::run_trace_65k(options);
    } else if (options.workload == "campaign_query") {
      if (options.manetd.empty()) usage("campaign_query needs --manetd");
      report = perfbench::run_campaign_query(options);
    } else {
      usage("unknown workload " + options.workload);
    }
    if (options.trace) {
      perfbench::trace::write_spans(options.work_dir + "/spans-" + options.workload + ".json");
    }
    print_provenance(options);
    print_result(options, report);
    std::fflush(stdout);
    return report.failed == 0 ? 0 : 1;
  } catch (const std::exception& error) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: error: %s\n", error.what());
    return 2;
  }
}
