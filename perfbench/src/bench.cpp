#include "bench.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>

namespace perfbench {

struct CpuRotation::State {
  std::vector<int> tids;
  std::vector<int> cpus;
  cpu_set_t original{};
  std::mutex mutex;
  std::condition_variable wake;
  bool stop = false;
  std::thread mover;
};

CpuRotation::CpuRotation(std::vector<int> tids) : state_(std::make_unique<State>()) {
  State& s = *state_;
  for (int& tid : tids) {
    if (tid == 0) tid = static_cast<int>(syscall(SYS_gettid));
  }
  s.tids = std::move(tids);
  sched_getaffinity(0, sizeof(s.original), &s.original);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &s.original)) s.cpus.push_back(cpu);
  }
  // The mover starts before any target is pinned, so it keeps every CPU.
  s.mover = std::thread([&s] {
    std::unique_lock<std::mutex> lock(s.mutex);
    for (std::size_t step = 0; !s.stop; ++step) {
      for (std::size_t k = 0; k < s.tids.size(); ++k) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(s.cpus[(step + k) % s.cpus.size()], &one);
        sched_setaffinity(s.tids[k], sizeof(one), &one);  // fails harmlessly once a target exits
      }
      s.wake.wait_for(lock, std::chrono::milliseconds(50), [&s] { return s.stop; });
    }
  });
}

CpuRotation::~CpuRotation() {
  {
    const std::lock_guard<std::mutex> lock(state_->mutex);
    state_->stop = true;
  }
  state_->wake.notify_one();
  state_->mover.join();
  for (const int tid : state_->tids) {
    sched_setaffinity(tid, sizeof(state_->original), &state_->original);
  }
}

void Report::check(bool ok, const std::string& what) {
  check_count(1, ok ? 0 : 1, what);
}

void Report::check_count(std::uint64_t attempted_ops, std::uint64_t failed_ops,
                         const std::string& what) {
  attempted += attempted_ops;
  failed += failed_ops;
  if (failed_ops != 0) {
    std::fprintf(stderr, "perfbench: correctness gate failed: %s (%llu of %llu)\n",
                 what.c_str(), static_cast<unsigned long long>(failed_ops),
                 static_cast<unsigned long long>(attempted_ops));
  }
}

void PassSamples::add_end_to_end(Report& report) const {
  report.end_to_end.push_back({"setup_s", median(setup_s), "s"});
  report.end_to_end.push_back({"wall_s", median(wall_s), "s"});
  report.end_to_end.push_back({"part1_s", median(part1_s), "s"});
  report.end_to_end.push_back({"part2_s", median(part2_s), "s"});
  report.end_to_end.push_back({"rate_per_s", median(rate_per_s), "1/s"});
  report.end_to_end.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

}  // namespace perfbench
