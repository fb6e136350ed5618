#include "tracer.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace perfbench::trace {

namespace {

struct Sink {
  Totals totals;
};

struct SpanRecord {
  std::uint32_t id;
  std::uint32_t parent;
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::size_t thread;
};

struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<Sink>> sinks;  // guarded by mutex; never freed
  std::vector<SpanRecord> spans;             // guarded by mutex
  std::atomic<std::uint32_t> next_span{1};
};

Registry& registry() {
  static Registry instance;
  return instance;
}

Sink& thread_sink() {
  thread_local Sink* sink = [] {
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    reg.sinks.push_back(std::make_unique<Sink>());
    return reg.sinks.back().get();
  }();
  return *sink;
}

std::size_t thread_index() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t index = next.fetch_add(1);
  return index;
}

/// Bucket of a duration: exact below 16 ns, then 16 sub-buckets per octave.
std::size_t bucket_of(std::uint64_t ns) {
  if (ns < 16) return static_cast<std::size_t>(ns);
  const int msb = 63 - std::countl_zero(ns);
  const std::uint64_t sub = (ns >> (msb - 4)) & 15u;
  return static_cast<std::size_t>(msb - 3) * 16 + static_cast<std::size_t>(sub);
}

/// [lower, lower + width) of a bucket, in ns.
std::pair<double, double> bucket_range(std::size_t index) {
  if (index < 16) return {static_cast<double>(index), 1.0};
  const int msb = static_cast<int>(index / 16) + 3;
  const std::uint64_t sub = index % 16;
  const double width = static_cast<double>(std::uint64_t{1} << (msb - 4));
  return {static_cast<double>(16 + sub) * width, width};
}

}  // namespace

double SiteTotals::quantile_ns(double q) const {
  if (calls == 0) return 0.0;
  const double rank = q * static_cast<double>(calls - 1);
  double seen = 0.0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const double in_bucket = static_cast<double>(buckets[i]);
    if (in_bucket == 0.0) continue;
    if (rank < seen + in_bucket) {
      const auto [lower, width] = bucket_range(i);
      return lower + width * ((rank - seen + 0.5) / in_bucket);
    }
    seen += in_bucket;
  }
  return 0.0;
}

void record(Site site, std::uint64_t ns) {
  SiteTotals& totals = thread_sink().totals.sites[static_cast<std::size_t>(site)];
  ++totals.calls;
  totals.total_ns += ns;
  ++totals.buckets[bucket_of(ns)];
}

void add(Count count, std::uint64_t n) {
  thread_sink().totals.counts[static_cast<std::size_t>(count)] += n;
}

Totals collect() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  Totals sum;
  for (const auto& sink : reg.sinks) {
    for (std::size_t s = 0; s < kSites; ++s) {
      const SiteTotals& from = sink->totals.sites[s];
      SiteTotals& to = sum.sites[s];
      to.calls += from.calls;
      to.total_ns += from.total_ns;
      for (std::size_t b = 0; b < kBuckets; ++b) to.buckets[b] += from.buckets[b];
    }
    for (std::size_t c = 0; c < kCounts; ++c) sum.counts[c] += sink->totals.counts[c];
  }
  return sum;
}

void reset() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  for (const auto& sink : reg.sinks) sink->totals = Totals{};
  reg.spans.clear();
}

Span::Span(const char* name, std::uint32_t parent)
    : name_(name),
      id_(registry().next_span.fetch_add(1)),
      parent_(parent),
      start_ns_(now_ns()) {}

Span::~Span() {
  const std::uint64_t end = now_ns();
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  reg.spans.push_back({id_, parent_, name_, start_ns_, end, thread_index()});
}

std::vector<double> span_seconds(const std::string& name) {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  std::vector<double> out;
  for (const SpanRecord& span : reg.spans) {
    if (name == span.name) out.push_back(seconds_between(span.start_ns, span.end_ns));
  }
  return out;
}

void write_spans(const std::string& path) {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  std::map<std::uint32_t, std::vector<std::pair<std::uint64_t, std::uint64_t>>> children;
  std::uint64_t origin = UINT64_MAX;
  for (const SpanRecord& span : reg.spans) {
    children[span.parent].emplace_back(span.start_ns, span.end_ns);
    origin = std::min(origin, span.start_ns);
  }
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write spans file " + path);
  std::fprintf(out, "{\"spans\": [");
  bool first = true;
  for (const SpanRecord& span : reg.spans) {
    // Self time: the span minus the union of its direct children.
    std::uint64_t covered = 0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      std::uint64_t run_start = 0;
      std::uint64_t run_end = 0;
      for (const auto& [lo, hi] : intervals) {
        if (lo > run_end) {
          covered += run_end - run_start;
          run_start = lo;
          run_end = hi;
        } else {
          run_end = std::max(run_end, hi);
        }
      }
      covered += run_end - run_start;
    }
    const std::uint64_t duration = span.end_ns - span.start_ns;
    std::fprintf(out,
                 "%s\n  {\"id\": %u, \"parent\": %u, \"name\": \"%s\", \"thread\": %zu, "
                 "\"start_ns\": %llu, \"duration_ns\": %llu, \"self_ns\": %llu}",
                 first ? "" : ",", span.id, span.parent, span.name, span.thread,
                 static_cast<unsigned long long>(span.start_ns - origin),
                 static_cast<unsigned long long>(duration),
                 static_cast<unsigned long long>(duration - std::min(duration, covered)));
    first = false;
  }
  std::fprintf(out, "\n]}\n");
  std::fclose(out);
}

}  // namespace perfbench::trace
