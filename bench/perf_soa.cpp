// SoA kernel microbench: the batched distance kernels of geometry/
// distance_kernels.hpp against the scalar cores they must reproduce, over
// batch sizes spanning the cell-run lengths of small traces up to the
// n >= 10^5 regime the SoA layer targets.
//
// Like perf_mst / perf_kinetic, this bench doubles as a value-identity gate:
// for every kernel, size and dimension it first verifies that the dispatched
// batch output is bit-identical to the scalar core element by element, and
// exits nonzero on the first divergence — a faster kernel that moves one bit
// of any distance is a bug, not a speedup. The timing section then reports
// scalar vs batched throughput and their ratio.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "geometry/distance_kernels.hpp"
#include "geometry/point.hpp"
#include "geometry/point_store.hpp"
#include "support/bench_json.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"

namespace {

using namespace manet;

double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Folds a double buffer into an FNV-1a digest — keeps the optimizer from
/// discarding the timed work and gives the report a content fingerprint.
std::uint64_t fold_doubles(const std::vector<double>& values, std::uint64_t hash) {
  for (const double v : values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int shift = 0; shift < 64; shift += 8) {
      hash ^= (bits >> shift) & 0xffu;
      hash *= kFnv1aPrime;
    }
  }
  return hash;
}

template <int D>
PointStore<D> random_store(std::size_t n, double lo, double hi, Rng& rng) {
  PointStore<D> store;
  store.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    Point<D> p;
    for (int i = 0; i < D; ++i) p.coords[static_cast<std::size_t>(i)] = rng.uniform(lo, hi);
    store.set(k, p);
  }
  return store;
}

struct KernelRun {
  double scalar_seconds = 0.0;
  double batch_seconds = 0.0;
  bool identical = true;
  std::uint64_t digest = kFnv1aOffset;
};

/// Times `scalar(out)` vs `batch(out)` over `reps` repetitions after checking
/// the two produce bitwise-equal buffers.
template <typename Scalar, typename Batch>
KernelRun time_kernel(std::size_t n, std::size_t reps, Scalar&& scalar, Batch&& batch) {
  KernelRun run;
  std::vector<double> scalar_out(n), batch_out(n);
  scalar(scalar_out.data());
  batch(batch_out.data());
  run.identical =
      std::memcmp(scalar_out.data(), batch_out.data(), n * sizeof(double)) == 0;
  run.digest = fold_doubles(batch_out, run.digest);

  double start = now_seconds();
  for (std::size_t r = 0; r < reps; ++r) scalar(scalar_out.data());
  run.scalar_seconds = now_seconds() - start;
  run.digest = fold_doubles(scalar_out, run.digest);

  start = now_seconds();
  for (std::size_t r = 0; r < reps; ++r) batch(batch_out.data());
  run.batch_seconds = now_seconds() - start;
  run.digest = fold_doubles(batch_out, run.digest);
  return run;
}

template <int D>
void bench_dimension(BenchReport& report, const std::vector<std::size_t>& sizes, bool quick,
                     bool& all_identical) {
  Rng rng(0x50A0u + static_cast<std::uint64_t>(D));
  const double side = 1024.0;
  for (const std::size_t n : sizes) {
    PointStore<D> a = random_store<D>(n, 0.0, side, rng);
    PointStore<D> b = random_store<D>(n, 0.0, side, rng);
    // The scalar reference iterates the interleaved AoS layout the engines
    // used before this layer existed — that's the loop the batch kernels
    // replaced, so scalar-vs-batch here measures layout + SIMD together.
    std::vector<Point<D>> a_aos(n), b_aos(n);
    a.scatter_to(a_aos);
    b.scatter_to(b_aos);
    Point<D> q;
    for (int i = 0; i < D; ++i) q.coords[static_cast<std::size_t>(i)] = rng.uniform(0.0, side);

    // Size the repetition count so every (kernel, n) cell streams the same
    // total element volume, keeping per-cell wall time comparable.
    const std::size_t volume = quick ? (std::size_t{1} << 18) : (std::size_t{1} << 22);
    const std::size_t reps = std::max<std::size_t>(1, volume / n);
    const auto axes_a = a.axes();
    const auto axes_b = b.axes();

    const struct {
      const char* kernel;
      KernelRun run;
    } runs[] = {
        {"squared_distance",
         time_kernel(
             n, reps,
             [&](double* out) {
               for (std::size_t k = 0; k < n; ++k) {
                 out[k] = squared_distance(a_aos[k], q);
               }
             },
             [&](double* out) {
               kernels::batch_squared_distance<D>(axes_a, n, q.coords.data(), out);
             })},
        {"pair_distance",
         time_kernel(
             n, reps,
             [&](double* out) {
               for (std::size_t k = 0; k < n; ++k) out[k] = distance(a_aos[k], b_aos[k]);
             },
             [&](double* out) { kernels::batch_pair_distance<D>(axes_a, axes_b, n, out); })},
    };

    for (const auto& entry : runs) {
      if (!entry.run.identical) all_identical = false;
      JsonValue sample = JsonValue::object();
      sample.set("kernel", JsonValue::string(entry.kernel));
      sample.set("d", JsonValue::number(std::size_t{D}));
      sample.set("n", JsonValue::number(n));
      sample.set("reps", JsonValue::number(reps));
      sample.set("scalar_seconds", JsonValue::number(entry.run.scalar_seconds));
      sample.set("batch_seconds", JsonValue::number(entry.run.batch_seconds));
      sample.set("speedup", JsonValue::number(entry.run.scalar_seconds /
                                              std::max(entry.run.batch_seconds, 1e-12)));
      sample.set("bit_identical", JsonValue::boolean(entry.run.identical));
      sample.set("digest", JsonValue::string(hex_u64(entry.run.digest)));
      report.add_sample(std::move(sample));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else {
      std::printf("usage: %s [--quick]\n", argv[0]);
      return arg == "--help" ? 0 : 1;
    }
  }

  std::vector<std::size_t> sizes = {64, 1024, 16384, 131072};
  if (quick) sizes = {64, 1024};

  BenchReport report("soa_kernels_vs_scalar");
  report.add_param("avx2", JsonValue::boolean(kernels::cpu_has_avx2()));
  report.add_param(
      "scalar",
      JsonValue::string("per-element scalar core over the interleaved AoS layout (pre-SoA path)"));
  report.add_param("batch", JsonValue::string("dispatched batch kernel (AVX2 when available)"));

  bool all_identical = true;
  bench_dimension<1>(report, sizes, quick, all_identical);
  bench_dimension<2>(report, sizes, quick, all_identical);
  bench_dimension<3>(report, sizes, quick, all_identical);

  report.add_extra("kernels_bit_identical", JsonValue::boolean(all_identical));
  std::printf("%s\n", report.dump().c_str());

  if (!all_identical) {
    std::fprintf(stderr, "FATAL: a batched kernel diverged bitwise from the scalar core\n");
    return 1;
  }
  return 0;
}
