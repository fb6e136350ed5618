// Section 3 validation table: the 1-dimensional connectivity threshold of
// Theorem 5 — with 1 << r << l, the communication graph of n uniform nodes
// on [0, l] is a.a.s. connected iff r*n is Omega(l log l).
//
// Three experiments in one binary:
//
//  (A) Threshold sweep: P(connected) and P(10*1 pattern) as a function of
//      beta where r = beta * l ln(l) / n. Expected: P(connected) climbs
//      through the threshold band and approaches 1 for beta past ~1, while
//      the Lemma 1 pattern probability dies out; sharper for larger l.
//
//  (B) Gap regime (Theorem 4): r*n = l * f(l) with 1 << f(l) = sqrt(ln l)
//      << ln l. Expected: P(10*1 pattern) stays bounded away from zero as l
//      grows — the epsilon that kills a.a.s. connectivity.
//
//  (C) The Section 3 closing comparison for n proportional to l: worst-case
//      Omega(l), random Theta(log l), best-case Theta(1) ranges.

#include <cmath>

#include "common/figure_bench.hpp"
#include "core/theory.hpp"
#include "occupancy/exact_1d.hpp"
#include "occupancy/gap_pattern.hpp"
#include "sim/deployment.hpp"
#include "topology/critical_range.hpp"

namespace {

using namespace manet;
using namespace manet::bench;

double probability_connected_1d(double l, std::size_t n, double r, std::size_t trials,
                                Rng& rng) {
  const Box1 line(l);
  std::size_t connected = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    const auto points = uniform_deployment(n, line, rng);
    if (critical_range<1>(points, line) <= r) ++connected;
  }
  return static_cast<double>(connected) / static_cast<double>(trials);
}

double probability_pattern_1d(double l, std::size_t n, double r, std::size_t trials,
                              Rng& rng) {
  const Box1 line(l);
  const auto cells = static_cast<std::size_t>(l / r);
  if (cells < 2) return 0.0;
  std::size_t hits = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    const auto points = uniform_deployment(n, line, rng);
    if (gap_pattern::has_gap_pattern(gap_pattern::occupancy_bits(points, l, cells))) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(trials);
}

int run(int argc, char** argv) {
  using namespace manet;
  using namespace manet::bench;
  const auto options = parse_figure_options(
      argc, argv, "theorem5_1d: the 1-D connectivity threshold r*n = Theta(l log l)");
  if (!options) return 0;

  Rng rng(options->seed);
  const ScaleParams scale = options->scale();
  const std::size_t trials = scale.stationary_trials;

  // ---- (A) Threshold sweep over beta for two system sizes. ----------------
  TextTable sweep(
      {"l", "n", "beta", "r", "regime", "P(conn) exact", "P(conn) sim", "P(10*1)"});
  for (double l : {4096.0, 65536.0}) {
    const auto n = static_cast<std::size_t>(std::sqrt(l));
    for (double beta : {0.2, 0.5, 0.8, 1.0, 1.5, 2.0}) {
      const double r =
          theory::connectivity_threshold_range_1d(l, static_cast<double>(n), beta);
      Rng point_rng = rng.split();
      const double p_conn = probability_connected_1d(l, n, r, trials, point_rng);
      const double p_pattern = probability_pattern_1d(l, n, r, trials, point_rng);
      const double p_exact = exact_1d::probability_connected(n, r, l);
      sweep.add_row({TextTable::num(l, 0), std::to_string(n), TextTable::num(beta, 2),
                     TextTable::num(r, 1),
                     theory::regime_name(
                         theory::classify_regime_1d(l, static_cast<double>(n), r)),
                     TextTable::num(p_exact, 3), TextTable::num(p_conn, 3),
                     TextTable::num(p_pattern, 3)});
    }
  }
  print_result(sweep, *options,
               "Theorem 5 (A) — P(connected) across the threshold r = beta*l*ln(l)/n");

  // ---- (B) Theorem 4's gap regime: epsilon stays positive. ----------------
  TextTable gap({"l", "n", "f(l)=sqrt(ln l)", "r", "P(10*1) exact", "P(10*1) sim",
                 "P(connected)"});
  for (double l : {1024.0, 4096.0, 16384.0, 65536.0}) {
    const auto n = static_cast<std::size_t>(std::sqrt(l));
    const double f = std::sqrt(std::log(l));
    const double r = l * f / static_cast<double>(n);  // r*n = l*f(l), gap regime
    const auto cells = static_cast<std::uint64_t>(l / r);
    Rng point_rng = rng.split();
    const double exact =
        cells >= 2 ? gap_pattern::pattern_probability(n, cells) : 0.0;
    const double simulated = probability_pattern_1d(l, n, r, trials, point_rng);
    const double p_conn = probability_connected_1d(l, n, r, trials, point_rng);
    gap.add_row({TextTable::num(l, 0), std::to_string(n), TextTable::num(f, 2),
                 TextTable::num(r, 1), TextTable::num(exact, 3),
                 TextTable::num(simulated, 3), TextTable::num(p_conn, 3)});
  }
  print_result(gap, *options,
               "Theorem 4 (B) — the {10*1} probability persists in l << rn << l log l");

  // ---- (C) Worst / random / best case comparison, n proportional to l. ----
  TextTable compare({"l", "n=l/4", "worst case r", "random (Thm 5) r", "best case r"});
  for (double l : {256.0, 1024.0, 4096.0, 16384.0}) {
    const double n = l / 4.0;
    compare.add_row({TextTable::num(l, 0), TextTable::num(n, 0),
                     TextTable::num(theory::worst_case_range(l, 1), 0),
                     TextTable::num(theory::connectivity_threshold_range_1d(l, n), 2),
                     TextTable::num(theory::best_case_range_1d(l, n), 2)});
  }
  print_result(compare, *options,
               "Section 3 (C) — worst-case Omega(l) vs random Theta(log l) vs best-case "
               "Theta(1), n = l/4");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return manet::bench::figure_main(argc, argv, run); }
