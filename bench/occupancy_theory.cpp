// Section 2 validation tables: the occupancy-theory toolkit the paper's
// analysis stands on (Kolchin, Sevast'yanov & Chistyakov).
//
//  (A) Moments: exact E[mu]/Var[mu] vs the Theorem 1 asymptotics vs
//      Monte-Carlo, across the five growth domains. Expected: the
//      asymptotics track the exact values closely (relative error shrinking
//      with C), and Theorem 1's bound E[mu] <= C e^{-n/C} always holds.
//
//  (B) Limit laws (Theorem 2): the empirical distribution of mu matches the
//      domain's law — Normal in CD/RHID/LHID, Poisson in the RHD, shifted
//      Poisson in the LHD (checked through mean/variance signatures:
//      a Poisson's variance equals its mean).
//
//  (C) Lemma 2: P(10*1 | mu = k) -> 1 for 0 < k << C.

#include <cmath>

#include "common/figure_bench.hpp"
#include "occupancy/gap_pattern.hpp"
#include "occupancy/occupancy.hpp"
#include "support/stats.hpp"

namespace {

using namespace manet;
using namespace manet::bench;

struct MuSample {
  RunningStats stats;
};

MuSample simulate_mu(std::uint64_t n, std::uint64_t C, std::size_t trials, Rng& rng) {
  MuSample sample;
  std::vector<bool> occupied(C);
  for (std::size_t t = 0; t < trials; ++t) {
    std::fill(occupied.begin(), occupied.end(), false);
    for (std::uint64_t b = 0; b < n; ++b) occupied[rng.uniform_index(C)] = true;
    std::size_t empty = 0;
    for (bool o : occupied) {
      if (!o) ++empty;
    }
    sample.stats.add(static_cast<double>(empty));
  }
  return sample;
}

int run(int argc, char** argv) {
  using namespace manet;
  using namespace manet::bench;
  const auto options = parse_figure_options(
      argc, argv, "occupancy_theory: Theorems 1-2 and Lemma 2 validation tables");
  if (!options) return 0;

  Rng rng(options->seed);
  const std::size_t trials = options->scale().stationary_trials * 20;

  // Representative (n, C) pairs, one per domain, C = 4096.
  const std::uint64_t C = 4096;
  const auto sqrt_c = static_cast<std::uint64_t>(std::sqrt(static_cast<double>(C)));
  const auto c_log_c = static_cast<std::uint64_t>(
      static_cast<double>(C) * std::log(static_cast<double>(C)));
  const std::vector<std::uint64_t> n_values = {sqrt_c, C / 16, C, 4 * C, c_log_c};

  // ---- (A) Moments across domains. ----------------------------------------
  TextTable moments({"n", "domain", "E exact", "E asym", "E sim", "bound ok", "Var exact",
                     "Var asym", "Var sim"});
  std::vector<MuSample> samples;
  for (std::uint64_t n : n_values) {
    Rng point_rng = rng.split();
    const auto domain = occupancy::classify_domain(n, C);
    const MuSample sample = simulate_mu(n, C, trials, point_rng);
    samples.push_back(sample);
    const double e_exact = occupancy::expected_empty_cells(n, C);
    const bool bound_ok = e_exact <= occupancy::expected_empty_cells_upper_bound(n, C) + 1e-9;
    moments.add_row({std::to_string(n), occupancy::domain_name(domain),
                     TextTable::num(e_exact, 3),
                     TextTable::num(occupancy::expected_empty_cells_asymptotic(n, C), 3),
                     TextTable::num(sample.stats.mean(), 3), bound_ok ? "yes" : "NO",
                     TextTable::num(occupancy::variance_empty_cells(n, C), 3),
                     TextTable::num(occupancy::variance_empty_cells_asymptotic(n, C), 3),
                     TextTable::num(sample.stats.variance(), 3)});
  }
  print_result(moments, *options,
               "Theorem 1 (A) — moments of mu(n, C), C = 4096, exact vs asymptotic vs "
               "simulation");

  // ---- (B) Limit-law signatures (Theorem 2). -------------------------------
  TextTable laws({"n", "domain", "limit law", "law location", "sim mean(shifted)",
                  "law Var", "sim Var", "Var/mean (Poisson=1)"});
  for (std::size_t i = 0; i < n_values.size(); ++i) {
    const std::uint64_t n = n_values[i];
    const auto law = occupancy::limit_law(n, C);
    const MuSample& sample = samples[i];

    std::string kind;
    double location = law.location;
    double variance = 0.0;
    double sim_mean = sample.stats.mean();
    switch (law.kind) {
      case occupancy::LimitLaw::Kind::kNormal:
        kind = "Normal";
        variance = law.scale * law.scale;
        break;
      case occupancy::LimitLaw::Kind::kPoisson:
        kind = "Poisson";
        variance = law.location;
        break;
      case occupancy::LimitLaw::Kind::kShiftedPoisson:
        kind = "Poisson(shifted)";
        variance = law.location;
        sim_mean -= law.shift;  // law describes mu - (C - n)
        break;
    }
    laws.add_row({std::to_string(n), occupancy::domain_name(occupancy::classify_domain(n, C)),
                  kind, TextTable::num(location, 3), TextTable::num(sim_mean, 3),
                  TextTable::num(variance, 3), TextTable::num(sample.stats.variance(), 3),
                  TextTable::num(sample.stats.variance() /
                                     std::max(1e-12, sample.stats.mean()), 3)});
  }
  print_result(laws, *options, "Theorem 2 (B) — limit-law signatures per domain");

  // ---- (C) Lemma 2 limit. ---------------------------------------------------
  TextTable lemma({"C", "k = C/10", "P(10*1 | mu=k)"});
  for (std::uint64_t c : {16ull, 64ull, 256ull, 1024ull, 4096ull}) {
    lemma.add_row({std::to_string(c), std::to_string(c / 10),
                   TextTable::num(gap_pattern::pattern_probability_given_empty(c, c / 10), 6)});
  }
  print_result(lemma, *options,
               "Lemma 2 (C) — P(10*1 | mu = k) -> 1 as C grows with 0 < k << C");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return manet::bench::figure_main(argc, argv, run); }
