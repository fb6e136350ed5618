#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "geometry/box.hpp"
#include "geometry/cell_grid.hpp"
#include "geometry/point.hpp"
#include "graph/adjacency.hpp"
#include "graph/scc.hpp"
#include "graph/union_find.hpp"
#include "support/contracts.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "topology/range_assignment.hpp"

namespace manet {

/// Whether a link rule is symmetric (u <-> v decided jointly) or directed
/// (u -> v and v -> u decided separately, e.g. under per-node ranges).
enum class LinkSymmetry { kSymmetric, kDirected };

/// The link-rule seam of the graph layer (ROADMAP item 3; DESIGN.md §17).
///
/// Every connectivity analysis in the library historically hard-coded the
/// paper's symmetric unit-disk rule `edge iff dist(u, v) <= r`. A LinkModel
/// generalizes that decision: given a candidate pair and its squared
/// Euclidean distance, it decides whether the link exists — symmetrically,
/// or per direction for models where node u's reach differs from node v's.
///
/// ## Contract (every implementation, enforced by tests/link_model_test.cpp)
///
///  * **Pure and deterministic**: the decision is a function of
///    (u, v, dist2) and the model's immutable construction state only.
///    Random attenuation (shadowing) must be derived from `support/rng`
///    substreams keyed by the *pair identity* — pure in (seed, min(u, v),
///    max(u, v)) — never from a shared mutable stream, so results are
///    bit-identical regardless of enumeration order or thread count.
///  * **Bounded reach**: no link may exist between nodes farther apart than
///    `max_link_distance()`; the analyses below use it as the cell-grid
///    enumeration radius, so a violation would silently drop links.
///  * **Const thread-safety**: analyses may query one model concurrently
///    from parallel trials; implementations hold no mutable state.
class LinkModel {
 public:
  LinkModel() = default;
  LinkModel(const LinkModel&) = delete;
  LinkModel& operator=(const LinkModel&) = delete;
  virtual ~LinkModel() = default;

  virtual const char* name() const noexcept = 0;
  virtual LinkSymmetry symmetry() const noexcept = 0;

  /// Largest distance at which any link (either direction) can exist. Used
  /// as the candidate-pair enumeration radius; 0 means no links at all.
  virtual double max_link_distance() const noexcept = 0;

  /// Symmetric link decision for the pair (u, v) at squared distance dist2.
  /// For directed models this is the *bidirectional closure*: true iff both
  /// u -> v and v -> u exist (the RangeAssignment symmetric-graph rule).
  virtual bool symmetric_link(std::size_t u, std::size_t v, double dist2) const = 0;

  /// Directed link decision. Defaults to the symmetric rule in both
  /// directions; directed models override.
  virtual void directed_link(std::size_t u, std::size_t v, double dist2, bool& u_to_v,
                             bool& v_to_u) const {
    u_to_v = v_to_u = symmetric_link(u, v, dist2);
  }

  /// Validates the model against a deployment size (throws ConfigError when
  /// the model carries per-node state for a different n). Default: any n.
  virtual void validate_for(std::size_t node_count) const { static_cast<void>(node_count); }
};

/// The paper's point-graph rule: edge iff dist(u, v) <= radius — the
/// library's only unit-disk graph pipeline. `link_model_edges` /
/// `analyze_link_components` under this model are pinned to a brute-force
/// all-pairs oracle (tests/link_model_test.cpp), exact boundary ties and
/// duplicate points included.
class UnitDiskLinkModel final : public LinkModel {
 public:
  /// Requires radius > 0 (ConfigError — user-facing configuration).
  explicit UnitDiskLinkModel(double radius);

  double radius() const noexcept { return radius_; }

  const char* name() const noexcept override { return "unit-disk"; }
  LinkSymmetry symmetry() const noexcept override { return LinkSymmetry::kSymmetric; }
  double max_link_distance() const noexcept override { return radius_; }
  bool symmetric_link(std::size_t, std::size_t, double dist2) const override {
    return dist2 <= radius_ * radius_;
  }

 private:
  double radius_;
};

/// Parameters of the truncated log-normal shadowing rule (Rappaport §4.9;
/// Song/Goeckel/Towsley's "unreliable links" regime in PAPERS.md).
struct ShadowingParams {
  /// Median link range: the distance at which the *median* channel (zero
  /// shadowing) sits exactly at the receiver threshold. Plays the role the
  /// common range r plays for the unit disk. Must be > 0.
  double reference_range = 1.0;
  /// Log-normal shadowing standard deviation in dB (typically 4-12 outdoors).
  /// 0 reduces the model exactly to the unit disk. Must be >= 0.
  double sigma_db = 6.0;
  /// Path-loss exponent eta (2 free space .. ~6 indoors). Must be > 0.
  double path_loss_exponent = 3.0;
  /// Fading deviates are clipped to +-z_clip standard deviations, which
  /// truncates the (physically implausible, enumeration-breaking) tail of
  /// unbounded log-normal gains and bounds every link by
  /// reference_range * max_gain_factor(). Must be > 0.
  double z_clip = 3.0;
  /// Root seed of the per-pair fading substreams.
  std::uint64_t fading_seed = Rng::kDefaultSeed;

  /// Throws ConfigError on out-of-domain values (NaNs and infinities
  /// included) and when max_gain_factor() overflows to infinity.
  void validate() const;

  /// Largest possible fading gain, 10^(sigma_db * z_clip / (10 * eta)).
  double max_gain_factor() const;
};

/// Log-normal shadowing / RSSI-threshold links: the pair (u, v) is connected
/// iff dist <= reference_range * g(u, v), where the fading gain
/// g = 10^(sigma_db * Z / (10 * eta)) with Z a standard normal clipped to
/// +-z_clip. Equivalently, received power at distance d exceeds the
/// threshold iff the shadowing deviate exceeds the margin the deterministic
/// path loss leaves — the classical log-normal shadowing link rule solved
/// for distance.
///
/// Determinism: Z is drawn from the `support/rng` substream keyed by
/// (fading_seed, min(u, v), max(u, v)) — a pure function of the unordered
/// pair, so the same seed yields the same graph at any thread count and any
/// enumeration order, and the gain is symmetric (one fade per pair, both
/// directions — the standard reciprocal-channel assumption).
class ShadowingLinkModel final : public LinkModel {
 public:
  /// Validates `params` (ConfigError).
  explicit ShadowingLinkModel(const ShadowingParams& params);

  const ShadowingParams& params() const noexcept { return params_; }

  /// The fading gain of the unordered pair (deterministic; exposed for
  /// tests and for callers that need the effective range of a known pair).
  double pair_gain(std::size_t u, std::size_t v) const;

  const char* name() const noexcept override { return "shadowing"; }
  LinkSymmetry symmetry() const noexcept override { return LinkSymmetry::kSymmetric; }
  double max_link_distance() const noexcept override { return max_link_distance_; }
  bool symmetric_link(std::size_t u, std::size_t v, double dist2) const override {
    const double r_eff = params_.reference_range * pair_gain(u, v);
    return dist2 <= r_eff * r_eff;
  }

 private:
  ShadowingParams params_;
  double max_link_distance_;
};

/// Heterogeneous per-node transmitting ranges: the *directed* link u -> v
/// exists iff dist(u, v) <= r_u. The communication graph is directed as
/// soon as two ranges differ, so "connected" becomes "strongly connected"
/// (graph/scc.hpp). The symmetric projection (both directions) is exactly
/// the RangeAssignment rule `dist <= min(r_u, r_v)` of
/// topology/range_assignment.hpp, tie semantics included (`<=`, compared in
/// squared space — see tests/link_model_test.cpp's boundary regressions).
class HeterogeneousRangeLinkModel final : public LinkModel {
 public:
  /// Takes the per-node assignment (already validated by RangeAssignment).
  explicit HeterogeneousRangeLinkModel(RangeAssignment assignment);

  const RangeAssignment& assignment() const noexcept { return assignment_; }

  const char* name() const noexcept override { return "heterogeneous"; }
  LinkSymmetry symmetry() const noexcept override { return LinkSymmetry::kDirected; }
  double max_link_distance() const noexcept override { return max_range_; }
  bool symmetric_link(std::size_t u, std::size_t v, double dist2) const override;
  void directed_link(std::size_t u, std::size_t v, double dist2, bool& u_to_v,
                     bool& v_to_u) const override;
  /// Throws ConfigError when the deployment size differs from the
  /// assignment's node count.
  void validate_for(std::size_t node_count) const override;

 private:
  RangeAssignment assignment_;
  double max_range_;
};

// ---------------------------------------------------------------------------
// Range-indexed families (critical-range searches sweep the scale parameter).
// ---------------------------------------------------------------------------

/// A family of link models indexed by a scale parameter r (the common range,
/// the shadowing median range, the base of heterogeneous per-node ranges).
/// Connectivity under every family here is monotone in r — links only appear
/// as r grows — which is what link_model_critical_range
/// (topology/critical_range.hpp) relies on.
class LinkModelFamily {
 public:
  LinkModelFamily() = default;
  LinkModelFamily(const LinkModelFamily&) = delete;
  LinkModelFamily& operator=(const LinkModelFamily&) = delete;
  virtual ~LinkModelFamily() = default;

  virtual const char* name() const noexcept = 0;

  /// Instantiates the model at scale `range` for an n-node deployment.
  /// `fading_seed` keys any random attenuation / per-node heterogeneity;
  /// deterministic families ignore it. Requires range > 0.
  virtual std::unique_ptr<LinkModel> at_range(double range, std::size_t node_count,
                                              std::uint64_t fading_seed) const = 0;

  /// True when the family's critical range is exactly the bottleneck edge of
  /// the Euclidean MST (the unit disk — where the paper's argument applies);
  /// the search then skips bisection and reuses the exact engine.
  virtual bool exact_bottleneck() const noexcept { return false; }

  /// Bracket guarantee for the bisection fallback: at scale
  /// region_diagonal * hi_factor() the graph is strongly connected for every
  /// deployment and fading seed (the worst-case gain/factor still spans the
  /// region diagonal).
  virtual double hi_factor() const noexcept { return 1.0; }
};

/// Unit-disk family: at_range(r) = UnitDiskLinkModel(r); exact bottleneck.
class UnitDiskLinkFamily final : public LinkModelFamily {
 public:
  const char* name() const noexcept override { return "unit-disk"; }
  std::unique_ptr<LinkModel> at_range(double range, std::size_t node_count,
                                      std::uint64_t fading_seed) const override;
  bool exact_bottleneck() const noexcept override { return true; }
};

/// Shadowing family: at_range(r) sets reference_range = r and
/// fading_seed = the per-trial seed; sigma/eta/z_clip come from the
/// constructor. hi_factor compensates the deepest truncated fade.
class ShadowingLinkFamily final : public LinkModelFamily {
 public:
  /// `base.reference_range` / `base.fading_seed` are overridden per call;
  /// the remaining parameters are validated here (ConfigError).
  explicit ShadowingLinkFamily(ShadowingParams base);

  const ShadowingParams& base_params() const noexcept { return base_; }

  const char* name() const noexcept override { return "shadowing"; }
  std::unique_ptr<LinkModel> at_range(double range, std::size_t node_count,
                                      std::uint64_t fading_seed) const override;
  double hi_factor() const noexcept override;

 private:
  ShadowingParams base_;
};

/// Heterogeneous-range family: node i transmits at r * f_i with the factor
/// f_i drawn uniformly from [min_factor, max_factor] from the substream
/// (fading_seed, i) — a pure per-node function, so deployments are
/// bit-identical at any thread count. Models device-class heterogeneity
/// (e.g. BLE beacons next to mains-powered gateways).
class HeterogeneousRangeLinkFamily final : public LinkModelFamily {
 public:
  /// Requires finite factors with 0 < min_factor <= max_factor (ConfigError).
  HeterogeneousRangeLinkFamily(double min_factor, double max_factor);

  double min_factor() const noexcept { return min_factor_; }
  double max_factor() const noexcept { return max_factor_; }

  const char* name() const noexcept override { return "heterogeneous"; }
  std::unique_ptr<LinkModel> at_range(double range, std::size_t node_count,
                                      std::uint64_t fading_seed) const override;
  double hi_factor() const noexcept override { return 1.0 / min_factor_; }

 private:
  double min_factor_;
  double max_factor_;
};

/// Tuning knobs of make_link_model_family (the CLI surface of the seam).
struct LinkModelMenu {
  /// Shadowing defaults; reference_range / fading_seed are per-call inputs.
  ShadowingParams shadowing;
  /// Heterogeneous per-node range factors, relative to the scale parameter.
  double min_range_factor = 0.5;
  double max_range_factor = 1.0;
};

/// Builds the family named by `--link-model`: "unit-disk", "shadowing" or
/// "heterogeneous". Throws ConfigError on unknown names.
std::unique_ptr<LinkModelFamily> make_link_model_family(const std::string& name,
                                                        const LinkModelMenu& menu = {});

/// The names make_link_model_family accepts, in presentation order.
const std::vector<std::string>& link_model_family_names();

// ---------------------------------------------------------------------------
// Graph construction / analysis through the seam.
// ---------------------------------------------------------------------------

/// Structural summary of a communication graph: everything the paper's
/// simulator reports per generated graph ("the percentage of connected
/// graphs, the average size of the largest connected component, ...") plus
/// the isolated-node census behind its observation that "disconnection is
/// caused by only a few isolated nodes", plus — since a LinkModel may be
/// directed — a strongly-connected-component census.
///
/// Empty-deployment semantics (n == 0), pinned by the tests: every count is
/// 0, `connected()` / `strongly_connected()` are vacuously true and
/// `largest_fraction()` is 1.0. Callers that divide by `component_count` or
/// index by `largest_size` must branch on `node_count == 0` first — the
/// public sim/ and core/ entry points reject empty deployments with
/// ConfigError instead (see sim/snapshot_stats.hpp).
struct ComponentSummary {
  std::size_t node_count = 0;
  std::size_t component_count = 0;
  std::size_t largest_size = 0;
  std::size_t isolated_count = 0;
  /// Directed census. For symmetric link models strong and weak
  /// connectivity coincide, so these mirror component_count / largest_size.
  /// For directed models they are computed from the arc set via
  /// graph/scc.hpp, while the undirected fields above describe the
  /// bidirectional (symmetric-closure) subgraph.
  std::size_t scc_count = 0;
  std::size_t largest_scc_size = 0;

  /// A graph on zero or one nodes is vacuously connected.
  bool connected() const noexcept { return component_count <= 1; }

  /// "Connected" generalized to directed communication graphs: every
  /// ordered pair of nodes can route to each other. Equals connected() for
  /// symmetric models; vacuously true on zero or one nodes.
  bool strongly_connected() const noexcept { return scc_count <= 1; }

  /// Largest component size as a fraction of n (1.0 for empty graphs).
  double largest_fraction() const noexcept {
    if (node_count == 0) return 1.0;
    return static_cast<double>(largest_size) / static_cast<double>(node_count);
  }
};

/// Enumerates the symmetric(-projection) edges of the communication graph
/// under `model`, each unordered pair emitted at most once as (u < v) in
/// cell-grid enumeration order. Under UnitDiskLinkModel these are exactly
/// the pairs with dist <= r (inclusive, compared in squared space).
template <int D>
std::vector<std::pair<std::size_t, std::size_t>> link_model_edges(
    std::span<const Point<D>> points, const Box<D>& box, const LinkModel& model) {
  model.validate_for(points.size());
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  const double radius = model.max_link_distance();
  if (points.size() < 2 || !(radius > 0.0)) return edges;
  const CellGrid<D> grid(points, box, radius);
  grid.for_each_pair_within(radius, [&](std::size_t i, std::size_t j, double d2) {
    if (model.symmetric_link(i, j, d2)) edges.emplace_back(i, j);
  });
  return edges;
}

/// Enumerates the directed arcs of the communication graph under `model`
/// (both orientations tested per candidate pair; symmetric models emit each
/// link as two arcs). Arc order follows the pair enumeration order with
/// u -> v before v -> u.
template <int D>
std::vector<DirectedEdge> link_model_arcs(std::span<const Point<D>> points, const Box<D>& box,
                                          const LinkModel& model) {
  model.validate_for(points.size());
  std::vector<DirectedEdge> arcs;
  const double radius = model.max_link_distance();
  if (points.size() < 2 || !(radius > 0.0)) return arcs;
  const CellGrid<D> grid(points, box, radius);
  grid.for_each_pair_within(radius, [&](std::size_t i, std::size_t j, double d2) {
    bool ij = false;
    bool ji = false;
    model.directed_link(i, j, d2, ij, ji);
    if (ij) arcs.push_back({i, j});
    if (ji) arcs.push_back({j, i});
  });
  return arcs;
}

/// CSR communication graph of the symmetric(-projection) edge set — what the
/// degree/hop metrics (graph/metrics.hpp) consume.
template <int D>
AdjacencyGraph build_link_communication_graph(std::span<const Point<D>> points,
                                              const Box<D>& box, const LinkModel& model) {
  const auto edges = link_model_edges<D>(points, box, model);
  return AdjacencyGraph(points.size(), edges);
}

/// Connectivity structure under `model` without materializing the graph: a
/// single grid sweep feeding a union-find plus a degree census.
///
/// Symmetric models: the undirected census, with the strong census
/// mirroring the weak one.
///
/// Directed models: the undirected fields describe the *bidirectional*
/// subgraph (the symmetric closure, i.e. the RangeAssignment rule), the
/// degree/isolated census counts bidirectional neighbors, and scc_count /
/// largest_scc_size census the directed graph via graph/scc.hpp — so
/// `strongly_connected()` answers the generalized connectivity question.
template <int D>
ComponentSummary analyze_link_components(std::span<const Point<D>> points, const Box<D>& box,
                                         const LinkModel& model) {
  model.validate_for(points.size());
  ComponentSummary summary;
  summary.node_count = points.size();
  if (points.empty()) return summary;

  const bool directed = model.symmetry() == LinkSymmetry::kDirected;
  UnionFind dsu(points.size());
  std::vector<std::size_t> degree(points.size(), 0);
  std::vector<DirectedEdge> arcs;

  const double radius = model.max_link_distance();
  if (points.size() >= 2 && radius > 0.0) {
    const CellGrid<D> grid(points, box, radius);
    grid.for_each_pair_within(radius, [&](std::size_t i, std::size_t j, double d2) {
      if (!directed) {
        if (model.symmetric_link(i, j, d2)) {
          dsu.unite(i, j);
          ++degree[i];
          ++degree[j];
        }
        return;
      }
      bool ij = false;
      bool ji = false;
      model.directed_link(i, j, d2, ij, ji);
      if (ij) arcs.push_back({i, j});
      if (ji) arcs.push_back({j, i});
      if (ij && ji) {
        dsu.unite(i, j);
        ++degree[i];
        ++degree[j];
      }
    });
  }

  summary.component_count = dsu.component_count();
  summary.largest_size = dsu.largest_component_size();
  for (std::size_t d : degree) {
    if (d == 0) ++summary.isolated_count;
  }
  if (directed) {
    const SccPartition scc = strongly_connected_components(points.size(), arcs);
    summary.scc_count = scc.component_count;
    summary.largest_scc_size = scc.largest_size;
  } else {
    summary.scc_count = summary.component_count;
    summary.largest_scc_size = summary.largest_size;
  }
  MANET_ENSURE(summary.largest_size >= 1 && summary.largest_size <= summary.node_count);
  MANET_ENSURE(summary.component_count >= 1 && summary.component_count <= summary.node_count);
  MANET_ENSURE(summary.isolated_count <= summary.node_count);
  // A bidirectional component lies inside one SCC, so the SCC partition is
  // never finer than the undirected one (and equals it for symmetric models).
  MANET_ENSURE(summary.scc_count <= summary.component_count &&
               (directed || summary.scc_count == summary.component_count));
  return summary;
}

}  // namespace manet
