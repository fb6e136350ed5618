#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "geometry/box.hpp"
#include "geometry/point.hpp"
#include "graph/union_find.hpp"
#include "topology/critical_range.hpp"
#include "topology/emst_kinetic.hpp"

namespace manet {

/// Shim kept for perfbench; delete with the next benchmark change. Nothing
/// fills a buffer of these.
struct CurveMergeEvent {
  double range;
  double delta;
};

/// Reusable scratch for one mobile-simulation iteration: everything the
/// 10 000-step loop of run_mobile_trace needs besides the retained per-step
/// breakpoint curves. After the first few steps have grown the buffers
/// (warm-up), a mobility step performs O(1) heap allocations — the exact-size
/// breakpoint copy the trace keeps — instead of a fresh grid, edge list,
/// union-find and curve per step.
///
/// Reuse contract:
///   - reused across calls: the kinetic engine's cell grid, candidate-edge
///     and tree buffers, the union-find and the breakpoint scratch;
///   - the kinetic engine deliberately carries its candidate set, cell grid
///     and previous positions between the steps of one trace — that reuse is
///     the speedup — but its repair invariant makes every step's output
///     provably bit-identical to a from-scratch batch solve
///     (topology/emst_kinetic.hpp), so results never depend on prior steps
///     or prior traces (start() re-baselines everything);
///   - threading: a workspace is single-threaded state. The parallel MTRM
///     engine gives each iteration its own workspace (core/mtrm.hpp); never
///     share one across concurrent traces.
template <int D>
struct TraceWorkspace {
  KineticEmstEngine<D> kinetic;
  UnionFind dsu{0};
  std::vector<LargestComponentCurve::Breakpoint> breakpoints;
  /// Shim kept for perfbench; delete with the next benchmark change. Always
  /// empty: run_mobile_trace does not use it.
  std::vector<CurveMergeEvent> merge_events;
  /// Pooled position buffer run_mobile_trace deploys into and steps the
  /// mobility model through — reusing it across the traces of a sweep saves
  /// one n-point allocation per trace. Overwritten by every deployment, so
  /// no state leaks between traces.
  std::vector<Point<D>> positions;
};

/// Component curve of one trace step through the workspace's kinetic engine:
/// `first_step` starts a new trace (full build + re-baseline), subsequent
/// calls repair incrementally. The returned curve is bit-identical to a batch
/// EmstEngine solve's (topology/emst_kinetic.hpp explains why).
template <int D>
LargestComponentCurve kinetic_component_curve(std::span<const Point<D>> points,
                                              const Box<D>& box, TraceWorkspace<D>& workspace,
                                              bool first_step) {
  const auto edges = first_step ? workspace.kinetic.start(points, box)
                                : workspace.kinetic.advance(points);
  return LargestComponentCurve(points.size(), edges, workspace.dsu, workspace.breakpoints);
}

}  // namespace manet
