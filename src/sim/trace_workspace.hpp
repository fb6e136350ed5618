#pragma once

#include <cstddef>
#include <vector>

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
///   - reused across calls: the engine's dense-Prim fringe, cell grid,
///     candidate-edge and tree buffers, the union-find and the breakpoint
///     scratch;
///   - every step is a from-scratch EmstEngine solve that resets each value it
///     reads, so results never depend on prior steps or prior traces;
///   - threading: a workspace is single-threaded state. The parallel MTRM
///     engine gives each iteration its own workspace (core/mtrm.hpp); never
///     share one across concurrent traces.
template <int D>
struct TraceWorkspace {
  /// The per-step EMST solver of run_mobile_trace (topology/emst_kinetic.hpp).
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

}  // namespace manet
