#pragma once

#include <cstdio>
#include <cstdlib>

/// Runtime contract checks for internal invariants on hot paths.
///
/// Two tiers of checking coexist in this library:
///
///  * `MANET_EXPECTS` / `MANET_ENSURES` (support/error.hpp) guard the public
///    API surface. They throw `ContractViolation`, are always compiled in,
///    and protect long-running experiments from silently accepting bad input.
///
///  * `MANET_EXPECT` / `MANET_ENSURE` / `MANET_INVARIANT` (this header) guard
///    *internal* algorithmic invariants the paper's math depends on —
///    occupancy cell counts summing to n, probabilities staying inside
///    [0, 1], bisection brackets staying ordered, adjacency symmetry,
///    union-find size bookkeeping, mobility positions staying inside
///    [0, l]^d. They sit inside loops executed millions of times, so they
///    abort (debugger- and death-test-friendly) instead of throwing, are
///    active in Debug and sanitizer builds, and compile to *nothing* in
///    Release: the guarded expression is not even evaluated
///    (Contracts.CompiledOutInRelease in tests/contracts_test.cpp).
///
/// Activation: CMake defines `MANET_ENABLE_CONTRACTS=1` whenever
/// `MANET_SANITIZE` is non-empty; otherwise the checks follow NDEBUG (on in
/// Debug, off in Release). Define `MANET_ENABLE_CONTRACTS=0` to force them
/// off everywhere.
#if !defined(MANET_ENABLE_CONTRACTS)
#if defined(NDEBUG)
#define MANET_ENABLE_CONTRACTS 0
#else
#define MANET_ENABLE_CONTRACTS 1
#endif
#endif

namespace manet::detail {

[[noreturn]] inline void contract_failed(const char* kind, const char* condition,
                                         const char* file, unsigned line) {
  // fprintf (not iostreams): usable from any build flavor, async-signal-ish,
  // and the message lands on stderr before abort() so gtest death tests and
  // sanitizer runtimes both capture it.
  std::fprintf(stderr, "%s:%u: MANET contract violated: %s (%s)\n", file, line, condition,
               kind);
  std::fflush(stderr);
  // manet-lint: allow(process-control) — a violated contract means corrupted
  // state; abort() is what gtest death tests and sanitizers expect to catch.
  std::abort();
}

}  // namespace manet::detail

#if MANET_ENABLE_CONTRACTS

#define MANET_CONTRACT_CHECK_(kind, cond)                                        \
  do {                                                                           \
    if (!(cond)) {                                                               \
      ::manet::detail::contract_failed(kind, #cond, __FILE__, __LINE__);         \
    }                                                                            \
  } while (false)

/// Internal precondition (checked entry state of a hot-path routine).
#define MANET_EXPECT(cond) MANET_CONTRACT_CHECK_("precondition", cond)
/// Internal postcondition (checked exit state / result of a routine).
#define MANET_ENSURE(cond) MANET_CONTRACT_CHECK_("postcondition", cond)
/// Mid-algorithm invariant (checked loop / data-structure consistency).
#define MANET_INVARIANT(cond) MANET_CONTRACT_CHECK_("invariant", cond)

#else  // contracts compiled out: the condition is parsed but never evaluated.

#define MANET_CONTRACT_NOOP_(cond) static_cast<void>(sizeof((cond) ? 1 : 0))
#define MANET_EXPECT(cond) MANET_CONTRACT_NOOP_(cond)
#define MANET_ENSURE(cond) MANET_CONTRACT_NOOP_(cond)
#define MANET_INVARIANT(cond) MANET_CONTRACT_NOOP_(cond)

#endif  // MANET_ENABLE_CONTRACTS
