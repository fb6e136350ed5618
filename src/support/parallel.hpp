#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/rng.hpp"

namespace manet {

/// Deterministic parallel Monte-Carlo engine.
///
/// Every trial loop in the library ("run k independent iterations, aggregate
/// the per-iteration values") runs through parallel_for_trials(). The engine
/// guarantees that the output is **bit-identical to the serial loop at any
/// thread count** (including 1), which it achieves with three rules:
///
///  1. **Substreams, not a shared stream**: trial i draws exclusively from
///     `substream(seed, i)` (support/rng.hpp), a pure function of the root
///     seed and the trial index. No trial's randomness depends on which
///     thread ran it, when it ran, or what the other trials consumed.
///  2. **Sharding**: trial indices are split into at most `threads`
///     contiguous chunks dispatched to a fixed-size pool; a chunk is just a
///     serial for-loop over its indices.
///  3. **Ordered results**: per-trial results are materialized into a
///     vector slot per trial and returned in trial-index order after the
///     batch completes — so a caller that folds them in that order (e.g.
///     fold_mtrm_outcomes) sees exactly the serial evaluation order, even
///     with non-commutative / non-associative reducers (floating-point sums
///     included).
///
/// The thread count comes from, in priority order: the per-call
/// `ParallelOptions::threads`, the programmatic set_max_parallelism()
/// override, the `MANET_THREADS` environment variable, and finally
/// `std::thread::hardware_concurrency()`. A thread count of 1 forces the
/// legacy serial path (no pool, no task machinery at all).
///
/// Exceptions: when trials throw, the engine rethrows the exception of the
/// *smallest-index* throwing trial — the one the serial loop would have
/// surfaced — after the batch has drained (the pool is never deadlocked or
/// poisoned by a throwing trial). Trials with larger indices than a known
/// failure may be skipped, exactly like a serial loop never reaches them.
///
/// Nesting is allowed (e.g. a figure bench fans out data points and each
/// point fans out its iterations): a thread waiting for its batch helps
/// execute queued tasks instead of blocking, so nested batches make progress
/// even when every pool worker is itself a waiter.

/// Resolved degree of parallelism (see priority order above). Always >= 1.
std::size_t max_parallelism() noexcept;

/// Programmatic override of the thread count; 0 restores the
/// MANET_THREADS / hardware_concurrency() default. Values are clamped to
/// [1, 256] like the environment variable. Intended for tests and for CLI
/// `--threads` flags; not synchronized with in-flight batches.
void set_max_parallelism(std::size_t threads) noexcept;

/// Per-call knobs for parallel_for_trials.
struct ParallelOptions {
  /// Concurrent runners for this call; 0 = max_parallelism().
  std::size_t threads = 0;
};

namespace detail {

/// Executes run_task(0) .. run_task(count - 1) on up to `threads` concurrent
/// runners (pool workers plus the calling thread, which helps while
/// waiting). `run_task` must not throw. Blocks until every task finished;
/// all task side effects happen-before the return.
void run_task_batch(std::size_t count, std::size_t threads,
                    const std::function<void(std::size_t)>& run_task);

/// Atomically lowers `current` to `candidate` when candidate is smaller.
void atomic_store_min(std::atomic<std::size_t>& current, std::size_t candidate) noexcept;

}  // namespace detail

/// Runs `fn(trial_index, rng)` for every trial in [0, trials), where `rng`
/// is `substream(seed, trial_index)`, and returns the per-trial results in
/// trial-index order. Bit-identical at any thread count; see the file-level
/// notes for the seeding/reduction/exception contract.
template <typename Fn>
auto parallel_for_trials(std::size_t trials, std::uint64_t seed, Fn&& fn,
                         const ParallelOptions& options = {})
    -> std::vector<std::invoke_result_t<Fn&, std::size_t, Rng&>> {
  using Result = std::invoke_result_t<Fn&, std::size_t, Rng&>;
  static_assert(!std::is_void_v<Result>,
                "parallel_for_trials requires a per-trial result; fold side "
                "effects into the returned value");

  std::vector<Result> results;
  if (trials == 0) return results;

  const std::size_t requested = options.threads != 0 ? options.threads : max_parallelism();
  const std::size_t threads = std::min(requested, trials);

  if (threads <= 1) {
    // Legacy serial path: same substreams, same order, no pool.
    results.reserve(trials);
    for (std::size_t trial = 0; trial < trials; ++trial) {
      Rng trial_rng = substream(seed, trial);
      results.push_back(fn(trial, trial_rng));
    }
    return results;
  }

  std::vector<std::optional<Result>> slots(trials);
  std::vector<std::exception_ptr> errors(trials);
  // Smallest trial index that has thrown so far; trials beyond it are
  // skipped (a serial loop would never have reached them).
  std::atomic<std::size_t> first_error{trials};

  // Shard [0, trials) into `threads` contiguous chunks of near-equal size.
  const std::size_t base = trials / threads;
  const std::size_t extra = trials % threads;
  const auto chunk_begin = [base, extra](std::size_t chunk) {
    return chunk * base + std::min(chunk, extra);
  };

  detail::run_task_batch(threads, threads, [&](std::size_t chunk) {
    const std::size_t begin = chunk_begin(chunk);
    const std::size_t end = chunk_begin(chunk + 1);
    for (std::size_t trial = begin; trial < end; ++trial) {
      if (trial > first_error.load(std::memory_order_relaxed)) continue;
      try {
        Rng trial_rng = substream(seed, trial);
        slots[trial].emplace(fn(trial, trial_rng));
      } catch (...) {
        errors[trial] = std::current_exception();
        detail::atomic_store_min(first_error, trial);
      }
    }
  });

  const std::size_t failed = first_error.load(std::memory_order_acquire);
  if (failed < trials) std::rethrow_exception(errors[failed]);

  results.reserve(trials);
  for (std::size_t trial = 0; trial < trials; ++trial) {
    results.push_back(std::move(*slots[trial]));
  }
  return results;
}

}  // namespace manet
