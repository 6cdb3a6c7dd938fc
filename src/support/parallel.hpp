// Thread-pool sweep runner for Monte-Carlo / parameter sweeps.
//
// The discrete-event simulator itself is single-threaded and
// deterministic per seed (§III-B contract, see net/simnet.hpp); what
// parallelises is the *sweep*: independent Engine instances, one per
// parameter point or seed. parallel_sweep runs job(i) for i in [0, n)
// across a pool of worker threads and collects the results in index
// order, so the output is byte-identical to the sequential loop no
// matter how the scheduler interleaves the workers.
//
// Each job runs entirely on one worker thread; thread_local accounting
// (payload allocation counters, the signature-verdict cache) therefore
// stays coherent within a job as long as per-job deltas are measured
// inside the job itself.
//
// Inside one Engine, parallel_for serves a single stage: the selection
// phase's PoW search (EngineOptions::engine_threads). Its results are
// emitted on the engine thread in stage_order.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace cyc::support {

/// Worker count: `requested` if nonzero, else the hardware concurrency
/// (at least 1).
inline unsigned sweep_threads(unsigned requested = 0) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

/// Run `job(i)` for every i in [0, n) on up to `threads` workers,
/// discarding results. Jobs must only write state disjoint by index.
/// Exceptions thrown by a job propagate to the caller after all workers
/// have drained. With `threads <= 1` the loop runs inline on the calling
/// thread, so thread_local accounting (payload allocation counters, the
/// signature-verdict cache) is untouched — this is the default engine
/// configuration and the reference behaviour the parallel path must
/// reproduce.
template <typename Job>
void parallel_for(std::size_t n, Job&& job, unsigned threads = 1) {
  if (n == 0) return;
  const unsigned workers = static_cast<unsigned>(
      std::min<std::size_t>(threads > 0 ? threads : 1, n));
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) job(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mu;

  auto worker = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        job(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned t = 0; t < workers; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

/// Run `job(i)` for every i in [0, n) on up to `threads` workers and
/// return the results in index order. Jobs must be independent — they
/// must not share mutable state (each should own its Engine / rng).
/// Exceptions thrown by a job propagate to the caller after all workers
/// have drained.
template <typename Job>
auto parallel_sweep(std::size_t n, Job&& job, unsigned threads = 0)
    -> std::vector<std::invoke_result_t<Job&, std::size_t>> {
  using Result = std::invoke_result_t<Job&, std::size_t>;
  // std::vector<bool> packs results as bits, so concurrent writes to
  // results[i] would race on shared bytes. Return a struct or int instead.
  static_assert(!std::is_same_v<Result, bool>,
                "parallel_sweep cannot return bool (vector<bool> bit-packing "
                "races across workers); wrap the flag in a struct or use int");
  std::vector<Result> results(n);
  parallel_for(n, [&](std::size_t i) { results[i] = job(i); },
               sweep_threads(threads));
  return results;
}

/// Test-only switch for stage_order below. Production code never sets
/// it; the parallel-equivalence test flips it to prove its byte-compare
/// would actually catch a merge-order perturbation (non-vacuity twin).
inline std::atomic<bool>& stage_order_perturbed() {
  static std::atomic<bool> flag{false};
  return flag;
}

/// Emit order for a two-stage (parallel compute, sequential emit)
/// stage: the indices [0, n) in the canonical node order the sequential
/// engine uses. An emit loop that follows a parallel compute stage must
/// iterate in this order so message send order — and therefore the
/// simulator's delay-RNG draw order — is independent of worker
/// scheduling. When the test hook is set it stands in for a
/// scheduling-dependent merge: the order is reversed and the result of
/// index 0 is lost.
inline std::vector<std::size_t> stage_order(std::size_t n) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  if (stage_order_perturbed().load(std::memory_order_relaxed)) {
    std::reverse(order.begin(), order.end());
    if (!order.empty()) order.pop_back();
  }
  return order;
}

}  // namespace cyc::support
