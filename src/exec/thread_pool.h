/**
 * @file
 * ursa::exec — the parallel execution layer for independent
 * simulations. A deliberately simple, work-stealing-free thread pool
 * plus `parallelFor` / `parallelMap` primitives built on dynamic index
 * claiming with caller participation.
 *
 * Determinism contract: a parallel unit (one index of a parallelFor)
 * must own all of its mutable state — its own Cluster, its own RNG
 * seeded from the index — and write results only into its own slot.
 * Under that contract results are bit-identical to the serial run for
 * any thread count, because thread scheduling only decides *who* runs
 * an index, never *what* the index computes.
 *
 * `URSA_THREADS` (default: hardware concurrency) sets the effective
 * parallelism; `setThreadCount` overrides it programmatically (used by
 * the determinism regression tests). Nested parallelFor calls are safe:
 * the caller always participates in its own loop and completion is
 * tracked per index, not per pool task, so a loop can finish even when
 * every pool worker is busy elsewhere.
 */

#ifndef URSA_EXEC_THREAD_POOL_H
#define URSA_EXEC_THREAD_POOL_H

#include "base/mutex.h"
#include "base/thread_annotations.h"

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

namespace ursa::exec
{

/**
 * Effective parallelism: `URSA_THREADS` if set (>= 1), else hardware
 * concurrency. Read once, then cached; setThreadCount overrides.
 */
int threadCount();

/** Override the effective parallelism (n >= 1). */
void setThreadCount(int n);

/** Shared worker pool; grows on demand up to the requested size. */
class ThreadPool
{
  public:
    /** The process-wide pool used by parallelFor/parallelMap. */
    static ThreadPool &global();

    ~ThreadPool() URSA_EXCLUDES(mu_);

    /** Ensure at least `n` worker threads exist. */
    void ensureWorkers(int n) URSA_EXCLUDES(mu_);

    /** Enqueue a task for any worker. */
    void post(std::function<void()> task) URSA_EXCLUDES(mu_);

    int workers() const URSA_EXCLUDES(mu_);

  private:
    void workerLoop() URSA_EXCLUDES(mu_);

    mutable base::Mutex mu_;
    base::CondVar cv_;
    std::deque<std::function<void()>> queue_ URSA_GUARDED_BY(mu_);
    std::vector<std::thread> threads_ URSA_GUARDED_BY(mu_);
    bool stop_ URSA_GUARDED_BY(mu_) = false;
};

/**
 * Run `body(i)` for every i in [0, n), using up to threadCount()
 * threads (the caller participates). Blocks until every index has
 * completed. The first exception thrown by any index is rethrown in
 * the caller after the loop drains. With threadCount() == 1 the loop
 * runs serially, in order, on the calling thread.
 */
void parallelFor(std::size_t n,
                 const std::function<void(std::size_t)> &body);

/**
 * Step-parallel form of the serial sweep
 *
 *   for (i = 0; i < n; ++i) { step(i); if (stopsAt(i)) break; }
 *
 * for sweeps whose steps are independent parallel units (own state,
 * index-derived seeds, results written to their own slot) and whose
 * stop rule is a pure function of the last `span` steps: stopsAt(i)
 * may read the results of steps (i - span, i] only. Steps run through
 * one parallelFor, so indices are claimed in increasing order; an
 * index past an already-observed stop is skipped, and each stop rule
 * is evaluated at most once (exactly once for each step the serial
 * loop completes), as soon as its window of steps has completed, on
 * whichever thread completed it, concurrently with other steps and
 * stop rules.
 *
 * Returns the serial loop's step count: the first stopping index + 1,
 * or n. Steps [0, count) all ran; later slots may hold speculative
 * results the caller must ignore. If the serial loop would have
 * thrown, the same exception is rethrown (the one at the first step
 * in index order); exceptions of speculative steps past the stop are
 * dropped. With threadCount() == 1 this is exactly the serial loop.
 * Throws std::invalid_argument when span == 0.
 */
std::size_t parallelSweep(std::size_t n, std::size_t span,
                          const std::function<void(std::size_t)> &step,
                          const std::function<bool(std::size_t)> &stopsAt);

/**
 * Parallel map: out[i] = fn(i) for i in [0, n), same execution model
 * as parallelFor. T must be default-constructible and movable.
 */
template <typename T, typename F>
std::vector<T>
parallelMap(std::size_t n, F &&fn)
{
    std::vector<T> out(n);
    parallelFor(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
}

} // namespace ursa::exec

#endif // URSA_EXEC_THREAD_POOL_H
