#include "exec/thread_pool.h"

#include "base/mutex.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

namespace ursa::exec
{

namespace
{

/// Effective parallelism; 0 = "not yet resolved from the environment".
/// atomic: read by every parallelFor caller, written by setThreadCount
/// from tests while workers may be mid-loop; relaxed is enough because
/// any racing readers see either the old or the new count, both valid.
std::atomic<int> g_threads{0};

int
threadsFromEnv()
{
    if (const char *v = std::getenv("URSA_THREADS")) {
        const int n = std::atoi(v);
        if (n >= 1)
            return n;
    }
    const unsigned hc = std::thread::hardware_concurrency();
    return hc ? static_cast<int>(hc) : 1;
}

} // namespace

int
threadCount()
{
    int t = g_threads.load(std::memory_order_relaxed);
    if (t == 0) {
        t = threadsFromEnv();
        g_threads.store(t, std::memory_order_relaxed);
    }
    return t;
}

void
setThreadCount(int n)
{
    g_threads.store(n < 1 ? 1 : n, std::memory_order_relaxed);
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool;
    return pool;
}

ThreadPool::~ThreadPool()
{
    // Move the worker handles out under the lock: joining must happen
    // unlocked (workers take mu_ to drain), but reading threads_
    // unlocked raced with a concurrent ensureWorkers — a gap the
    // thread-safety analysis flagged once threads_ became
    // URSA_GUARDED_BY(mu_) (regression: ThreadPoolTest.
    // EnsureWorkersDuringShutdownDoesNotRace).
    std::vector<std::thread> workers;
    {
        base::MutexLock lock(mu_);
        stop_ = true;
        workers.swap(threads_);
    }
    cv_.notify_all();
    for (std::thread &t : workers)
        t.join();
}

void
ThreadPool::ensureWorkers(int n)
{
    base::MutexLock lock(mu_);
    if (stop_)
        return; // shutting down: joined threads must not regrow
    while (static_cast<int>(threads_.size()) < n)
        threads_.emplace_back([this] { workerLoop(); });
}

void
ThreadPool::post(std::function<void()> task)
{
    {
        base::MutexLock lock(mu_);
        queue_.push_back(std::move(task));
    }
    cv_.notify_one();
}

int
ThreadPool::workers() const
{
    base::MutexLock lock(mu_);
    return static_cast<int>(threads_.size());
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            base::MutexLock lock(mu_);
            while (!stop_ && queue_.empty())
                cv_.wait(mu_);
            if (queue_.empty())
                return; // stop_ set and queue drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

namespace
{

/** Shared progress of one parallelFor call. */
struct LoopState
{
    /// atomic: the work-claiming counter every participant bumps;
    /// fetch_add is the claim itself, no lock can replace it.
    std::atomic<std::size_t> next{0};
    /// atomic: completion count read by the caller's wait predicate
    /// while workers increment it.
    std::atomic<std::size_t> done{0};
    std::size_t n = 0; // immutable after publication via post()
    const std::function<void(std::size_t)> *body = nullptr; // immutable
    base::Mutex mu;
    base::CondVar cv;
    std::exception_ptr error URSA_GUARDED_BY(mu);

    /**
     * Claim and run indices until none are left. Safe to call from
     * stale pool tasks after the loop finished: `next` only grows, so
     * late claims see i >= n and never touch `body`.
     */
    void
    drain() URSA_EXCLUDES(mu)
    {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= n)
                return;
            try {
                (*body)(i);
            } catch (...) {
                base::MutexLock lock(mu);
                if (!error)
                    error = std::current_exception();
            }
            if (done.fetch_add(1) + 1 == n) {
                base::MutexLock lock(mu); // pairs with the caller's wait
                cv.notify_all();
            }
        }
    }
};

} // namespace

void
parallelFor(std::size_t n, const std::function<void(std::size_t)> &body)
{
    if (n == 0)
        return;
    const std::size_t k =
        std::min<std::size_t>(n, static_cast<std::size_t>(threadCount()));
    if (k <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    auto st = std::make_shared<LoopState>();
    st->n = n;
    st->body = &body;

    ThreadPool &pool = ThreadPool::global();
    pool.ensureWorkers(static_cast<int>(k) - 1);
    for (std::size_t t = 0; t + 1 < k; ++t)
        pool.post([st] { st->drain(); });

    st->drain(); // the caller participates

    base::MutexLock lock(st->mu);
    while (st->done.load() != n)
        st->cv.wait(st->mu);
    if (st->error)
        std::rethrow_exception(st->error);
}

namespace
{

/** Shared progress of one parallelSweep call. */
struct SweepState
{
    explicit SweepState(std::size_t n) : stop(n), done(n, 0) {}

    base::Mutex mu;
    /// Lowest index known to end the serial sweep; n while none is.
    std::size_t stop URSA_GUARDED_BY(mu);
    /// What index `stop` threw, if it ended the sweep by throwing.
    std::exception_ptr error URSA_GUARDED_BY(mu);
    std::vector<char> done URSA_GUARDED_BY(mu);

    /** Index i ends the sweep: its stop rule fired, or it threw `e`. */
    void
    endAt(std::size_t i, std::exception_ptr e) URSA_EXCLUDES(mu)
    {
        base::MutexLock lock(mu);
        if (i < stop) {
            stop = i;
            error = std::move(e);
        }
    }
};

} // namespace

std::size_t
parallelSweep(std::size_t n, std::size_t span,
              const std::function<void(std::size_t)> &step,
              const std::function<bool(std::size_t)> &stopsAt)
{
    if (span == 0)
        throw std::invalid_argument("parallelSweep: span must be >= 1");
    SweepState st(n);
    parallelFor(n, [&](std::size_t i) {
        {
            base::MutexLock lock(st.mu);
            if (i > st.stop)
                return; // the serial sweep never reaches this step
        }
        try {
            step(i);
        } catch (...) {
            st.endAt(i, std::current_exception());
            return;
        }
        // Stop rules whose window (j - span, j] this step completed. A
        // failed step is never marked done, so no rule reads its slot.
        std::vector<std::size_t> ready;
        {
            base::MutexLock lock(st.mu);
            st.done[i] = 1;
            for (std::size_t j = i; j < n && j < i + span; ++j) {
                bool complete = true;
                for (std::size_t q = j + 1 > span ? j + 1 - span : 0;
                     q <= j; ++q)
                    complete = complete && st.done[q];
                if (complete)
                    ready.push_back(j);
            }
        }
        for (std::size_t j : ready) {
            try {
                if (stopsAt(j))
                    st.endAt(j, nullptr);
            } catch (...) {
                st.endAt(j, std::current_exception());
            }
        }
    });
    base::MutexLock lock(st.mu);
    if (st.error)
        std::rethrow_exception(st.error);
    return st.stop == n ? n : st.stop + 1;
}

} // namespace ursa::exec
