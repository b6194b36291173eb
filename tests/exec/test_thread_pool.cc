/** @file Unit tests for the ursa::exec parallel execution layer. */

#include "exec/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace
{

using ursa::exec::parallelFor;
using ursa::exec::parallelMap;
using ursa::exec::setThreadCount;
using ursa::exec::threadCount;

/** Restore the ambient thread count after each test. */
class ThreadPoolTest : public ::testing::Test
{
  protected:
    void SetUp() override { saved_ = threadCount(); }
    void TearDown() override { setThreadCount(saved_); }

  private:
    int saved_ = 1;
};

TEST_F(ThreadPoolTest, ThreadCountOverride)
{
    setThreadCount(3);
    EXPECT_EQ(threadCount(), 3);
    setThreadCount(0); // clamps to 1
    EXPECT_EQ(threadCount(), 1);
}

TEST_F(ThreadPoolTest, EveryIndexRunsExactlyOnce)
{
    for (int threads : {1, 2, 8}) {
        setThreadCount(threads);
        const std::size_t n = 1000;
        std::vector<std::atomic<int>> hits(n);
        parallelFor(n, [&](std::size_t i) { hits[i].fetch_add(1); });
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "i=" << i
                                         << " threads=" << threads;
    }
}

TEST_F(ThreadPoolTest, SingleThreadRunsInOrder)
{
    setThreadCount(1);
    std::vector<std::size_t> order;
    parallelFor(10, [&](std::size_t i) { order.push_back(i); });
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST_F(ThreadPoolTest, EmptyLoopIsANoop)
{
    setThreadCount(8);
    parallelFor(0, [&](std::size_t) { FAIL(); });
}

TEST_F(ThreadPoolTest, ParallelMapPreservesIndexOrder)
{
    setThreadCount(8);
    const auto out = parallelMap<int>(
        257, [](std::size_t i) { return static_cast<int>(i * i); });
    ASSERT_EQ(out.size(), 257u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i * i));
}

TEST_F(ThreadPoolTest, ExceptionsPropagateAfterDrain)
{
    setThreadCount(4);
    std::atomic<int> completed{0};
    EXPECT_THROW(parallelFor(100,
                             [&](std::size_t i) {
                                 if (i == 13)
                                     throw std::runtime_error("boom");
                                 completed.fetch_add(1);
                             }),
                 std::runtime_error);
    // Every non-throwing index still ran: the loop drains, then throws.
    EXPECT_EQ(completed.load(), 99);
}

TEST_F(ThreadPoolTest, NestedLoopsDoNotDeadlock)
{
    setThreadCount(4);
    std::atomic<int> total{0};
    parallelFor(8, [&](std::size_t) {
        parallelFor(8, [&](std::size_t) { total.fetch_add(1); });
    });
    EXPECT_EQ(total.load(), 64);
}

TEST_F(ThreadPoolTest, NestedInnerLoopSpreadsAcrossThreads)
{
    // The step-parallel sweeps rely on this: a body of an outer loop
    // that runs an inner loop gets its inner indices spread over the
    // pool, not run serially on the thread that owns the outer index.
    setThreadCount(4);
    std::vector<std::thread::id> ranOn(64);
    parallelFor(1, [&](std::size_t) {
        parallelFor(ranOn.size(), [&](std::size_t i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            ranOn[i] = std::this_thread::get_id();
        });
    });
    const std::set<std::thread::id> threads(ranOn.begin(), ranOn.end());
    EXPECT_GT(threads.size(), 1u);
}

TEST_F(ThreadPoolTest, MoreIndicesThanThreadsBalances)
{
    setThreadCount(2);
    std::atomic<long> sum{0};
    parallelFor(10000,
                [&](std::size_t i) { sum.fetch_add(static_cast<long>(i)); });
    EXPECT_EQ(sum.load(), 10000L * 9999 / 2);
}

TEST_F(ThreadPoolTest, ResultsIndependentOfThreadCount)
{
    // The determinism contract: per-index work seeded by the index
    // yields identical results for any thread count.
    auto compute = [](std::size_t i) {
        unsigned long long x = 0x9e3779b97f4a7c15ULL * (i + 1);
        for (int r = 0; r < 100; ++r)
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        return x;
    };
    setThreadCount(1);
    const auto serial = parallelMap<unsigned long long>(500, compute);
    setThreadCount(8);
    const auto parallel = parallelMap<unsigned long long>(500, compute);
    EXPECT_EQ(serial, parallel);
}

TEST_F(ThreadPoolTest, EnsureWorkersDuringShutdownDoesNotRace)
{
    // Regression for a gap the thread-safety annotations surfaced: the
    // destructor used to iterate threads_ without the lock while a
    // pool task could still be inside ensureWorkers() growing it —
    // a data race on the vector, plus freshly spawned workers that
    // were never joined (std::terminate at handle destruction). The
    // fixed destructor moves the handles out under the lock and
    // ensureWorkers refuses to grow a stopping pool; under the TSan CI
    // leg the old code fails this test.
    for (int rep = 0; rep < 25; ++rep) {
        auto pool = std::make_unique<ursa::exec::ThreadPool>();
        ursa::exec::ThreadPool *p = pool.get();
        std::atomic<bool> started{false};
        p->post([p, &started] {
            started = true;
            for (int n = 2; n <= 8; ++n)
                p->ensureWorkers(n); // races with ~ThreadPool below
        });
        p->ensureWorkers(1);
        while (!started.load())
            std::this_thread::yield();
        pool.reset(); // join while the task may still be growing
    }
}

/**
 * The serial sweep parallelSweep must reproduce: run steps in order,
 * stop after the first index whose rule fires.
 */
std::size_t
serialSweep(std::size_t n, const std::function<bool(std::size_t)> &stopsAt)
{
    for (std::size_t i = 0; i < n; ++i)
        if (stopsAt(i))
            return i + 1;
    return n;
}

TEST_F(ThreadPoolTest, SweepRunsTheSerialPrefix)
{
    // Stop rule over the pair (i-1, i), like the Welch convergence
    // test. With v(i) = 7i mod 11 the first pair summing to 12 is
    // (8, 9), so n = 40 stops after 10 steps and n <= 9 never stops.
    const auto value = [](std::size_t i) { return (i * 7) % 11; };
    for (std::size_t n : {1u, 2u, 9u, 40u}) {
        for (int threads : {1, 3, 8}) {
            setThreadCount(threads);
            std::vector<std::atomic<int>> ran(n);
            std::vector<std::size_t> slot(n, 0);
            const auto stops = [&](std::size_t i) {
                return i > 0 && slot[i - 1] + slot[i] == 12;
            };
            const std::size_t taken = ursa::exec::parallelSweep(
                n, 2,
                [&](std::size_t i) {
                    ran[i].fetch_add(1);
                    slot[i] = value(i);
                },
                stops);
            const std::size_t expected = serialSweep(n, [&](std::size_t i) {
                return i > 0 && value(i - 1) + value(i) == 12;
            });
            EXPECT_EQ(taken, expected) << "n=" << n << " threads=" << threads;
            for (std::size_t i = 0; i < n; ++i) {
                if (i < taken)
                    EXPECT_EQ(ran[i].load(), 1) << "i=" << i;
                else
                    EXPECT_LE(ran[i].load(), 1) << "i=" << i;
            }
            if (threads == 1) {
                // Serially, no step past the stop runs at all.
                for (std::size_t i = taken; i < n; ++i)
                    EXPECT_EQ(ran[i].load(), 0) << "i=" << i;
            }
        }
    }
}

TEST_F(ThreadPoolTest, SweepRethrowsOnlyWhatTheSerialLoopWould)
{
    for (int threads : {1, 3, 8}) {
        setThreadCount(threads);
        // A step past the stop throws: the serial loop never runs it.
        EXPECT_EQ(ursa::exec::parallelSweep(
                      20, 1,
                      [](std::size_t i) {
                          if (i >= 5)
                              throw std::runtime_error("speculative");
                      },
                      [](std::size_t i) { return i == 3; }),
                  4u);
        // A step before the stop throws: the first one in index order
        // is rethrown, whichever thread hit its exception first.
        try {
            ursa::exec::parallelSweep(
                20, 1,
                [](std::size_t i) {
                    if (i == 6 || i == 9)
                        throw std::runtime_error(std::to_string(i));
                },
                [](std::size_t i) { return i == 15; });
            ADD_FAILURE() << "no exception";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "6");
        }
    }
    EXPECT_THROW(ursa::exec::parallelSweep(
                     3, 0, [](std::size_t) {},
                     [](std::size_t) { return false; }),
                 std::invalid_argument);
}

} // namespace
