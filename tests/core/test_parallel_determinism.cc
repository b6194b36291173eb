/**
 * @file
 * Regression tests for the parallel execution layer's determinism
 * contract: exploreApp must produce byte-identical profiles for any
 * URSA_THREADS setting and across repeated runs with the same seed,
 * because every parallel unit owns its own Cluster and seeds. The same
 * holds one level down, for the step-parallel sweeps of one service
 * (profileBackpressureThreshold, exploreService): results and raised
 * checks equal the serial sweep's at every thread count.
 */

#include "core/bp_profiler.h"
#include "core/explorer.h"
#include "core/profile_io.h"
#include "check/check.h"
#include "exec/thread_pool.h"

#include "toy_app.h"

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace
{

using namespace ursa;
using namespace ursa::core;
using sim::kSec;

ExplorationOptions
fastOptions()
{
    ExplorationOptions opts;
    opts.window = 10 * kSec;
    opts.windowsPerLevel = 5;
    opts.seed = 5;
    opts.bpOptions.stepDuration = 40 * kSec;
    opts.bpOptions.sampleWindow = 5 * kSec;
    opts.bpOptions.maxSteps = 10;
    return opts;
}

std::string
exploredBytes(int threads)
{
    exec::setThreadCount(threads);
    ExplorationController ctl(fastOptions());
    const AppProfile profile = ctl.exploreApp(tests::makeToyApp());
    std::ostringstream out;
    saveAppProfile(profile, out);
    return out.str();
}

class ExploreDeterminism : public ::testing::Test
{
  protected:
    void SetUp() override { saved_ = exec::threadCount(); }
    void TearDown() override { exec::setThreadCount(saved_); }

  private:
    int saved_ = 1;
};

TEST_F(ExploreDeterminism, ProfileIdenticalAcrossThreadCounts)
{
    const std::string serial = exploredBytes(1);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, exploredBytes(8));
    EXPECT_EQ(serial, exploredBytes(3));
}

TEST_F(ExploreDeterminism, ProfileIdenticalAcrossRepeatedRuns)
{
    EXPECT_EQ(exploredBytes(8), exploredBytes(8));
}

/** A violation as comparable text: component, message, line. */
std::vector<std::string>
captured(const check::ScopedCapture &trap)
{
    std::vector<std::string> out;
    for (const check::Violation &v : trap.violations())
        out.push_back(std::string(v.component) + ": " + v.message + " @" +
                      std::to_string(v.line));
    return out;
}

/** Run `sweep` under a capture at `threads`; returns what it caught. */
template <typename Result>
std::pair<Result, std::vector<std::string>>
sweepAt(int threads, const std::function<Result()> &sweep)
{
    exec::setThreadCount(threads);
    check::ScopedCapture trap;
    Result r = sweep();
    return {std::move(r), captured(trap)};
}

void
expectSameBp(const BpProfileResult &a, const BpProfileResult &b)
{
    EXPECT_EQ(a.threshold, b.threshold);
    EXPECT_EQ(a.converged, b.converged);
    EXPECT_EQ(a.timeSpent, b.timeSpent);
    ASSERT_EQ(a.steps.size(), b.steps.size());
    for (std::size_t k = 0; k < a.steps.size(); ++k) {
        SCOPED_TRACE("step " + std::to_string(k));
        const BpStep &x = a.steps[k];
        const BpStep &y = b.steps[k];
        EXPECT_EQ(x.cpuLimit, y.cpuLimit);
        EXPECT_EQ(x.proxyP99Us, y.proxyP99Us);
        EXPECT_EQ(x.testedP99Us, y.testedP99Us);
        EXPECT_EQ(x.utilization, y.utilization);
        EXPECT_EQ(x.attribution.proxySpans, y.attribution.proxySpans);
        EXPECT_EQ(x.attribution.testedSpans, y.attribution.testedSpans);
        EXPECT_EQ(x.attribution.proxyQueueUs, y.attribution.proxyQueueUs);
        EXPECT_EQ(x.attribution.proxyServiceUs,
                  y.attribution.proxyServiceUs);
        EXPECT_EQ(x.attribution.proxyBlockedUs,
                  y.attribution.proxyBlockedUs);
        EXPECT_EQ(x.attribution.testedQueueUs,
                  y.attribution.testedQueueUs);
        EXPECT_EQ(x.attribution.testedServiceUs,
                  y.attribution.testedServiceUs);
    }
}

void
expectSameService(const ServiceProfile &a, const ServiceProfile &b)
{
    EXPECT_EQ(a.samples, b.samples);
    EXPECT_EQ(a.exploreTime, b.exploreTime);
    ASSERT_EQ(a.levels.size(), b.levels.size());
    for (std::size_t l = 0; l < a.levels.size(); ++l) {
        SCOPED_TRACE("level " + std::to_string(l));
        EXPECT_EQ(a.levels[l].replicas, b.levels[l].replicas);
        EXPECT_EQ(a.levels[l].cpuUtilization, b.levels[l].cpuUtilization);
        EXPECT_EQ(a.levels[l].loadPerReplica, b.levels[l].loadPerReplica);
        EXPECT_EQ(a.levels[l].latency, b.levels[l].latency);
    }
}

BpProfileResult
profileWorker(int maxSteps)
{
    const auto app = tests::makeToyApp();
    BpProfilerOptions opts = fastOptions().bpOptions;
    opts.maxSteps = maxSteps;
    return profileBackpressureThreshold(app, app.serviceIndex("worker"),
                                        {80.0, 0.0}, 11, opts);
}

TEST_F(ExploreDeterminism, BpSweepConvergingEarlyIdenticalAcrossThreads)
{
    const auto sweep = [] { return profileWorker(10); };
    const auto serial = sweepAt<BpProfileResult>(1, sweep);
    // The case under test: the stop lands inside the candidate steps,
    // so wider thread counts measure speculative steps past it.
    ASSERT_TRUE(serial.first.converged);
    ASSERT_LT(serial.first.steps.size(), 9u);
    for (int threads : {3, 8}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        const auto par = sweepAt<BpProfileResult>(threads, sweep);
        expectSameBp(serial.first, par.first);
        EXPECT_EQ(serial.second, par.second);
    }
}

TEST_F(ExploreDeterminism, BpSweepHittingMaxStepsIdenticalAcrossThreads)
{
    const auto sweep = [] { return profileWorker(3); };
    const auto serial = sweepAt<BpProfileResult>(1, sweep);
    ASSERT_FALSE(serial.first.converged);
    ASSERT_EQ(serial.first.steps.size(), 3u);
    for (int threads : {3, 8}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        const auto par = sweepAt<BpProfileResult>(threads, sweep);
        expectSameBp(serial.first, par.first);
        EXPECT_EQ(serial.second, par.second);
    }
}

/** exploreService of the toy worker; `tweak` adjusts the options. */
ServiceProfile
exploreWorker(double bpThreshold, const PercentileGrid &grid,
              const std::function<void(ExplorationOptions &)> &tweak)
{
    const auto app = tests::makeToyApp();
    ExplorationOptions opts = fastOptions();
    tweak(opts);
    const ExplorationController ctl(opts);
    const int worker = app.serviceIndex("worker");
    return ctl.exploreService(app, worker, bpThreshold,
                              ctl.localRates(app, worker), grid);
}

TEST_F(ExploreDeterminism, ExploreStoppingOnThresholdIdenticalAcrossThreads)
{
    // Ten candidate replica counts; the backpressure threshold stops
    // the sweep after a few of them.
    const auto sweep = [] {
        return exploreWorker(0.3, defaultGrid(), [](ExplorationOptions &o) {
            o.initialUtilization = 0.04;
        });
    };
    const auto serial = sweepAt<ServiceProfile>(1, sweep);
    ASSERT_FALSE(serial.first.levels.empty());
    ASSERT_GT(serial.first.levels.back().replicas, 1);
    // The stopping step is counted, not recorded.
    ASSERT_EQ(serial.first.samples, static_cast<int>(
                                        serial.first.levels.size() + 1) *
                                        fastOptions().windowsPerLevel);
    for (int threads : {3, 8}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        const auto par = sweepAt<ServiceProfile>(threads, sweep);
        expectSameService(serial.first, par.first);
        EXPECT_EQ(serial.second, par.second);
    }
}

TEST_F(ExploreDeterminism, ExploreDownToOneReplicaIdenticalAcrossThreads)
{
    // A non-monotone percentile grid trips the entry audit on the
    // calling thread; the capture must see it once per run whatever
    // the thread count, and the sweep itself must still complete.
    const PercentileGrid grid = {50.0, 99.0, 90.0};
    const auto sweep = [&grid] {
        return exploreWorker(1.0, grid, [](ExplorationOptions &o) {
            o.initialUtilization = 0.1;
        });
    };
    const auto serial = sweepAt<ServiceProfile>(1, sweep);
    ASSERT_GE(serial.first.levels.size(), 3u);
    ASSERT_EQ(serial.first.levels.back().replicas, 1);
    ASSERT_EQ(serial.second.size(), 1u);
    for (int threads : {3, 8}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        const auto par = sweepAt<ServiceProfile>(threads, sweep);
        expectSameService(serial.first, par.first);
        EXPECT_EQ(serial.second, par.second);
    }
}

} // namespace
