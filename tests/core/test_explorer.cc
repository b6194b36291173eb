/**
 * @file
 * Tests of the Fig.-3 harness, the backpressure profiler, and the
 * Algorithm-1 exploration controller, on the toy application with
 * fast (seconds-scale) windows.
 */

#include "core/bp_profiler.h"
#include "core/explorer.h"
#include "core/harness.h"

#include "toy_app.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace
{

using namespace ursa;
using namespace ursa::core;
using sim::kMin;
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

TEST(Harness, DrivesOnlyHandledClasses)
{
    const auto app = tests::makeToyApp();
    std::vector<double> rates = {80.0, 0.0};
    auto h = makeIsolatedHarness(app, app.serviceIndex("worker"), rates,
                                 2, 3);
    h.client->start(0);
    h.cluster->run(kMin);
    const auto &m = h.cluster->metrics();
    EXPECT_NEAR(m.arrivalRate(h.testedId, 0, 0, kMin), 80.0, 8.0);
    EXPECT_DOUBLE_EQ(m.arrivalRate(h.testedId, 1, 0, kMin), 0.0);
}

TEST(Harness, MqServiceGetsMqIngress)
{
    const auto app = tests::makeToyApp();
    std::vector<double> rates = {0.0, 20.0};
    auto h = makeIsolatedHarness(app, app.serviceIndex("mlsvc"), rates,
                                 2, 3);
    h.client->start(0);
    h.cluster->run(kMin);
    // Latency samples recorded for the MQ consumer include queue wait;
    // just verify messages flow.
    const auto s =
        h.cluster->metrics().tierLatency(h.testedId, 1).collect(0, kMin);
    EXPECT_GT(s.count(), 500u);
    EXPECT_GT(s.percentile(50.0), 40000.0); // ~50 ms compute
}

TEST(Harness, RateArityValidated)
{
    const auto app = tests::makeToyApp();
    EXPECT_THROW(makeIsolatedHarness(app, 0, {1.0}, 1, 1),
                 std::invalid_argument);
}

TEST(BpProfiler, FindsThresholdForRpcService)
{
    const auto app = tests::makeToyApp();
    BpProfilerOptions opts;
    opts.stepDuration = 40 * kSec;
    opts.sampleWindow = 5 * kSec;
    opts.maxSteps = 12;
    const std::vector<double> rates = {80.0, 0.0};
    const auto res = profileBackpressureThreshold(
        app, app.serviceIndex("worker"), rates, 11, opts);
    ASSERT_FALSE(res.steps.empty());
    EXPECT_GT(res.threshold, 0.05);
    EXPECT_LE(res.threshold, 1.0);
    // Proxy latency at the first (tightest) limit must exceed the
    // converged latency: the sweep actually exercises backpressure.
    EXPECT_GT(res.steps.front().proxyP99Us,
              res.steps.back().proxyP99Us);
    // Utilization decreases as the limit grows.
    EXPECT_GT(res.steps.front().utilization,
              res.steps.back().utilization);
}

TEST(BpProfiler, ZeroLoadReturnsDefault)
{
    const auto app = tests::makeToyApp();
    const std::vector<double> rates = {0.0, 0.0};
    const auto res = profileBackpressureThreshold(
        app, app.serviceIndex("worker"), rates, 1);
    EXPECT_TRUE(res.steps.empty());
}

TEST(Explorer, LocalRatesUseMixAndVisits)
{
    const auto app = tests::makeToyApp();
    ExplorationController ctl(fastOptions());
    const auto rates = ctl.localRates(app, app.serviceIndex("worker"));
    // worker only serves class 0: 100 rps * 4/5.
    EXPECT_NEAR(rates[0], 80.0, 1e-9);
    EXPECT_DOUBLE_EQ(rates[1], 0.0);
}

TEST(Explorer, LevelsHaveIncreasingLprAndLatency)
{
    const auto app = tests::makeToyApp();
    ExplorationController ctl(fastOptions());
    const auto rates = ctl.localRates(app, app.serviceIndex("worker"));
    const auto prof = ctl.exploreService(
        app, app.serviceIndex("worker"), 0.7, rates, defaultGrid());
    ASSERT_GE(prof.levels.size(), 2u);
    for (std::size_t l = 1; l < prof.levels.size(); ++l) {
        EXPECT_GT(prof.levels[l].loadPerReplica[0],
                  prof.levels[l - 1].loadPerReplica[0]);
        EXPECT_LT(prof.levels[l].replicas, prof.levels[l - 1].replicas);
    }
    // Latency at p99 grows (weakly) with load per replica.
    const auto &grid = defaultGrid();
    const std::size_t p99 = 4; // index of 99.0 in the default grid
    ASSERT_DOUBLE_EQ(grid[p99], 99.0);
    EXPECT_LT(prof.levels.front().latency[0][p99],
              prof.levels.back().latency[0][p99] * 1.5 + 1.0);
    // Utilization grows as replicas shrink.
    EXPECT_LT(prof.levels.front().cpuUtilization,
              prof.levels.back().cpuUtilization);
}

TEST(Explorer, StopsBeforeBpThresholdWhenEnforced)
{
    const auto app = tests::makeToyApp();
    auto opts = fastOptions();
    ExplorationController ctl(opts);
    const auto rates = ctl.localRates(app, app.serviceIndex("worker"));
    const double threshold = 0.5;
    const auto prof = ctl.exploreService(
        app, app.serviceIndex("worker"), threshold, rates,
        defaultGrid());
    for (const auto &level : prof.levels)
        EXPECT_LT(level.cpuUtilization, threshold);
}

TEST(Explorer, BpEnforcementAblationExploresDeeper)
{
    const auto app = tests::makeToyApp();
    auto opts = fastOptions();
    ExplorationController with(opts);
    opts.enforceBpThreshold = false;
    ExplorationController without(opts);
    const auto rates =
        with.localRates(app, app.serviceIndex("worker"));
    const auto profWith = with.exploreService(
        app, app.serviceIndex("worker"), 0.45, rates, defaultGrid());
    const auto profWithout = without.exploreService(
        app, app.serviceIndex("worker"), 0.45, rates, defaultGrid());
    EXPECT_GE(profWithout.levels.size(), profWith.levels.size());
}

TEST(Explorer, ExploreAppCoversAllServices)
{
    const auto app = tests::makeToyApp();
    ExplorationController ctl(fastOptions());
    const auto prof = ctl.exploreApp(app);
    ASSERT_EQ(prof.services.size(), app.services.size());
    for (std::size_t s = 0; s < prof.services.size(); ++s) {
        EXPECT_FALSE(prof.services[s].levels.empty())
            << app.services[s].name;
    }
    // MQ consumer keeps the default (no) backpressure threshold.
    EXPECT_DOUBLE_EQ(
        prof.services[app.serviceIndex("mlsvc")].bpThreshold, 1.0);
    // RPC services got a real threshold.
    EXPECT_LT(prof.services[app.serviceIndex("worker")].bpThreshold,
              1.0);
    EXPECT_GT(prof.totalSamples(), 0);
    EXPECT_GT(prof.wallClockExploreTime(), 0);
}

TEST(Explorer, ReexploreReplacesOneService)
{
    const auto app = tests::makeToyApp();
    ExplorationController ctl(fastOptions());
    auto prof = ctl.exploreApp(app);
    const int worker = app.serviceIndex("worker");
    const auto before = prof.services[worker].levels.size();
    ctl.reexploreService(app, worker, prof);
    EXPECT_FALSE(prof.services[worker].levels.empty());
    (void)before;
}

// Sweep options are validated at entry: each of these used to loop
// forever, divide by zero or silently measure nothing.

TEST(ExplorerOptions, RejectsZeroReplicaStep)
{
    auto opts = fastOptions();
    opts.replicaStep = 0; // stepped the replica count by 0: never ended
    EXPECT_THROW(ExplorationController{opts}, std::invalid_argument);
}

TEST(ExplorerOptions, RejectsZeroWindowsPerLevel)
{
    auto opts = fastOptions();
    opts.windowsPerLevel = 0;
    EXPECT_THROW(ExplorationController{opts}, std::invalid_argument);
}

TEST(ExplorerOptions, RejectsNonPositiveWindow)
{
    auto opts = fastOptions();
    opts.window = 0;
    EXPECT_THROW(ExplorationController{opts}, std::invalid_argument);
}

/** Profile the toy worker with one option overridden. */
template <typename Tweak>
void
profileWorkerWith(Tweak tweak)
{
    const auto app = tests::makeToyApp();
    BpProfilerOptions opts = fastOptions().bpOptions;
    tweak(opts);
    profileBackpressureThreshold(app, app.serviceIndex("worker"),
                                 {80.0, 0.0}, 11, opts);
}

TEST(BpProfilerOptions, RejectsNonPositiveMaxSteps)
{
    // Used to return threshold 1.0 with no steps, silently.
    EXPECT_THROW(profileWorkerWith(
                     [](BpProfilerOptions &o) { o.maxSteps = 0; }),
                 std::invalid_argument);
}

TEST(BpProfilerOptions, RejectsGrowthFactorNotAboveOne)
{
    EXPECT_THROW(profileWorkerWith(
                     [](BpProfilerOptions &o) { o.growthFactor = 1.0; }),
                 std::invalid_argument);
}

TEST(BpProfilerOptions, RejectsNonPositiveStepDuration)
{
    EXPECT_THROW(profileWorkerWith(
                     [](BpProfilerOptions &o) { o.stepDuration = 0; }),
                 std::invalid_argument);
}

TEST(BpProfilerOptions, RejectsNonPositiveSampleWindow)
{
    EXPECT_THROW(profileWorkerWith(
                     [](BpProfilerOptions &o) { o.sampleWindow = 0; }),
                 std::invalid_argument);
}

} // namespace
