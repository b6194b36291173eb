/**
 * @file
 * Tests of the Ursa optimization model: replica arithmetic, optimal
 * level selection on synthetic profiles, infeasibility, SLA-tightness
 * monotonicity, and a property test that checks the branch-and-bound
 * (with Theorem 1's percentile split, and with the even-split
 * ablation) against an exhaustive oracle. The oracle enumerates every
 * level per service and every grid percentile per latency stage, and
 * does not use the percentile-split DP.
 */

#include "core/mip_model.h"

#include "stats/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

namespace
{

using namespace ursa::core;
using ursa::sim::fromMs;
using ursa::sim::SimTime;
using ursa::sim::SlaSpec;
using ursa::stats::Rng;

/**
 * Build a synthetic profile: `numServices` services, each with
 * `numLevels` levels. Level l carries lpr0*(1+l) rps/replica and has
 * latency latBase*(1+l*latGrowth) at the lowest grid percentile,
 * growing mildly across the grid.
 */
AppProfile
syntheticProfile(int numServices, int numLevels, int numClasses,
                 double lpr0, double latBaseUs, double latGrowth,
                 PercentileGrid grid = {99.0, 99.5, 99.9})
{
    AppProfile prof;
    prof.grid = std::move(grid);
    for (int s = 0; s < numServices; ++s) {
        ServiceProfile svc;
        svc.serviceName = "svc" + std::to_string(s);
        svc.cpuPerReplica = 1.0;
        svc.bpThreshold = 0.6;
        for (int l = 0; l < numLevels; ++l) {
            LprLevel level;
            level.replicas = numLevels - l;
            level.loadPerReplica.assign(numClasses, lpr0 * (1 + l));
            level.latency.assign(numClasses, {});
            for (int c = 0; c < numClasses; ++c) {
                for (std::size_t g = 0; g < prof.grid.size(); ++g) {
                    const double tail = 1.0 + 0.2 * g;
                    level.latency[c].push_back(
                        latBaseUs * (1.0 + l * latGrowth) * tail);
                }
            }
            svc.levels.push_back(level);
        }
        prof.services.push_back(svc);
    }
    return prof;
}

ModelInput
inputFor(const AppProfile &prof, double loadRps, double targetMs,
         int numClasses = 1)
{
    ModelInput in;
    in.profile = &prof;
    for (int c = 0; c < numClasses; ++c)
        in.slas.push_back({99.0, fromMs(targetMs)});
    in.loads.assign(prof.services.size(),
                    std::vector<double>(numClasses, loadRps));
    in.slaVisits.assign(prof.services.size(),
                     std::vector<double>(numClasses, 1.0));
    return in;
}

TEST(ReplicasNeeded, MaxOverClasses)
{
    ServiceProfile svc;
    svc.cpuPerReplica = 2.0;
    LprLevel level;
    level.replicas = 1;
    level.loadPerReplica = {10.0, 5.0};
    level.latency = {{1.0}, {1.0}};
    svc.levels.push_back(level);
    // loads (35, 12): ceil(35/10)=4, ceil(12/5)=3 -> 4.
    EXPECT_EQ(UrsaOptimizer::replicasNeeded(svc, 0, {35.0, 12.0}), 4);
    // Zero load -> minimum 1 replica.
    EXPECT_EQ(UrsaOptimizer::replicasNeeded(svc, 0, {0.0, 0.0}), 1);
}

TEST(Optimizer, PicksCheapestFeasibleLevel)
{
    // One service, loose SLA: the highest-LPR level (fewest replicas)
    // should win.
    const auto prof = syntheticProfile(1, 4, 1, 10.0, 1000.0, 0.5);
    const auto in = inputFor(prof, 100.0, 1000.0);
    const auto out = UrsaOptimizer().solve(in);
    ASSERT_TRUE(out.feasible);
    EXPECT_EQ(out.level[0], 3); // lpr 40 -> 3 replicas
    EXPECT_EQ(out.replicas[0], 3);
    EXPECT_DOUBLE_EQ(out.totalCpuCores, 3.0);
}

TEST(Optimizer, TightSlaForcesLowerLpr)
{
    // Level latencies: 1000*(1+0.5l)*1.2 tail at most. With target
    // 1.3 ms only levels 0..? qualify: level0 p99=1000, level1=1500.
    const auto prof = syntheticProfile(1, 4, 1, 10.0, 1000.0, 0.5);
    const auto in = inputFor(prof, 100.0, 1.3);
    const auto out = UrsaOptimizer().solve(in);
    ASSERT_TRUE(out.feasible);
    EXPECT_EQ(out.level[0], 0);
    EXPECT_EQ(out.replicas[0], 10);
}

TEST(Optimizer, InfeasibleWhenNoLevelMeetsSla)
{
    const auto prof = syntheticProfile(1, 3, 1, 10.0, 5000.0, 0.5);
    const auto in = inputFor(prof, 50.0, 1.0); // 1 ms target, 5 ms best
    EXPECT_FALSE(UrsaOptimizer().solve(in).feasible);
}

TEST(Optimizer, ResourceMonotoneInSlaTightness)
{
    const auto prof = syntheticProfile(3, 5, 1, 20.0, 800.0, 0.8);
    double prevCpu = 0.0;
    for (double target : {100.0, 10.0, 5.0, 3.5}) {
        const auto out =
            UrsaOptimizer().solve(inputFor(prof, 200.0, target));
        ASSERT_TRUE(out.feasible) << "target " << target;
        EXPECT_GE(out.totalCpuCores, prevCpu);
        prevCpu = out.totalCpuCores;
    }
}

TEST(Optimizer, UpperBoundRespectsSla)
{
    const auto prof = syntheticProfile(3, 4, 2, 15.0, 900.0, 0.6);
    const auto in = inputFor(prof, 120.0, 8.0, 2);
    const auto out = UrsaOptimizer().solve(in);
    ASSERT_TRUE(out.feasible);
    for (double ub : out.upperBoundUs) {
        EXPECT_GT(ub, 0.0);
        EXPECT_LE(ub, fromMs(8.0));
    }
}

TEST(Optimizer, VisitCountsMultiplyStages)
{
    // Same profile; class visits the single service twice: the latency
    // budget must cover two stages, so a tight target forces a lower
    // level than with one visit.
    const auto prof = syntheticProfile(1, 4, 1, 10.0, 1000.0, 0.5);
    auto in = inputFor(prof, 100.0, 2.5);
    in.slaVisits[0][0] = 2.0;
    const auto out2 = UrsaOptimizer().solve(in);
    in.slaVisits[0][0] = 1.0;
    const auto out1 = UrsaOptimizer().solve(in);
    ASSERT_TRUE(out1.feasible);
    ASSERT_TRUE(out2.feasible);
    EXPECT_LE(out2.level[0], out1.level[0]);
    EXPECT_GE(out2.totalCpuCores, out1.totalCpuCores);
}

TEST(Optimizer, SkewedLoadBindsOnOneClass)
{
    // Two classes with equal thresholds; class 1's load dominates and
    // sets the replica count (the paper's conservative example).
    const auto prof = syntheticProfile(1, 1, 2, 10.0, 100.0, 0.0);
    ModelInput in = inputFor(prof, 0.0, 100.0, 2);
    in.loads[0] = {4.0, 36.0};
    const auto out = UrsaOptimizer().solve(in);
    ASSERT_TRUE(out.feasible);
    EXPECT_EQ(out.replicas[0], 4); // ceil(36/10)
}

TEST(Optimizer, ServicesWithoutLevelsAreSkipped)
{
    auto prof = syntheticProfile(2, 3, 1, 10.0, 500.0, 0.4);
    prof.services[1].levels.clear(); // unmanaged service
    const auto in = inputFor(prof, 50.0, 50.0);
    const auto out = UrsaOptimizer().solve(in);
    ASSERT_TRUE(out.feasible);
    EXPECT_GE(out.level[0], 0);
    EXPECT_EQ(out.level[1], -1);
    EXPECT_EQ(out.replicas[1], 0);
}

constexpr double kInf = std::numeric_limits<double>::infinity();

/**
 * A random instance with heterogeneous services: 1-4 services, each
 * with its own CPU per replica, 0-4 levels whose latencies are not
 * monotone in the level but increase along the grid, and its own
 * subset of the 1-2 classes; SLA visit counts 0-2 and a p90, p99 or
 * p99.9 SLA per class. Fills `prof`, which the returned input points to.
 */
ModelInput
randomInstance(Rng &rng, AppProfile &prof)
{
    static const PercentileGrid kGrids[] = {
        {99.0, 99.9}, {99.0, 99.5, 99.9}, {90.0, 95.0, 99.0, 99.9}};
    prof = AppProfile{};
    prof.grid = kGrids[rng.uniformInt(3)];
    const int numClasses = 1 + static_cast<int>(rng.uniformInt(2));
    const int numServices = 1 + static_cast<int>(rng.uniformInt(4));

    ModelInput in;
    in.profile = &prof;
    // p99.9 leaves a residual share below the grid's last step once a
    // class has two stages, which is where the even split fails.
    static const double kSlaPercentiles[] = {90.0, 99.0, 99.9};
    for (int c = 0; c < numClasses; ++c)
        in.slas.push_back(
            {kSlaPercentiles[rng.uniformInt(3)],
             static_cast<SimTime>(rng.uniform(300.0, 5000.0))});
    for (int s = 0; s < numServices; ++s) {
        ServiceProfile svc;
        svc.serviceName = "svc" + std::to_string(s);
        svc.cpuPerReplica = rng.uniform(0.5, 4.0);
        std::vector<bool> handles(numClasses);
        for (int c = 0; c < numClasses; ++c)
            handles[c] = rng.uniform() < 0.7;
        const int numLevels = static_cast<int>(rng.uniformInt(5));
        for (int l = 0; l < numLevels; ++l) {
            LprLevel level;
            level.loadPerReplica.assign(numClasses, 0.0);
            level.latency.assign(numClasses, {});
            for (int c = 0; c < numClasses; ++c) {
                if (!handles[c])
                    continue;
                level.loadPerReplica[c] = rng.uniform(5.0, 50.0);
                double lat = rng.uniform(100.0, 1500.0);
                for (std::size_t g = 0; g < prof.grid.size(); ++g) {
                    level.latency[c].push_back(lat);
                    lat += rng.uniform(0.0, 800.0);
                }
            }
            svc.levels.push_back(level);
        }
        prof.services.push_back(svc);

        std::vector<double> loads(numClasses, 0.0);
        std::vector<double> visits(numClasses, 0.0);
        for (int c = 0; c < numClasses; ++c) {
            if (handles[c])
                loads[c] = rng.uniform(0.0, 200.0);
            visits[c] = static_cast<double>(rng.uniformInt(3));
        }
        in.loads.push_back(loads);
        in.slaVisits.push_back(visits);
    }
    return in;
}

/**
 * Cheapest latency sum over every choice of grid percentile for
 * stages k.. whose residuals fit in `budget`; +inf when none fits.
 */
double
cheapestSplit(const std::vector<const std::vector<double> *> &stages,
              const PercentileGrid &grid, std::size_t k, double budget,
              double latency)
{
    if (budget < -1e-9)
        return kInf;
    if (k == stages.size())
        return latency;
    double best = kInf;
    for (std::size_t g = 0; g < grid.size(); ++g)
        best = std::min(best, cheapestSplit(stages, grid, k + 1,
                                            budget - (100.0 - grid[g]),
                                            latency + (*stages[k])[g]));
    return best;
}

/**
 * Latency bound per class at fixed levels: the cheapest residual-
 * feasible split (or, with `evenSplit`, every stage at the largest
 * grid percentile within an even share of the residual); +inf when no
 * split fits. Classes are independent once the levels are fixed.
 */
std::vector<double>
classBounds(const ModelInput &in, const std::vector<int> &level,
            bool evenSplit)
{
    const AppProfile &prof = *in.profile;
    std::vector<double> bounds(in.slas.size(), 0.0);
    for (std::size_t c = 0; c < in.slas.size(); ++c) {
        std::vector<const std::vector<double> *> stages;
        for (std::size_t s = 0; s < prof.services.size(); ++s) {
            if (level[s] < 0 ||
                !prof.services[s].handlesClass(static_cast<int>(c)))
                continue;
            const auto &row = prof.services[s].levels[level[s]].latency[c];
            for (long r = 0; r < std::lround(in.slaVisits[s][c]); ++r)
                stages.push_back(&row);
        }
        if (stages.empty())
            continue;
        const double budget = 100.0 - in.slas[c].percentile;
        if (!evenSplit) {
            bounds[c] = cheapestSplit(stages, prof.grid, 0, budget, 0.0);
            continue;
        }
        const double share = budget / static_cast<double>(stages.size());
        int gidx = -1;
        for (std::size_t g = 0; g < prof.grid.size(); ++g)
            if (100.0 - prof.grid[g] <= share + 1e-9)
                gidx = static_cast<int>(g);
        if (gidx < 0) {
            bounds[c] = kInf;
            continue;
        }
        for (const auto *row : stages)
            bounds[c] += (*row)[gidx];
    }
    return bounds;
}

/** CPU cores of a level choice at the instance's loads. */
double
cpuAt(const ModelInput &in, const std::vector<int> &level)
{
    double cpu = 0.0;
    for (std::size_t s = 0; s < level.size(); ++s) {
        const ServiceProfile &svc = in.profile->services[s];
        if (level[s] >= 0)
            cpu += svc.cpuPerReplica *
                   UrsaOptimizer::replicasNeeded(svc, level[s], in.loads[s]);
    }
    return cpu;
}

/**
 * The exhaustive oracle: the cheapest CPU total over every level
 * choice whose class bounds all meet their SLA targets; +inf when no
 * choice does.
 */
double
exhaustiveCpu(const ModelInput &in, bool evenSplit)
{
    const auto &services = in.profile->services;
    std::vector<int> level(services.size(), -1);
    for (std::size_t s = 0; s < services.size(); ++s)
        if (!services[s].levels.empty())
            level[s] = 0;
    double best = kInf;
    for (;;) {
        const std::vector<double> bounds = classBounds(in, level, evenSplit);
        bool feasible = true;
        for (std::size_t c = 0; c < in.slas.size(); ++c)
            feasible = feasible &&
                       bounds[c] <= static_cast<double>(in.slas[c].targetUs);
        if (feasible)
            best = std::min(best, cpuAt(in, level));
        // Advance the odometer over the services that have levels.
        std::size_t s = 0;
        for (; s < services.size(); ++s) {
            if (level[s] < 0)
                continue;
            if (++level[s] < static_cast<int>(services[s].levels.size()))
                break;
            level[s] = 0;
        }
        if (s == services.size())
            return best;
    }
}

// The specialized solver agrees with the exhaustive oracle on random
// heterogeneous instances, with Theorem 1's split and with the even
// split: same feasibility, same optimal CPU, and the returned levels'
// class bounds are the cheapest splits at those levels.
TEST(OptimizerProperty, MatchesExhaustiveOracle)
{
    Rng rng(99);
    int feasible[2] = {0, 0};
    int infeasible[2] = {0, 0};
    for (int trial = 0; trial < 400; ++trial) {
        AppProfile prof;
        const ModelInput in = randomInstance(rng, prof);
        for (bool even : {false, true}) {
            SCOPED_TRACE("trial " + std::to_string(trial) +
                         (even ? " even split" : " theorem split"));
            OptimizerOptions opts;
            opts.evenSplit = even;
            const ModelOutput out = UrsaOptimizer(opts).solve(in);
            const double best = exhaustiveCpu(in, even);
            ASSERT_EQ(out.feasible, std::isfinite(best));
            ++(out.feasible ? feasible : infeasible)[even];
            if (!out.feasible)
                continue;
            EXPECT_NEAR(out.totalCpuCores, best, 1e-9);
            EXPECT_NEAR(cpuAt(in, out.level), best, 1e-9);
            const std::vector<double> bounds =
                classBounds(in, out.level, even);
            for (std::size_t c = 0; c < in.slas.size(); ++c) {
                EXPECT_NEAR(out.upperBoundUs[c], bounds[c], 1e-6);
                EXPECT_LE(bounds[c],
                          static_cast<double>(in.slas[c].targetUs));
            }
        }
    }
    for (int even : {0, 1}) {
        EXPECT_GT(feasible[even], 0) << "evenSplit " << even;
        EXPECT_GT(infeasible[even], 0) << "evenSplit " << even;
    }
}

TEST(Optimizer, MissingProfileThrows)
{
    ModelInput in;
    EXPECT_THROW(UrsaOptimizer().solve(in), std::invalid_argument);
}

} // namespace
