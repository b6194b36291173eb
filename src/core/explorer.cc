#include "core/explorer.h"

#include "spec/app_spec.h"
#include "check/check.h"
#include "core/bp_profiler.h"
#include "core/harness.h"
#include "core/profile.h"
#include "core/theorem.h"
#include "exec/thread_pool.h"
#include "sim/time.h"
#include "sim/types.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

namespace ursa::core
{

namespace
{

/** Simulated length of one level: a warm-up window plus the measured. */
sim::SimTime
levelSpanOf(const ExplorationOptions &opts)
{
    return opts.window + opts.window * opts.windowsPerLevel;
}

/** One Algorithm-1 step: the tested service at one replica count. */
struct LevelRun
{
    /// Algorithm 1 terminates here, without recording the level.
    bool stop = false;
    LprLevel level; ///< unset when stop
    /// Measured per-class arrival rate, kept for the LPR-bound audit.
    std::vector<double> arrivalRate;
};

LevelRun
runLevel(const spec::AppSpec &app, int serviceIdx, double bpThreshold,
         const std::vector<double> &rates,
         const std::vector<std::vector<double>> &slaVisits,
         const PercentileGrid &grid, int replicas,
         const ExplorationOptions &opts)
{
    const sim::SimTime warmup = opts.window;
    const sim::SimTime levelSpan = levelSpanOf(opts);
    IsolatedHarness h = makeIsolatedHarness(
        app, serviceIdx, rates, replicas,
        opts.seed + 7919ULL * (replicas + 1), 64, opts.window);
    h.client->start(0);
    h.cluster->run(levelSpan);

    const auto &metrics = h.cluster->metrics();
    const double util =
        metrics.cpuUtilization(h.testedId, warmup, levelSpan);

    // SLA-violation frequency: fraction of windows whose tested-
    // service latency at the class's SLA percentile exceeds the
    // full end-to-end target (a conservative per-service stop: if
    // one service alone eats the budget, no feasible split exists).
    int windows = 0, violating = 0;
    for (std::size_t c = 0; c < app.classes.size(); ++c) {
        if (rates[c] <= 0.0 || slaVisits[serviceIdx][c] <= 0.0)
            continue;
        const auto &agg = metrics.tierLatency(h.testedId,
                                              static_cast<int>(c));
        for (const auto &w : agg.windows()) {
            if (w.start < warmup || w.samples.empty())
                continue;
            ++windows;
            if (w.samples.percentile(app.classes[c].sla.percentile) >
                static_cast<double>(app.classes[c].sla.targetUs))
                ++violating;
        }
    }
    const double violFreq =
        windows ? static_cast<double>(violating) / windows : 0.0;

    LevelRun run;
    const bool bpStop = opts.enforceBpThreshold && util >= bpThreshold;
    const bool unstable = util >= opts.maxUtilization;
    run.stop =
        bpStop || unstable || violFreq >= opts.slaViolationThreshold;
    if (run.stop)
        return run;

    LprLevel &level = run.level;
    level.replicas = replicas;
    level.cpuUtilization = util;
    level.loadPerReplica.assign(app.classes.size(), 0.0);
    level.latency.assign(app.classes.size(), {});
    run.arrivalRate.assign(app.classes.size(), 0.0);
    for (std::size_t c = 0; c < app.classes.size(); ++c) {
        if (rates[c] <= 0.0)
            continue;
        const double measured = metrics.arrivalRate(
            h.testedId, static_cast<int>(c), warmup, levelSpan);
        run.arrivalRate[c] = measured;
        level.loadPerReplica[c] = measured / replicas;
        const auto samples = metrics
                                 .tierLatency(h.testedId,
                                              static_cast<int>(c))
                                 .collect(warmup, levelSpan);
        level.latency[c].reserve(grid.size());
        // A low-rate class can see zero arrivals within a short
        // level span; record zero latency (no observed load, which
        // matches loadPerReplica above) instead of throwing.
        for (double p : grid)
            level.latency[c].push_back(
                samples.empty() ? 0.0 : samples.percentile(p));
    }
    return run;
}

} // namespace

ExplorationController::ExplorationController(ExplorationOptions opts)
    : opts_(std::move(opts))
{
    if (opts_.replicaStep < 1)
        throw std::invalid_argument(
            "ExplorationOptions::replicaStep must be >= 1");
    if (opts_.windowsPerLevel < 1)
        throw std::invalid_argument(
            "ExplorationOptions::windowsPerLevel must be >= 1");
    if (opts_.window <= 0)
        throw std::invalid_argument(
            "ExplorationOptions::window must be positive");
}

std::vector<double>
ExplorationController::localRates(const spec::AppSpec &app,
                                  int serviceIdx) const
{
    const std::vector<double> &mix =
        opts_.mix.empty() ? app.exploreMix : opts_.mix;
    const double rps = opts_.appRps > 0.0 ? opts_.appRps : app.nominalRps;
    const double total =
        std::accumulate(mix.begin(), mix.end(), 0.0);
    const auto visits = computeVisitCounts(app);
    std::vector<double> rates(app.classes.size(), 0.0);
    for (std::size_t c = 0; c < app.classes.size(); ++c)
        rates[c] = rps * mix[c] / total * visits[serviceIdx][c];
    return rates;
}

ServiceProfile
ExplorationController::exploreService(const spec::AppSpec &app,
                                      int serviceIdx, double bpThreshold,
                                      const std::vector<double> &rates,
                                      const PercentileGrid &grid) const
{
    // Percentile-grid and input validation: a malformed grid or rate
    // vector silently poisons every LPR level recorded downstream.
    for (std::size_t g = 0; g < grid.size(); ++g) {
        URSA_CHECK(grid[g] > 0.0 && grid[g] <= 100.0, "core.explorer",
                   "percentile grid entry outside (0, 100]");
        URSA_CHECK(g == 0 || grid[g] > grid[g - 1], "core.explorer",
                   "percentile grid not strictly increasing");
    }
    for (double r : rates)
        URSA_CHECK(std::isfinite(r) && r >= 0.0, "core.explorer",
                   "service-local rate not finite and non-negative");
    URSA_CHECK(bpThreshold > 0.0 && bpThreshold <= 1.0, "core.explorer",
               "backpressure-free threshold outside (0, 1]");

    const sim::ServiceConfig &svcCfg = app.services.at(serviceIdx);
    ServiceProfile profile;
    profile.serviceName = svcCfg.name;
    profile.cpuPerReplica = svcCfg.cpuPerReplica;
    profile.bpThreshold = bpThreshold;

    // Initial replicas: adequate CPUs to keep latency low (paper
    // Sec. VII-C): provision for a low utilization target.
    double demand = 0.0;
    for (const auto &[cls, b] : svcCfg.behaviors) {
        if (static_cast<std::size_t>(cls) < rates.size())
            demand += rates[cls] *
                      (b.computeMeanUs + b.postComputeMeanUs) / 1e6;
    }
    if (demand <= 0.0)
        return profile; // unused service: nothing to explore

    const int initialReplicas = std::max(
        1, static_cast<int>(std::ceil(
               demand / (svcCfg.cpuPerReplica * opts_.initialUtilization))));

    // A class's end-to-end target only constrains this service if the
    // service lies on the class's SLA path (sync classes do not cover
    // their async MQ/event side-branches).
    const auto slaVisits = computeSlaVisitCounts(app);

    const sim::SimTime levelSpan = levelSpanOf(opts_);

    // Algorithm 1 steps the replica count down from initialReplicas to
    // 1. Every step is an independent harness run seeded by its replica
    // count and the stop rule reads that step alone, so the steps run
    // step-parallel and the in-order pass below sees exactly the prefix
    // the serial sweep would have measured (DESIGN.md §6).
    const std::size_t candidates = static_cast<std::size_t>(
        (initialReplicas - 1) / opts_.replicaStep + 1);
    std::vector<LevelRun> runs(candidates);
    const std::size_t taken = exec::parallelSweep(
        candidates, 1,
        [&](std::size_t i) {
            const int replicas =
                initialReplicas - static_cast<int>(i) * opts_.replicaStep;
            runs[i] = runLevel(app, serviceIdx, bpThreshold, rates,
                               slaVisits, grid, replicas, opts_);
        },
        [&](std::size_t i) { return runs[i].stop; });

    for (std::size_t i = 0; i < taken; ++i) {
        LevelRun &run = runs[i];
        profile.samples += opts_.windowsPerLevel;
        profile.exploreTime += levelSpan;
        if (run.stop)
            break; // Algorithm 1: terminate without recording

        // Record this LPR level. The audits run here, in sweep order,
        // so a speculative step past the stop never raises one.
        const double util = run.level.cpuUtilization;
        URSA_CHECK(std::isfinite(util) && util >= 0.0 && util <= 1.0 + 1e-9,
                   "core.explorer",
                   "measured CPU utilization outside [0, 1]");
        for (std::size_t c = 0; c < app.classes.size(); ++c) {
            if (rates[c] <= 0.0)
                continue;
            const double measured = run.arrivalRate[c];
            // LPR bound: the measured per-replica load must be finite,
            // non-negative and consistent with the offered rate (x2
            // covers Poisson noise on short levels; beyond that the
            // harness replayed the wrong workload).
            URSA_CHECK(std::isfinite(measured) && measured >= 0.0,
                       "core.explorer",
                       "measured arrival rate not finite/non-negative");
            URSA_CHECK(measured <= rates[c] * 2.0 + 5.0, "core.explorer",
                       "LPR bound violation: measured load exceeds "
                       "the offered service-local rate");
        }
        profile.levels.push_back(std::move(run.level));
    }
    return profile;
}

AppProfile
ExplorationController::exploreApp(const spec::AppSpec &app) const
{
    // Per-service explorations are embarrassingly parallel (Sec. VII-C),
    // and each service's sweeps run their steps in parallel too: the
    // nested parallelFor lets threads done with short services join
    // the long sweeps. Each index builds its own harness clusters with
    // index-derived seeds, so the profile is bit-identical to the
    // serial run for any URSA_THREADS. Shared captures (`app`,
    // `profile.grid`, `this`) are read-only inside the lambda and each
    // shard writes only its own result slot — the lock-free shape the
    // thread-safety analysis layer expects of parallelMap bodies (see
    // base/thread_annotations.h).
    AppProfile profile;
    profile.services = exec::parallelMap<ServiceProfile>(
        app.services.size(), [&](std::size_t s) {
            const std::vector<double> rates =
                localRates(app, static_cast<int>(s));
            double bpThreshold = 1.0;
            if (!app.services[s].mqConsumer) {
                const BpProfileResult bp = profileBackpressureThreshold(
                    app, static_cast<int>(s), rates,
                    opts_.seed + 31ULL * (s + 1), opts_.bpOptions);
                bpThreshold = bp.threshold;
            }
            return exploreService(app, static_cast<int>(s), bpThreshold,
                                  rates, profile.grid);
        });
    return profile;
}

void
ExplorationController::reexploreService(const spec::AppSpec &app,
                                        int serviceIdx,
                                        AppProfile &profile) const
{
    const std::vector<double> rates = localRates(app, serviceIdx);
    double bpThreshold = 1.0;
    if (!app.services[serviceIdx].mqConsumer) {
        bpThreshold = profileBackpressureThreshold(
                          app, serviceIdx, rates,
                          opts_.seed + 101ULL, opts_.bpOptions)
                          .threshold;
    }
    profile.services[serviceIdx] = exploreService(
        app, serviceIdx, bpThreshold, rates, profile.grid);
}

} // namespace ursa::core
