/**
 * @file
 * The backpressure-free CPU-threshold profiler of paper Sec. III
 * (Figs. 3-4): sweep the tested service's CPU limit upward, watch the
 * proxy's p99 latency, and declare convergence when Welch's t-test can
 * no longer distinguish the latency under the last two limits. The CPU
 * utilization just before convergence is the service's backpressure-
 * free threshold; exploration later refuses to push utilization past
 * it, preserving the independence assumption of the performance model.
 */

#ifndef URSA_CORE_BP_PROFILER_H
#define URSA_CORE_BP_PROFILER_H

#include "spec/app_spec.h"
#include "sim/time.h"

#include <cstdint>
#include <vector>

namespace ursa::core
{

/**
 * Span-derived critical-path attribution of one sweep step: mean
 * queue/service/blocked intervals of the proxy and tested hops, built
 * from `ursa::trace` request spans. The proxy's blocked-on-child share
 * is exactly the backpressure signal the profiler infers indirectly
 * from its latency convergence test — spans make it attributable
 * per request instead of per window.
 */
struct BpAttribution
{
    std::uint64_t proxySpans = 0;
    std::uint64_t testedSpans = 0;
    double proxyQueueUs = 0.0;
    double proxyServiceUs = 0.0;
    /// Proxy time spent waiting on the tested service's response.
    double proxyBlockedUs = 0.0;
    double testedQueueUs = 0.0;
    double testedServiceUs = 0.0;

    /** Fraction of proxy hop time spent blocked on the tested tier. */
    double proxyBlockedShare() const
    {
        const double total =
            proxyQueueUs + proxyServiceUs + proxyBlockedUs;
        return total > 0.0 ? proxyBlockedUs / total : 0.0;
    }
};

/** One CPU-limit step of the sweep (a point on a Fig.-4 curve). */
struct BpStep
{
    double cpuLimit = 0.0;     ///< cores given to the tested service
    double proxyP99Us = 0.0;   ///< proxy 99th-percentile latency
    double testedP99Us = 0.0;  ///< tested-service 99th-percentile latency
    double utilization = 0.0;  ///< tested-service CPU utilization
    BpAttribution attribution; ///< span-derived critical-path split
};

/** Result of profiling one service. */
struct BpProfileResult
{
    /** Backpressure-free utilization threshold, in (0, 1]. */
    double threshold = 1.0;
    /** Whether the proxy latency converged within the sweep. */
    bool converged = false;
    /** The full sweep, for Fig.-4-style plots. */
    std::vector<BpStep> steps;
    /** Simulated time spent. */
    sim::SimTime timeSpent = 0;
};

/** Sweep configuration. */
struct BpProfilerOptions
{
    int maxSteps = 14;
    /** First limit as a fraction of the measured CPU demand. */
    double startFactor = 0.8;
    /** Geometric growth of the limit per step. */
    double growthFactor = 1.18;
    /** Measurement duration per step. */
    sim::SimTime stepDuration = 2 * sim::kMin;
    /** Sub-window for t-test samples. */
    sim::SimTime sampleWindow = 10 * sim::kSec;
    /** t-test significance for convergence. */
    double alpha = 0.05;
    /** Scale the driven load so CPU demand is about this many cores
     * (keeps the sweep cheap; the threshold is a ratio). */
    double targetDemandCores = 2.0;
    /**
     * Request-sampling rate of the span tracer inside each step. The
     * spans feed BpStep::attribution and a redundant-measurement audit
     * (the span-derived tested-tier latency must agree with the
     * windowed tierLatency metric — both observe the same finished
     * invocations). Deterministic per request id, so the sweep stays
     * bit-identical across URSA_THREADS. 0 disables.
     */
    double traceSampling = 0.25;
    /**
     * Proxy worker-pool headroom over the nominal thread occupancy
     * (lambda x uncontended sojourn ~ CPU demand). A nested-RPC proxy
     * holds one worker for the tested service's whole round trip, so
     * once tested latency inflates past this factor the proxy's pool
     * exhausts and its own latency rises — the signal the profiler
     * watches for.
     */
    double proxyHeadroom = 3.5;
};

/**
 * Profile the backpressure-free threshold of `app.services[serviceIdx]`
 * under the given service-local per-class rates. Throws
 * std::invalid_argument unless opts.maxSteps >= 1, growthFactor > 1,
 * stepDuration > 0 and sampleWindow > 0.
 */
BpProfileResult profileBackpressureThreshold(
    const spec::AppSpec &app, int serviceIdx,
    const std::vector<double> &localRates, std::uint64_t seed,
    const BpProfilerOptions &opts = {});

} // namespace ursa::core

#endif // URSA_CORE_BP_PROFILER_H
