#include "core/bp_profiler.h"

#include "spec/app_spec.h"
#include "check/check.h"
#include "core/harness.h"
#include "exec/thread_pool.h"
#include "sim/time.h"
#include "stats/quantile.h"
#include "stats/welch.h"
#include "trace/export.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace ursa::core
{

namespace
{

/** Measured statistics of one CPU-limit step. */
struct StepMeasurement
{
    std::vector<double> proxyP99Samples; ///< per sub-window
    double proxyP99 = 0.0;
    double testedP99 = 0.0;
    double utilization = 0.0;
    BpAttribution attribution;
    /// The redundant-measurement audit failed. It is raised only for
    /// steps the sweep keeps, so a speculative step never raises it.
    bool spanAuditFails = false;
};

/** Span ring capacity per step (bounds memory at full-rate steps). */
constexpr std::size_t kStepRingCapacity = 1u << 17;

/**
 * Build the step's critical-path attribution from the tracer's spans
 * and audit it against the windowed tier-latency metric: the tested
 * hop's span time (queue + service) and MetricsRegistry::tierLatency
 * measure the same finished invocations through two independent
 * pipelines, so their means must agree. Divergence means one of the
 * measurement paths lost or double-counted intervals.
 */
void
attributeStep(const IsolatedHarness &h, sim::SimTime warmup,
              sim::SimTime end, double metricsTestedMeanUs,
              std::size_t metricsTestedCount, StepMeasurement &m)
{
    BpAttribution &attr = m.attribution;
    const auto &tracer = h.cluster->tracer();
    const auto rows = trace::tierBreakdown(tracer.snapshot(), warmup, end);
    for (const trace::TierBreakdown &row : rows) {
        if (row.serviceId == h.proxyId) {
            attr.proxySpans = row.spans;
            attr.proxyQueueUs = row.meanQueueUs;
            attr.proxyServiceUs = row.meanServiceUs;
            attr.proxyBlockedUs = row.meanBlockedUs;
        } else if (row.serviceId == h.testedId) {
            attr.testedSpans = row.spans;
            attr.testedQueueUs = row.meanQueueUs;
            attr.testedServiceUs = row.meanServiceUs;
            const double spanMean =
                row.meanQueueUs + row.meanServiceUs;
            // Redundant-measurement audit. Gated on healthy sample
            // sizes and an untruncated ring so sampling noise cannot
            // fire it; 25% + 1 ms absorbs reservoir-vs-sample jitter.
            if (tracer.dropped() == 0 && row.spans >= 1000 &&
                metricsTestedCount >= 1000) {
                const double tol =
                    0.25 * metricsTestedMeanUs + 1000.0;
                m.spanAuditFails =
                    !(std::fabs(spanMean - metricsTestedMeanUs) <= tol);
            }
        }
    }
}

StepMeasurement
measureStep(const spec::AppSpec &app, int serviceIdx,
            const std::vector<double> &rates, double cpuLimit,
            double demandCores, std::uint64_t seed,
            const BpProfilerOptions &opts)
{
    const int proxyThreads = std::max(
        4, static_cast<int>(std::ceil(demandCores * opts.proxyHeadroom)));
    IsolatedHarness h = makeIsolatedHarness(app, serviceIdx, rates,
                                            /*testedReplicas=*/1, seed,
                                            proxyThreads,
                                            opts.sampleWindow);
    h.cluster->service(h.testedId).setCpuLimitPerReplica(cpuLimit);
    if (opts.traceSampling > 0.0) {
        h.cluster->tracer().setCapacity(kStepRingCapacity);
        h.cluster->tracer().setSampling(opts.traceSampling);
    }
    h.client->start(0);

    const sim::SimTime warmup = opts.stepDuration / 4;
    const sim::SimTime end = warmup + opts.stepDuration;
    h.cluster->run(end);

    StepMeasurement m;
    const auto &metrics = h.cluster->metrics();
    stats::SampleSet proxyAll(0, 3), testedAll(0, 5);
    for (int c = 0; c < h.cluster->numClasses(); ++c) {
        const auto &agg = metrics.tierLatency(h.proxyId, c);
        for (const auto &w : agg.windows()) {
            if (w.start < warmup || w.samples.empty())
                continue;
            m.proxyP99Samples.push_back(w.samples.percentile(99.0));
            for (double v : w.samples.samples())
                proxyAll.add(v);
        }
        const auto tested =
            metrics.tierLatency(h.testedId, c).collect(warmup, end);
        for (double v : tested.samples())
            testedAll.add(v);
    }
    m.proxyP99 = proxyAll.empty() ? 0.0 : proxyAll.percentile(99.0);
    m.testedP99 = testedAll.empty() ? 0.0 : testedAll.percentile(99.0);
    m.utilization = metrics.cpuUtilization(h.testedId, warmup, end);
    if (opts.traceSampling > 0.0)
        attributeStep(h, warmup, end, testedAll.mean(), testedAll.count(),
                      m);
    return m;
}

} // namespace

BpProfileResult
profileBackpressureThreshold(const spec::AppSpec &app, int serviceIdx,
                             const std::vector<double> &localRates,
                             std::uint64_t seed,
                             const BpProfilerOptions &opts)
{
    if (opts.maxSteps < 1)
        throw std::invalid_argument(
            "BpProfilerOptions::maxSteps must be >= 1");
    if (!(opts.growthFactor > 1.0))
        throw std::invalid_argument(
            "BpProfilerOptions::growthFactor must be > 1");
    if (opts.stepDuration <= 0)
        throw std::invalid_argument(
            "BpProfilerOptions::stepDuration must be positive");
    if (opts.sampleWindow <= 0)
        throw std::invalid_argument(
            "BpProfilerOptions::sampleWindow must be positive");

    BpProfileResult res;

    // Estimate CPU demand analytically and scale the load so the sweep
    // is cheap; the threshold is a utilization ratio.
    const auto &svc = app.services.at(serviceIdx);
    double demand = 0.0;
    for (const auto &[cls, b] : svc.behaviors) {
        if (static_cast<std::size_t>(cls) < localRates.size())
            demand += localRates[cls] *
                      (b.computeMeanUs + b.postComputeMeanUs) / 1e6;
    }
    if (demand <= 0.0)
        return res; // nothing to profile
    const double scale =
        std::min(1.0, opts.targetDemandCores / demand);
    std::vector<double> rates = localRates;
    for (double &r : rates)
        r *= scale;
    demand *= scale;

    // The limit grows geometrically per step. Every step is an
    // independent harness run seeded by its index and convergence reads
    // only the pair (k-1, k), so the steps run step-parallel and the
    // in-order pass below sees exactly the serial sweep (DESIGN.md §6).
    const auto limitAt = [&](std::size_t k) {
        return demand * opts.startFactor *
               std::pow(opts.growthFactor, static_cast<double>(k));
    };
    const auto steps = static_cast<std::size_t>(opts.maxSteps);
    std::vector<StepMeasurement> runs(steps);
    // Written once per step by the stop rule, so the in-order pass
    // below does not run the Welch test a second time.
    std::vector<char> converged(steps, 0);
    const std::size_t taken = exec::parallelSweep(
        steps, 2,
        [&](std::size_t k) {
            runs[k] = measureStep(app, serviceIdx, rates, limitAt(k),
                                  demand, seed + 1000 * (k + 1), opts);
        },
        [&](std::size_t k) {
            converged[k] =
                k > 0 && stats::meansEqual(runs[k - 1].proxyP99Samples,
                                           runs[k].proxyP99Samples,
                                           opts.alpha);
            return converged[k] != 0;
        });

    double prevUtil = 1.0;
    for (std::size_t k = 0; k < taken; ++k) {
        const StepMeasurement &cur = runs[k];
        URSA_CHECK(!cur.spanAuditFails, "core.bp_profiler",
                   "span-derived tested-tier latency diverges "
                   "from the windowed tierLatency metric");
        res.steps.push_back({limitAt(k), cur.proxyP99, cur.testedP99,
                             cur.utilization, cur.attribution});
        res.timeSpent += opts.stepDuration + opts.stepDuration / 4;

        if (converged[k]) {
            // Proxy latency converged between the previous and current
            // limits: the utilization just before convergence is the
            // backpressure-free threshold. Measured utilization can
            // drift past 1.0 at window edges under overload; the
            // contract is (0, 1].
            res.threshold = std::clamp(prevUtil, 1e-3, 1.0);
            res.converged = true;
            return res;
        }
        prevUtil = cur.utilization;
    }
    // Never converged inside the sweep: be conservative and use the
    // last measured utilization (clamped to the (0, 1] contract).
    res.threshold = std::clamp(prevUtil, 1e-3, 1.0);
    return res;
}

} // namespace ursa::core
