/**
 * @file
 * The three benchmark workloads of the Ursa pipeline. One call of
 * runIteration() runs a workload once, cold, from its seed: it builds
 * the apps, explores, solves, trains and runs the managed clusters
 * through the public APIs of src/, timing every call, and returns the
 * deterministic counts (which must repeat exactly for a seed), the host
 * timings and the correctness failures it found.
 */

#ifndef URSA_PIPEBENCH_PIPELINE_H
#define URSA_PIPEBENCH_PIPELINE_H

#include "spans.h"

#include <cstdint>
#include <string>
#include <vector>

namespace pipebench
{

/** Workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Run sizes: the benchmark's own, or the self-test's tiny one. */
struct Scale
{
    bool tiny = false;
    /** Sinan training samples, split over 8 fixed collection shards. */
    int sinanSamples = 64;
    /** Firm online-training decision steps. */
    int firmSteps = 40;
};

/**
 * Outcomes that are a pure function of (workload, seed, scale). The
 * benchmark checks that they repeat bit for bit across iterations and
 * between the untraced and traced runs.
 */
struct Counts
{
    std::uint64_t events = 0;    ///< kernel events in managed runs
    std::uint64_t requests = 0;  ///< requests completed in managed runs
    std::uint64_t submitted = 0; ///< requests the load clients sent
    std::uint64_t measured = 0;  ///< requests completed in measured windows
    std::uint64_t missed = 0;    ///< ...of which exceeded the class SLA
    std::uint64_t profileHash = 0; ///< digest of every explored profile
    int samples = 0;             ///< exploration windows
    int levels = 0;              ///< LPR levels recorded
    int solves = 0;              ///< deploy + recalculate solves
    std::uint64_t nodes = 0;     ///< B&B nodes over those solves
    int capped = 0;              ///< solves that hit the node cap
    int infeasible = 0;          ///< deploys without a feasible plan
    int recalcs = 0;
    std::uint64_t controllerTicks = 0; ///< resource-controller decisions
    std::uint64_t replicaChanges = 0;  ///< sum |delta replicas|, managed
    int sinanSamples = 0;
    std::uint64_t sinanEvents = 0;
    int firmSteps = 0;
    std::uint64_t firmEvents = 0;
    int managedRuns = 0;
    double managedSimS = 0.0;       ///< simulated seconds of managed runs
    double slaViolationPct = 0.0;   ///< mean over managed runs
    double cpuCores = 0.0;          ///< mean over managed runs
    double replicasMean = 0.0;      ///< mean over managed runs
    double exploreSimMin = 0.0;     ///< Table V exploration cost
    /** Per baseline system (Sinan, Firm, Auto-b): window violation %
     * and mean allocated cores over its measured window. */
    double baseViolationPct[3] = {0, 0, 0};
    double baseCpuCores[3] = {0, 0, 0};

    bool operator==(const Counts &) const = default;
};

/** Host-time measurements of one iteration (seconds unless noted). */
struct Timings
{
    double pipelineS = 0.0;
    double setupS = 0.0;
    double managedRunS = 0.0; ///< inside Cluster::run of managed runs
    double appBuildS = 0.0;
    double exploreS = 0.0;    ///< exploreApp, summed over apps
    std::vector<double> solveMs; ///< one entry per solve
    double tickUs = 0.0;      ///< mean controller decision (Table VI)
    double updateUs = 0.0;    ///< mean model re-solve (Table VI)
    double sinanCollectS = 0.0;
    double sinanTrainS = 0.0;
    double firmTrainS = 0.0;
    double firmStepUs = 0.0;
    double baseDecisionUs[3] = {0, 0, 0};
    double peakRssMb = 0.0; ///< resident-set high-water mark
};

/** Detail only the traced run can see (per-service calls). */
struct TraceDetail
{
    double serviceSMax = 0.0; ///< slowest service's bp + explore
    double serviceSSum = 0.0;
    double bpS = 0.0;         ///< profileBackpressureThreshold, summed
    int bpSteps = 0;
    int bpUnconverged = 0;
    int threads = 1;
};

struct IterationResult
{
    Counts counts;
    Timings timings;
    TraceDetail trace;
    std::vector<std::string> failures; ///< failed correctness checks
};

/**
 * Run `workload` once. With `log.enabled()` the exploration is driven
 * service by service (as exploreApp does, with its seeds) so each
 * service's calls get their own spans; the profile must not change.
 */
IterationResult runIteration(const std::string &workload,
                             std::uint64_t seed, const Scale &scale,
                             SpanLog &log);

} // namespace pipebench

#endif // URSA_PIPEBENCH_PIPELINE_H
