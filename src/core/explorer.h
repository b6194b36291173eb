/**
 * @file
 * The exploration controller: Algorithm 1 of the paper. Each service
 * is explored individually in the Fig.-3 harness by replaying its
 * service-local workload while stepping the replica count down; every
 * step contributes one LPR level (load-per-replica vector + latency
 * distributions at the percentile grid). Exploration stops swiftly
 * when the SLA-violation frequency exceeds F_sla or the CPU
 * utilization crosses the service's backpressure-free threshold.
 */

#ifndef URSA_CORE_EXPLORER_H
#define URSA_CORE_EXPLORER_H

#include "spec/app_spec.h"
#include "core/bp_profiler.h"
#include "core/profile.h"
#include "core/theorem.h"
#include "sim/time.h"

#include <cstdint>
#include <vector>

namespace ursa::core
{

/** Exploration configuration. */
struct ExplorationOptions
{
    /** Total application request rate replayed during exploration. */
    double appRps = 0.0; ///< 0: use the app's nominalRps
    /** Request-class mix (weights); empty: use the app's exploreMix. */
    std::vector<double> mix;
    /** Observation window (the paper samples once per minute). */
    sim::SimTime window = sim::kMin;
    /** Windows (samples) collected per LPR level. */
    int windowsPerLevel = 10;
    /** F_sla: stop when this fraction of windows violates the SLA. */
    double slaViolationThreshold = 0.1;
    /** Replica-count step per iteration. */
    int replicaStep = 1;
    /** Enforce the backpressure-free CPU threshold stop (ablation
     * knob: the paper's design enables it). */
    bool enforceBpThreshold = true;
    /**
     * Hard queue-stability cap applied on top of the backpressure
     * threshold: a level measured at utilization >= this is discarded
     * even if short-window latencies look healthy, because a queue at
     * rho -> 1 diverges on horizons longer than the profiling window
     * (this bites for multi-second MQ jobs like video transcoding).
     */
    double maxUtilization = 0.88;
    /** Initial-provisioning utilization target (adequate CPUs). */
    double initialUtilization = 0.3;
    /** Options for the per-service backpressure profiling pass. */
    BpProfilerOptions bpOptions;
    std::uint64_t seed = 1;
};

/** Runs Algorithm 1 and the Sec.-III profiling pass. */
class ExplorationController
{
  public:
    /**
     * Throws std::invalid_argument unless replicaStep >= 1,
     * windowsPerLevel >= 1 and window > 0 (the sweep would otherwise
     * never terminate or measure nothing).
     */
    explicit ExplorationController(ExplorationOptions opts = {});

    /**
     * Explore a single service given its backpressure-free threshold
     * and service-local per-class rates.
     */
    ServiceProfile exploreService(const spec::AppSpec &app,
                                  int serviceIdx, double bpThreshold,
                                  const std::vector<double> &localRates,
                                  const PercentileGrid &grid) const;

    /**
     * Full pipeline for a new application: determine backpressure-free
     * thresholds for RPC services (MQ consumers need none — Sec. III
     * shows MQs do not propagate backpressure), then run Algorithm 1
     * on every service. Per-service explorations are independent and
     * run in parallel, and so do the steps of each service's two
     * sweeps. The longest service's serial sweep time (the max over
     * services of Sec. VII-C) is therefore an upper bound on the
     * wall-clock cost when threads are plentiful, not the cost itself.
     */
    AppProfile exploreApp(const spec::AppSpec &app) const;

    /**
     * Re-explore one service (the paper's partial exploration after a
     * business-logic update, Sec. VII-G) and patch the profile.
     */
    void reexploreService(const spec::AppSpec &app, int serviceIdx,
                          AppProfile &profile) const;

    /** Service-local per-class rates implied by the options' mix. */
    std::vector<double> localRates(const spec::AppSpec &app,
                                   int serviceIdx) const;

    const ExplorationOptions &options() const { return opts_; }

  private:
    ExplorationOptions opts_;
};

} // namespace ursa::core

#endif // URSA_CORE_EXPLORER_H
