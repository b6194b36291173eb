#include "pipeline.h"

#include "apps/app.h"
#include "baselines/autoscaler.h"
#include "baselines/firm.h"
#include "baselines/sinan.h"
#include "core/bp_profiler.h"
#include "core/explorer.h"
#include "core/manager.h"
#include "exec/thread_pool.h"
#include "sim/client.h"
#include "sim/cluster.h"
#include "workload/arrival.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

namespace pipebench
{

namespace
{

using namespace ursa;
using sim::kMin;
using sim::kSec;
using sim::SimTime;

const char *const kSocialBurst = "ursa-social-burst";
const char *const kExplorePaper = "ursa-explore-paper";
const char *const kBaselinesBurst = "baselines-social-burst";

/** Baseline systems in Counts::base* / Timings::base* order. */
enum Base
{
    kSinan = 0,
    kFirm = 1,
    kAutoB = 2,
};

/** Everything one iteration writes to, plus its span root. */
struct Ctx
{
    const Scale &scale;
    SpanLog &log;
    int root;
    IterationResult &res;
    double tickSumUs = 0.0;
    std::size_t tickN = 0;
    double updateSumUs = 0.0;
    std::size_t updateN = 0;
    double replicasSum = 0.0;

    Counts &counts() { return res.counts; }
    Timings &timings() { return res.timings; }
    void expect(bool ok, const std::string &what)
    {
        if (!ok)
            res.failures.push_back(what);
    }
};

/** FNV-1a over the bit patterns of a profile's fields. */
class Digest
{
  public:
    void bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 1099511628211ULL;
        }
    }
    void num(double v) { bytes(&v, sizeof v); }
    void num(std::int64_t v) { bytes(&v, sizeof v); }
    void str(const std::string &s) { bytes(s.data(), s.size()); }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 1469598103934665603ULL;
};

std::uint64_t
profileDigest(const core::AppProfile &p)
{
    Digest d;
    for (double g : p.grid)
        d.num(g);
    for (const core::ServiceProfile &s : p.services) {
        d.str(s.serviceName);
        d.num(s.cpuPerReplica);
        d.num(s.bpThreshold);
        d.num(static_cast<std::int64_t>(s.samples));
        d.num(static_cast<std::int64_t>(s.exploreTime));
        for (const core::LprLevel &l : s.levels) {
            d.num(static_cast<std::int64_t>(l.replicas));
            d.num(l.cpuUtilization);
            for (double v : l.loadPerReplica)
                d.num(v);
            for (const auto &row : l.latency)
                for (double v : row)
                    d.num(v);
        }
    }
    return d.value();
}

/** The `ursa_cli --fast` exploration settings. */
core::ExplorationOptions
fastExploration(std::uint64_t seed)
{
    core::ExplorationOptions o;
    o.seed = seed;
    o.window = 15 * kSec;
    o.windowsPerLevel = 5;
    o.bpOptions.stepDuration = kMin;
    o.bpOptions.sampleWindow = 10 * kSec;
    return o;
}

/** Paper-scale exploration (bench::paperExploration's settings). */
core::ExplorationOptions
paperExploration(std::uint64_t seed)
{
    core::ExplorationOptions o;
    o.seed = seed;
    o.window = kMin;
    o.windowsPerLevel = 10;
    o.bpOptions.stepDuration = 2 * kMin;
    o.bpOptions.sampleWindow = 10 * kSec;
    o.bpOptions.maxSteps = 12;
    return o;
}

/** Self-test size: seconds-scale windows and short sweeps. */
core::ExplorationOptions
tinyExploration(std::uint64_t seed)
{
    core::ExplorationOptions o;
    o.seed = seed;
    o.window = 5 * kSec;
    o.windowsPerLevel = 2;
    o.bpOptions.stepDuration = 30 * kSec;
    o.bpOptions.sampleWindow = 10 * kSec;
    o.bpOptions.maxSteps = 3;
    return o;
}

spec::AppSpec
buildApp(Ctx &ctx, const std::string &name,
         const std::function<spec::AppSpec()> &make)
{
    Phase ph(ctx.log, ctx.root, "apps", "build:" + name);
    spec::AppSpec app = make();
    const double s = ph.stop();
    ctx.timings().appBuildS += s;
    ctx.timings().setupS += s;
    return app;
}

/**
 * exploreApp, or (traced) the same per-service calls with the same
 * seeds through exec::parallelMap, so each call gets its own span.
 */
core::AppProfile
explore(Ctx &ctx, const spec::AppSpec &app,
        const core::ExplorationOptions &opts)
{
    const core::ExplorationController explorer(opts);
    Phase ph(ctx.log, ctx.root, "core.explorer", "exploreApp:" + app.name);
    core::AppProfile profile;
    if (!ctx.log.enabled()) {
        profile = explorer.exploreApp(app);
    } else {
        struct Part
        {
            core::ServiceProfile svc;
            bool profiled = false;
            bool converged = true;
            int steps = 0;
            double bpS = 0.0;
            double exploreS = 0.0;
        };
        const int parent = ph.id();
        const core::PercentileGrid &grid = profile.grid;
        std::vector<Part> parts = exec::parallelMap<Part>(
            app.services.size(), [&](std::size_t s) {
                Part part;
                const int idx = static_cast<int>(s);
                const std::string &name = app.services[s].name;
                const std::vector<double> rates =
                    explorer.localRates(app, idx);
                double bpThreshold = 1.0;
                if (!app.services[s].mqConsumer) {
                    Phase bp(ctx.log, parent, "core.bp_profiler",
                             "profileBackpressureThreshold:" + name);
                    const core::BpProfileResult r =
                        core::profileBackpressureThreshold(
                            app, idx, rates, opts.seed + 31ULL * (s + 1),
                            opts.bpOptions);
                    part.bpS = bp.stop();
                    part.profiled = true;
                    part.converged = r.converged;
                    part.steps = static_cast<int>(r.steps.size());
                    bpThreshold = r.threshold;
                }
                Phase ex(ctx.log, parent, "core.explorer",
                         "exploreService:" + name);
                part.svc = explorer.exploreService(app, idx, bpThreshold,
                                                   rates, grid);
                part.exploreS = ex.stop();
                return part;
            });
        TraceDetail &td = ctx.res.trace;
        td.threads = exec::threadCount();
        for (Part &part : parts) {
            const double svcS = part.bpS + part.exploreS;
            td.serviceSMax = std::max(td.serviceSMax, svcS);
            td.serviceSSum += svcS;
            td.bpS += part.bpS;
            td.bpSteps += part.steps;
            td.bpUnconverged += part.profiled && !part.converged ? 1 : 0;
            profile.services.push_back(std::move(part.svc));
        }
    }
    const double s = ph.stop();
    ctx.timings().exploreS += s;
    ctx.timings().setupS += s;

    Counts &c = ctx.counts();
    c.samples += profile.totalSamples();
    for (const auto &svc : profile.services)
        c.levels += static_cast<int>(svc.levels.size());
    c.exploreSimMin += sim::toSec(profile.wallClockExploreTime()) / 60.0;
    c.profileHash = c.profileHash * 1099511628211ULL ^ profileDigest(profile);
    return profile;
}

/** The initial solve; a deploy without a feasible plan fails the run. */
void
deploy(Ctx &ctx, core::UrsaManager &mgr, const spec::AppSpec &app)
{
    Phase ph(ctx.log, ctx.root, "core.mip_model", "UrsaManager::deploy");
    const bool ok = mgr.deploy(app.nominalRps, app.exploreMix);
    const double s = ph.stop();
    ctx.timings().solveMs.push_back(s * 1e3);
    ctx.timings().setupS += s;
    Counts &c = ctx.counts();
    ++c.solves;
    if (ok) {
        c.nodes += mgr.plan().nodesExplored;
        c.capped += mgr.plan().hitNodeLimit ? 1 : 0;
    } else {
        ++c.infeasible;
    }
    ctx.expect(ok, "deploy of " + app.name + " is infeasible");
}

/**
 * Advance a managed cluster to `until` in fixed sim-time chunks (one
 * span each). The manager's recalculations run inside these chunks;
 * they are picked up from its Table VI update-latency stats.
 */
void
runManaged(Ctx &ctx, sim::Cluster &cluster, SimTime until,
           core::UrsaManager *mgr)
{
    const SimTime chunk = ctx.scale.tiny ? 30 * kSec : kMin;
    const SimTime start = cluster.events().now();
    const std::uint64_t ev0 = cluster.events().processed();
    const std::uint64_t done0 = cluster.completed();
    Counts &c = ctx.counts();
    for (SimTime t = start; t < until;) {
        const SimTime next = std::min(until, t + chunk);
        const int rc0 = mgr ? mgr->recalculations() : 0;
        const double us0 = mgr ? mgr->updateLatencyUs().sum() : 0.0;
        Phase ph(ctx.log, ctx.root, "sim", "Cluster::run");
        cluster.run(next);
        ctx.timings().managedRunS += ph.stop();
        if (mgr && mgr->recalculations() > rc0) {
            const int n = mgr->recalculations() - rc0;
            const double perMs =
                (mgr->updateLatencyUs().sum() - us0) / n / 1e3;
            for (int i = 0; i < n; ++i)
                ctx.timings().solveMs.push_back(perMs);
            c.solves += n;
            c.recalcs += n;
            c.nodes += static_cast<std::uint64_t>(n) *
                       mgr->plan().nodesExplored;
            c.capped += mgr->plan().hitNodeLimit ? n : 0;
        }
        t = next;
    }
    c.events += cluster.events().processed() - ev0;
    c.requests += cluster.completed() - done0;
    c.managedSimS += sim::toSec(until - start);
}

/** Fig. 11/12 outcomes of one managed run's measured window. */
struct Window
{
    double violationPct = 0.0;
    double cpuCores = 0.0;
};

Window
measure(Ctx &ctx, const sim::Cluster &cluster, SimTime from, SimTime to)
{
    const sim::MetricsRegistry &m = cluster.metrics();
    Window w;
    w.violationPct = 100.0 * m.overallSlaViolationRate(from, to);
    double replicas = 0.0;
    for (sim::ServiceId s = 0; s < cluster.numServices(); ++s) {
        w.cpuCores += m.meanAllocation(s, from, to);
        replicas += m.replicaSeries(s).timeAverage(from, to);
    }
    Counts &c = ctx.counts();
    for (sim::ClassId k = 0; k < cluster.numClasses(); ++k) {
        // Same windows requestViolationRate counts: any overlap.
        std::uint64_t n = 0;
        for (const auto &win : m.endToEnd(k).windows())
            if (win.start + m.window() > from && win.start < to)
                n += win.stats.count();
        c.measured += n;
        c.missed += static_cast<std::uint64_t>(std::llround(
            m.requestViolationRate(k, from, to) * static_cast<double>(n)));
    }
    ++c.managedRuns;
    c.slaViolationPct += w.violationPct;
    c.cpuCores += w.cpuCores;
    ctx.replicasSum += replicas;
    return w;
}

/** Request accounting: every cluster submission came from a client. */
void
checkCluster(Ctx &ctx, const sim::Cluster &cluster,
             std::uint64_t clientSubmitted, const std::string &what)
{
    ctx.expect(cluster.submitted() == clientSubmitted,
               what + ": load clients and cluster disagree on submitted");
    ctx.expect(cluster.submitted() ==
                   cluster.completed() + cluster.inFlight(),
               what + ": submitted != completed + inFlight");
    cluster.auditConservation(false);
}

/** Controller and solver statistics of a finished Ursa run. */
void
collectUrsa(Ctx &ctx, const sim::Cluster &cluster,
            const core::UrsaManager &mgr, SimTime runStart, SimTime runEnd)
{
    const stats::OnlineStats ticks = mgr.deployDecisionLatencyUs();
    ctx.counts().controllerTicks += ticks.count();
    ctx.tickSumUs += ticks.sum();
    ctx.tickN += ticks.count();
    ctx.updateSumUs += mgr.updateLatencyUs().sum();
    ctx.updateN += mgr.updateLatencyUs().count();
    // Controller actions: sum |delta replicas| after the deploy.
    std::uint64_t changes = 0;
    for (sim::ServiceId s = 0; s < cluster.numServices(); ++s) {
        const auto &pts = cluster.metrics().replicaSeries(s).points();
        double prev = 0.0;
        for (const auto &p : pts) {
            if (p.time > runStart && p.time <= runEnd)
                changes += static_cast<std::uint64_t>(
                    std::llround(std::fabs(p.value - prev)));
            prev = p.value;
        }
    }
    ctx.counts().replicaChanges += changes;
}

/** One Ursa deployment: explore, deploy, run `load` for `horizon`. */
void
ursaRun(Ctx &ctx, const spec::AppSpec &app,
        const core::ExplorationOptions &exploration,
        std::uint64_t clusterSeed, SimTime horizon, bool burst)
{
    const core::AppProfile profile = explore(ctx, app, exploration);
    const double setup0 = hostNow();
    sim::Cluster cluster(clusterSeed);
    app.instantiate(cluster);
    core::UrsaManager mgr(cluster, app, profile);
    ctx.timings().setupS += hostNow() - setup0;
    deploy(ctx, mgr, app);

    const double rps = app.nominalRps;
    sim::OpenLoopClient client(
        cluster,
        burst ? workload::burstRate(rps, 1.0, horizon * 2 / 5, horizon / 5)
              : workload::constantRate(rps),
        sim::fixedMix(app.exploreMix), clusterSeed + 9);
    client.start(0);
    runManaged(ctx, cluster, horizon, &mgr);
    ctx.counts().submitted += client.submitted();

    const SimTime warmup = std::min<SimTime>(5 * kMin, horizon / 5);
    measure(ctx, cluster, warmup, horizon);
    collectUrsa(ctx, cluster, mgr, 0, horizon);
    checkCluster(ctx, cluster, client.submitted(), app.name);
}

void
socialBurst(Ctx &ctx, std::uint64_t seed)
{
    const spec::AppSpec app = buildApp(
        ctx, "social", [] { return apps::makeSocialNetwork(false); });
    const bool tiny = ctx.scale.tiny;
    ursaRun(ctx, app, tiny ? tinyExploration(seed) : fastExploration(seed),
            seed, tiny ? 4 * kMin : 30 * kMin, /*burst=*/true);
}

void
explorePaper(Ctx &ctx, std::uint64_t seed)
{
    const std::vector<std::pair<std::string,
                                std::function<spec::AppSpec()>>> list = {
        {"social", [] { return apps::makeSocialNetwork(false); }},
        {"vanilla-social", [] { return apps::makeSocialNetwork(true); }},
        {"media", [] { return apps::makeMediaService(); }},
        {"video-pipeline", [] { return apps::makeVideoPipeline(0.25); }},
    };
    const bool tiny = ctx.scale.tiny;
    for (std::size_t k = 0; k < list.size(); ++k) {
        const spec::AppSpec app = buildApp(ctx, list[k].first, list[k].second);
        ursaRun(ctx, app,
                tiny ? tinyExploration(seed) : paperExploration(seed),
                seed + 7 * k, tiny ? 2 * kMin : 10 * kMin,
                /*burst=*/false);
    }
}

baselines::SinanConfig
sinanConfig(std::uint64_t seed)
{
    baselines::SinanConfig cfg;
    cfg.interval = 30 * kSec;
    cfg.seed = seed;
    return cfg;
}

/**
 * Sinan training data on a fixed number of independent timelines (the
 * shards and seeds bench::cachedSinanSamples uses, without its cache).
 */
std::vector<baselines::SinanSample>
sinanCollect(Ctx &ctx, const spec::AppSpec &app, std::uint64_t seed)
{
    const int count = ctx.scale.sinanSamples;
    const int shards = std::max(1, std::min(count, 8));
    struct Part
    {
        std::vector<baselines::SinanSample> samples;
        std::uint64_t events = 0;
        SimTime simTime = 0;
        bool accounted = false;
    };
    Phase ph(ctx.log, ctx.root, "baselines", "sinan.collect");
    const int parent = ph.id();
    std::vector<Part> parts = exec::parallelMap<Part>(
        static_cast<std::size_t>(shards), [&](std::size_t k) {
            Part part;
            const int cnt = count / shards +
                            (static_cast<int>(k) < count % shards ? 1 : 0);
            const std::uint64_t shardSeed =
                (seed ^ 0x51a4) + 0x9e3779b9ULL * k;
            sim::Cluster cluster(shardSeed, 30 * kSec);
            app.instantiate(cluster);
            sim::OpenLoopClient client(
                cluster, workload::constantRate(app.nominalRps),
                sim::fixedMix(app.exploreMix), shardSeed + 5);
            client.start(0);
            baselines::SinanConfig cfg = sinanConfig(seed);
            cfg.seed += 1000003ULL * k;
            baselines::SinanCollector collector(cluster, app, cfg);
            Phase shard(ctx.log, parent, "baselines",
                        "SinanCollector::collect#" + std::to_string(k));
            part.samples = collector.collect(cnt);
            shard.stop();
            part.events = cluster.events().processed();
            part.simTime = cluster.events().now();
            part.accounted = cluster.submitted() == client.submitted() &&
                             cluster.completed() <= cluster.submitted();
            cluster.auditConservation(false);
            return part;
        });
    const double s = ph.stop();
    ctx.timings().sinanCollectS += s;
    ctx.timings().setupS += s;

    std::vector<baselines::SinanSample> samples;
    Counts &c = ctx.counts();
    for (Part &part : parts) {
        ctx.expect(part.accounted, "sinan shard request accounting");
        c.sinanEvents += part.events;
        c.exploreSimMin += sim::toSec(part.simTime) / 60.0;
        samples.insert(samples.end(), part.samples.begin(),
                       part.samples.end());
    }
    c.sinanSamples += static_cast<int>(samples.size());
    ctx.expect(static_cast<int>(samples.size()) == count,
               "sinan collected the wrong number of samples");
    return samples;
}

/** Run the burst load on a baseline-managed cluster and record it. */
void
baselineMeasure(Ctx &ctx, sim::Cluster &cluster, const spec::AppSpec &app,
                std::uint64_t cellSeed, SimTime measureStart,
                SimTime measureLen, std::uint64_t otherSubmitted, Base b,
                const char *name)
{
    sim::OpenLoopClient client(
        cluster,
        workload::burstRate(app.nominalRps, 1.0,
                            measureStart + measureLen * 2 / 5,
                            measureLen / 5),
        sim::fixedMix(app.exploreMix), cellSeed + 23);
    client.start(cluster.events().now());
    const SimTime end = measureStart + measureLen;
    runManaged(ctx, cluster, end, nullptr);
    ctx.counts().submitted += client.submitted();
    const Window w = measure(ctx, cluster, measureStart, end);
    ctx.counts().baseViolationPct[b] = w.violationPct;
    ctx.counts().baseCpuCores[b] = w.cpuCores;
    checkCluster(ctx, cluster, client.submitted() + otherSubmitted, name);
}

/** Seeds of bench::runCell's (system, social, burst) cells. */
std::uint64_t
cellSeed(std::uint64_t seed, int system)
{
    const int burst = 2;
    return seed + 131 * system + 17 * burst;
}

void
baselinesBurst(Ctx &ctx, std::uint64_t seed)
{
    const spec::AppSpec app = buildApp(
        ctx, "social", [] { return apps::makeSocialNetwork(false); });
    const bool tiny = ctx.scale.tiny;
    const SimTime warmup = tiny ? kMin : 5 * kMin;
    const SimTime measureLen = tiny ? 2 * kMin : 10 * kMin;

    { // Sinan: collect, train, then schedule (system index 1).
        const std::vector<baselines::SinanSample> samples =
            sinanCollect(ctx, app, seed);
        const baselines::SinanConfig cfg = sinanConfig(seed);
        baselines::SinanModel model(app, cfg);
        Phase train(ctx.log, ctx.root, "ml", "SinanModel::train");
        model.train(samples);
        const double s = train.stop();
        ctx.timings().sinanTrainS += s;
        ctx.timings().setupS += s;
        ctx.expect(model.trained(), "sinan model did not train");

        const std::uint64_t cs = cellSeed(seed, 1);
        sim::Cluster cluster(cs);
        app.instantiate(cluster);
        baselines::SinanScheduler sched(cluster, app, model, cfg);
        sched.start(0);
        baselineMeasure(ctx, cluster, app, cs, warmup + 5 * kMin,
                        measureLen, 0, kSinan, "sinan");
        ctx.timings().baseDecisionUs[kSinan] =
            sched.decisionLatencyUs().mean();
    }
    { // Firm: online training under the canonical mix, then deploy.
        const std::uint64_t cs = cellSeed(seed, 2);
        sim::Cluster cluster(cs);
        app.instantiate(cluster);
        baselines::FirmConfig cfg;
        cfg.seed = seed + 3;
        baselines::FirmController firm(cluster, app, cfg);
        // Stays alive until the cluster's last run: its next-arrival
        // callback remains queued after stop().
        sim::OpenLoopClient trainClient(
            cluster, workload::constantRate(app.nominalRps),
            sim::fixedMix(app.exploreMix), cs + 11);
        trainClient.start(0);
        const std::uint64_t ev0 = cluster.events().processed();
        Phase train(ctx.log, ctx.root, "baselines",
                    "FirmController::trainOnline");
        firm.trainOnline(ctx.scale.firmSteps);
        const double s = train.stop();
        trainClient.stop();
        ctx.timings().firmTrainS += s;
        ctx.timings().setupS += s;
        ctx.timings().firmStepUs = firm.trainStepLatencyUs().mean();
        Counts &c = ctx.counts();
        c.firmSteps += firm.trainingSteps();
        c.firmEvents += cluster.events().processed() - ev0;
        c.exploreSimMin += sim::toSec(cluster.events().now()) / 60.0;
        ctx.expect(firm.trainingSteps() == ctx.scale.firmSteps,
                   "firm ran the wrong number of training steps");

        firm.start(cluster.events().now());
        baselineMeasure(ctx, cluster, app, cs,
                        cluster.events().now() + warmup, measureLen,
                        trainClient.submitted(), kFirm, "firm");
        ctx.timings().baseDecisionUs[kFirm] =
            firm.decisionLatencyUs().mean();
    }
    { // Auto-b: cold start from one replica per service.
        const std::uint64_t cs = cellSeed(seed, 4);
        sim::Cluster cluster(cs);
        app.instantiate(cluster);
        for (sim::ServiceId s = 0; s < cluster.numServices(); ++s)
            cluster.service(s).setReplicas(1);
        baselines::Autoscaler scaler(cluster, baselines::autoBConfig());
        scaler.start(0);
        baselineMeasure(ctx, cluster, app, cs, warmup + 10 * kMin,
                        measureLen, 0, kAutoB, "auto-b");
        ctx.timings().baseDecisionUs[kAutoB] =
            scaler.decisionLatencyUs().mean();
    }
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        kSocialBurst, kExplorePaper, kBaselinesBurst};
    return names;
}

IterationResult
runIteration(const std::string &workload, std::uint64_t seed,
             const Scale &scale, SpanLog &log)
{
    IterationResult res;
    Phase root(log, -1, "bench", "pipeline:" + workload);
    Ctx ctx{scale, log, root.id(), res};
    if (workload == kSocialBurst)
        socialBurst(ctx, seed);
    else if (workload == kExplorePaper)
        explorePaper(ctx, seed);
    else if (workload == kBaselinesBurst)
        baselinesBurst(ctx, seed);
    else
        throw std::invalid_argument("unknown workload " + workload);
    res.timings.pipelineS = root.stop();

    Counts &c = res.counts;
    if (c.managedRuns > 0) {
        c.slaViolationPct /= c.managedRuns;
        c.cpuCores /= c.managedRuns;
        c.replicasMean = ctx.replicasSum / c.managedRuns;
    }
    res.timings.tickUs = ctx.tickN ? ctx.tickSumUs / ctx.tickN : 0.0;
    res.timings.updateUs =
        ctx.updateN ? ctx.updateSumUs / ctx.updateN : 0.0;
    return res;
}

} // namespace pipebench
