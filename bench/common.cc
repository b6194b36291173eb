#include "common.h"

#include "baselines/autoscaler.h"
#include "baselines/firm.h"
#include "core/manager.h"
#include "exec/thread_pool.h"
#include "sim/client.h"
#include "workload/arrival.h"
#include "workload/generator.h"

#include <stdexcept>
#include <string>

namespace ursa::bench
{

namespace
{

/** Make the mix/profile for a (app, load) cell measurement phase. */
struct CellLoad
{
    sim::RateProfile rate;
    std::vector<double> mix;
};

CellLoad
cellLoad(const apps::AppSpec &app, AppId id, LoadKind load,
         sim::SimTime measureStart, sim::SimTime measureLen)
{
    CellLoad out;
    out.mix = app.exploreMix;
    switch (load) {
      case LoadKind::Constant:
        out.rate = workload::constantRate(app.nominalRps);
        break;
      case LoadKind::Diurnal:
        out.rate = workload::shifted(
            workload::diurnalRate(app.nominalRps, 2.0 * app.nominalRps,
                                  measureLen),
            measureStart);
        break;
      case LoadKind::Burst:
        // Sharp +100% step for a fifth of the window (paper: +50-125%).
        out.rate = workload::burstRate(app.nominalRps, 1.0,
                                       measureStart + measureLen * 2 / 5,
                                       measureLen / 5);
        break;
      case LoadKind::SkewedUp:
        out.rate = workload::constantRate(app.nominalRps);
        out.mix = skewedMix(app, id, true);
        break;
      case LoadKind::SkewedDown:
        out.rate = workload::constantRate(app.nominalRps);
        out.mix = skewedMix(app, id, false);
        break;
    }
    return out;
}

core::ExplorationOptions
explorationFor(const PerfHarnessOptions &opts)
{
    return opts.exploration ? *opts.exploration
                            : paperExploration(opts.seed);
}

/**
 * The mutually-exclusive system handles of one deployment cell, alive
 * until the cell's last cluster.run(). Firm's training client: even
 * stopped, its next-arrival callback stays queued capturing `this`,
 * so it must outlive every cluster.run() of the cell — it lives here,
 * not in its switch case.
 */
struct Deployment
{
    std::unique_ptr<core::UrsaManager> ursa;
    std::unique_ptr<baselines::Autoscaler> autoscaler;
    std::unique_ptr<baselines::SinanModel> sinanModel;
    std::unique_ptr<baselines::SinanScheduler> sinanScheduler;
    std::unique_ptr<baselines::FirmController> firm;
    std::unique_ptr<sim::OpenLoopClient> trainClient;
    sim::SimTime measureStart = 0;

    double decisionLatencyUs() const
    {
        if (ursa)
            return ursa->deployDecisionLatencyUs().mean();
        if (autoscaler)
            return autoscaler->decisionLatencyUs().mean();
        if (sinanScheduler)
            return sinanScheduler->decisionLatencyUs().mean();
        if (firm)
            return firm->decisionLatencyUs().mean();
        return 0.0;
    }
};

/**
 * Instantiate and prepare one system on an already-instantiated
 * cluster: deployment from the app's offline `inputs`, training and
 * convergence before the measured window, under the canonical mix.
 * `deployRps`/`deployMix` are the expected load the one-shot planners
 * (Ursa) size for; the measurement client is the caller's.
 */
Deployment
prepareSystem(sim::Cluster &cluster, const apps::AppSpec &app,
              const AppInputs &inputs, System system, double deployRps,
              const std::vector<double> &deployMix, std::uint64_t seed,
              const PerfHarnessOptions &opts)
{
    // Autoscalers start cold (1 replica) and converge from below — the
    // regime where step scaling settles just under its threshold. The
    // learned systems keep the configured defaults their training also
    // started from, and Ursa applies its plan at deploy() anyway.
    if (system == System::AutoA || system == System::AutoB) {
        for (sim::ServiceId s = 0; s < cluster.numServices(); ++s)
            cluster.service(s).setReplicas(1);
    }

    Deployment dep;
    switch (system) {
      case System::Ursa: {
        dep.ursa = std::make_unique<core::UrsaManager>(cluster, app,
                                                       inputs.profile);
        // Thresholds computed once at the start of the experiment
        // (Sec. VII-E), from the expected load of this cell.
        if (!dep.ursa->deploy(deployRps, deployMix))
            throw std::runtime_error("Ursa infeasible on " + app.name);
        dep.measureStart = opts.warmup;
        break;
      }
      case System::AutoA:
      case System::AutoB: {
        dep.autoscaler = std::make_unique<baselines::Autoscaler>(
            cluster, system == System::AutoA ? baselines::autoAConfig()
                                             : baselines::autoBConfig());
        dep.autoscaler->start(0);
        // Extra warmup lets step scaling converge from the cold start.
        dep.measureStart = opts.warmup + 10 * sim::kMin;
        break;
      }
      case System::Sinan: {
        const auto cfg = benchSinanConfig(app, opts.seed);
        dep.sinanModel = std::make_unique<baselines::SinanModel>(app, cfg);
        dep.sinanModel->train(inputs.sinanSamples);
        dep.sinanScheduler = std::make_unique<baselines::SinanScheduler>(
            cluster, app, *dep.sinanModel, cfg);
        dep.sinanScheduler->start(0);
        dep.measureStart = opts.warmup + 5 * sim::kMin;
        break;
      }
      case System::Firm: {
        baselines::FirmConfig cfg;
        cfg.seed = opts.seed + 3;
        dep.firm = std::make_unique<baselines::FirmController>(cluster,
                                                               app, cfg);
        // Online training under the canonical mix, then deploy.
        dep.trainClient = std::make_unique<sim::OpenLoopClient>(
            cluster, workload::constantRate(deployRps),
            sim::fixedMix(app.exploreMix), seed + 11);
        dep.trainClient->start(0);
        dep.firm->trainOnline(opts.firmTrainSteps);
        dep.trainClient->stop();
        dep.firm->start(cluster.events().now());
        dep.measureStart = cluster.events().now() + opts.warmup;
        break;
      }
    }
    return dep;
}

/** Measured-window metrics of a finished cell. */
CellResult
collectResult(const sim::Cluster &cluster, const Deployment &dep,
              sim::SimTime measureStart, sim::SimTime measureEnd)
{
    CellResult result;
    result.violationRate =
        cluster.metrics().overallSlaViolationRate(measureStart,
                                                  measureEnd);
    result.cpuCores = 0.0;
    for (sim::ServiceId s = 0; s < cluster.numServices(); ++s)
        result.cpuCores +=
            cluster.metrics().meanAllocation(s, measureStart, measureEnd);
    result.decisionLatencyUs = dep.decisionLatencyUs();
    return result;
}

} // namespace

core::ExplorationOptions
paperExploration(std::uint64_t seed)
{
    core::ExplorationOptions opts;
    opts.window = sim::kMin;  // the paper samples once per minute
    opts.windowsPerLevel = 10; // 10 samples per LPR level (Sec. VII-C)
    opts.seed = seed;
    opts.bpOptions.stepDuration = 2 * sim::kMin;
    opts.bpOptions.sampleWindow = 10 * sim::kSec;
    opts.bpOptions.maxSteps = 12;
    return opts;
}

baselines::SinanConfig
benchSinanConfig(const apps::AppSpec &app, std::uint64_t seed)
{
    (void)app;
    baselines::SinanConfig cfg;
    cfg.interval = 30 * sim::kSec;
    cfg.seed = seed;
    return cfg;
}

std::vector<baselines::SinanSample>
collectSinanSamples(const apps::AppSpec &app, int count,
                    std::uint64_t seed)
{
    // Collect on dedicated clusters under the canonical mix. The
    // collection is sharded into a FIXED number of independent
    // timelines (not a function of the thread count), so the sample
    // set is deterministic for any URSA_THREADS while the shards run
    // in parallel.
    const int shards = std::max(1, std::min(count, 8));
    const int base = count / shards;
    const int rem = count % shards;
    const auto parts =
        exec::parallelMap<std::vector<baselines::SinanSample>>(
            static_cast<std::size_t>(shards), [&](std::size_t k) {
                const int cnt =
                    base + (static_cast<int>(k) < rem ? 1 : 0);
                if (cnt == 0)
                    return std::vector<baselines::SinanSample>{};
                const std::uint64_t shardSeed =
                    (seed ^ 0x51a4) + 0x9e3779b9ULL * k;
                sim::Cluster cluster(shardSeed, 30 * sim::kSec);
                app.instantiate(cluster);
                sim::OpenLoopClient client(
                    cluster, workload::constantRate(app.nominalRps),
                    sim::fixedMix(app.exploreMix), shardSeed + 5);
                client.start(0);
                auto cfg = benchSinanConfig(app, seed);
                cfg.seed += 1000003ULL * k; // per-shard randomization
                baselines::SinanCollector collector(cluster, app, cfg);
                return collector.collect(cnt);
            });
    std::vector<baselines::SinanSample> samples;
    samples.reserve(count);
    for (const auto &part : parts)
        samples.insert(samples.end(), part.begin(), part.end());
    return samples;
}

const char *
toString(System s)
{
    switch (s) {
      case System::Ursa:
        return "Ursa";
      case System::Sinan:
        return "Sinan";
      case System::Firm:
        return "Firm";
      case System::AutoA:
        return "Auto-a";
      case System::AutoB:
        return "Auto-b";
    }
    return "?";
}

const char *
toString(LoadKind l)
{
    switch (l) {
      case LoadKind::Constant:
        return "constant";
      case LoadKind::Diurnal:
        return "diurnal";
      case LoadKind::Burst:
        return "burst";
      case LoadKind::SkewedUp:
        return "skewed+";
      case LoadKind::SkewedDown:
        return "skewed-";
    }
    return "?";
}

const char *
toString(AppId a)
{
    switch (a) {
      case AppId::Social:
        return "social";
      case AppId::VanillaSocial:
        return "vanilla-social";
      case AppId::Media:
        return "media";
      case AppId::VideoPipeline:
        return "video-pipeline";
    }
    return "?";
}

apps::AppSpec
makeApp(AppId id)
{
    switch (id) {
      case AppId::Social:
        return apps::makeSocialNetwork(false);
      case AppId::VanillaSocial:
        return apps::makeSocialNetwork(true);
      case AppId::Media:
        return apps::makeMediaService();
      case AppId::VideoPipeline:
        return apps::makeVideoPipeline(0.25);
    }
    throw std::logic_error("bad app id");
}

std::vector<double>
skewedMix(const apps::AppSpec &app, AppId id, bool up)
{
    if (id == AppId::VideoPipeline) {
        // Paper: high:low ratios 40:60 and 60:40, unseen in exploration.
        return up ? std::vector<double>{0.6, 0.4}
                  : std::vector<double>{0.4, 0.6};
    }
    const char *cls = (id == AppId::Media) ? "upload-video"
                                           : "update-timeline";
    return apps::skewMix(app, app.exploreMix, cls, up ? 2.0 : 0.5);
}

CellResult
runCell(System system, AppId appId, LoadKind load,
        const AppInputs &inputs, const PerfHarnessOptions &opts)
{
    const apps::AppSpec app = makeApp(appId);
    const std::uint64_t seed =
        opts.seed + 131 * static_cast<int>(system) +
        17 * static_cast<int>(load) + 7 * static_cast<int>(appId);

    sim::Cluster cluster(seed);
    app.instantiate(cluster);

    // Prep phase: Ursa sizes its one-shot plan for this cell's mix at
    // the nominal rate.
    const auto deployMix = cellLoad(app, appId, load, 0, opts.measure).mix;
    const Deployment dep = prepareSystem(cluster, app, inputs, system,
                                         app.nominalRps, deployMix,
                                         seed, opts);

    // Measurement phase.
    const CellLoad cell =
        cellLoad(app, appId, load, dep.measureStart, opts.measure);
    sim::OpenLoopClient client(cluster, cell.rate,
                               sim::fixedMix(cell.mix), seed + 23);
    client.start(cluster.events().now());
    const sim::SimTime measureEnd = dep.measureStart + opts.measure;
    cluster.run(measureEnd);
    return collectResult(cluster, dep, dep.measureStart, measureEnd);
}

CellResult
runTraceCell(System system, AppId appId,
             const workload::ArrivalTrace &trace,
             const AppInputs &inputs, const PerfHarnessOptions &opts)
{
    if (trace.entries.empty())
        throw std::runtime_error("runTraceCell on an empty trace");

    const apps::AppSpec app = makeApp(appId);
    const std::uint64_t seed = opts.seed +
                               131 * static_cast<int>(system) +
                               7 * static_cast<int>(appId) + 53;

    sim::Cluster cluster(seed);
    app.instantiate(cluster);

    // Deploy thresholds come from the trace itself: its realized mean
    // rate and class mix (classes it never exercises get weight 0).
    std::vector<double> mix = trace.classMix();
    if (mix.size() > static_cast<std::size_t>(cluster.numClasses()))
        throw std::runtime_error(
            "trace uses request classes " + app.name +
            " does not define");
    mix.resize(static_cast<std::size_t>(cluster.numClasses()), 0.0);

    const Deployment dep = prepareSystem(cluster, app, inputs, system,
                                         trace.meanRate(), mix, seed,
                                         opts);

    // Measurement phase: loop the trace so it covers warmup plus the
    // measured window regardless of its recorded duration.
    workload::TraceReplayClient client(cluster, trace, /*loop=*/true);
    client.start(cluster.events().now());
    const sim::SimTime measureEnd = dep.measureStart + opts.measure;
    cluster.run(measureEnd);
    return collectResult(cluster, dep, dep.measureStart, measureEnd);
}

std::vector<GridRow>
performanceGrid(const PerfHarnessOptions &opts)
{
    const std::vector<AppId> apps = {AppId::Social, AppId::VanillaSocial,
                                     AppId::Media, AppId::VideoPipeline};
    const std::vector<LoadKind> loads = {
        LoadKind::Constant, LoadKind::Diurnal, LoadKind::Burst,
        LoadKind::SkewedUp, LoadKind::SkewedDown};
    const std::vector<System> systems = {System::Ursa, System::Sinan,
                                         System::Firm, System::AutoA,
                                         System::AutoB};

    // Each app's offline inputs (profile for Ursa, samples for Sinan),
    // computed once and shared by its 25 cells; the 8 are independent
    // units of work.
    std::vector<AppInputs> inputs(apps.size());
    exec::parallelFor(apps.size() * 2, [&](std::size_t i) {
        const apps::AppSpec app = makeApp(apps[i / 2]);
        AppInputs &in = inputs[i / 2];
        if (i % 2 == 0)
            in.profile = core::ExplorationController(explorationFor(opts))
                             .exploreApp(app);
        else
            in.sinanSamples =
                collectSinanSamples(app, opts.sinanSamples, opts.seed);
    });

    // The 100 cells are independent simulations; fan them out. Each
    // cell owns its cluster and derives every seed from (system, app,
    // load), so the grid is bit-identical for any thread count.
    const std::size_t perApp = loads.size() * systems.size();
    return exec::parallelMap<GridRow>(
        apps.size() * perApp, [&](std::size_t idx) {
            GridRow row;
            row.app = apps[idx / perApp];
            row.load = loads[idx / systems.size() % loads.size()];
            row.system = systems[idx % systems.size()];
            row.result = runCell(row.system, row.app, row.load,
                                 inputs[idx / perApp], opts);
            std::fprintf(
                stderr, "  [grid] %-14s %-9s %-7s viol=%5.1f%% cpu=%6.1f\n",
                toString(row.app), toString(row.load),
                toString(row.system), 100.0 * row.result.violationRate,
                row.result.cpuCores);
            return row;
        });
}

} // namespace ursa::bench
