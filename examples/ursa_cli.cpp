/**
 * @file
 * ursa_cli — run any (application, manager, load) combination from the
 * command line and get a summary plus optional CSV series, without
 * writing a harness. Examples:
 *
 *   ./build/examples/ursa_cli --app social --manager ursa
 *   ./build/examples/ursa_cli --app media --manager auto-b \
 *       --load burst --minutes 45 --csv /tmp/media
 *   ./build/examples/ursa_cli --app video --manager ursa --rps 9
 *
 * Managers: ursa | auto-a | auto-b | none (static initial replicas).
 * Loads: constant | diurnal | burst. Ursa runs exploration first
 * (paper-scale windows; use --fast for second-scale windows).
 */

#include "apps/app.h"
#include "baselines/autoscaler.h"
#include "core/explorer.h"
#include "core/manager.h"
#include "sim/client.h"
#include "sim/report.h"
#include "workload/arrival.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

using namespace ursa;
using namespace ursa::sim;

namespace
{

struct Options
{
    std::string app = "social";
    std::string manager = "ursa";
    std::string load = "constant";
    std::string csvPrefix;
    double rps = 0.0; // 0: app nominal
    long minutes = 30;
    std::uint64_t seed = 1;
    bool fast = false;
};

void
usage()
{
    std::printf(
        "usage: ursa_cli [--app social|vanilla|media|video]\n"
        "                [--manager ursa|auto-a|auto-b|none]\n"
        "                [--load constant|diurnal|burst]\n"
        "                [--rps N] [--minutes N] [--seed N] [--fast]\n"
        "                [--csv PREFIX]   (writes PREFIX_classes.csv,\n"
        "                                  PREFIX_services.csv)\n");
}

bool
parse(int argc, char **argv, Options &opts)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--app") {
            if (const char *v = next())
                opts.app = v;
        } else if (arg == "--manager") {
            if (const char *v = next())
                opts.manager = v;
        } else if (arg == "--load") {
            if (const char *v = next())
                opts.load = v;
        } else if (arg == "--rps") {
            if (const char *v = next())
                opts.rps = std::atof(v);
        } else if (arg == "--minutes") {
            if (const char *v = next())
                opts.minutes = std::atol(v);
        } else if (arg == "--seed") {
            if (const char *v = next())
                opts.seed = std::strtoull(v, nullptr, 10);
        } else if (arg == "--csv") {
            if (const char *v = next())
                opts.csvPrefix = v;
        } else if (arg == "--fast") {
            opts.fast = true;
        } else {
            usage();
            return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    if (!parse(argc, argv, opts))
        return 2;

    apps::AppSpec app;
    if (opts.app == "social")
        app = apps::makeSocialNetwork(false);
    else if (opts.app == "vanilla")
        app = apps::makeSocialNetwork(true);
    else if (opts.app == "media")
        app = apps::makeMediaService();
    else if (opts.app == "video")
        app = apps::makeVideoPipeline();
    else {
        usage();
        return 2;
    }
    const double rps = opts.rps > 0.0 ? opts.rps : app.nominalRps;
    const SimTime horizon = opts.minutes * kMin;
    const SimTime warmup = std::min<SimTime>(5 * kMin, horizon / 5);

    Cluster cluster(opts.seed);
    app.instantiate(cluster);

    std::unique_ptr<core::UrsaManager> ursaManager;
    std::unique_ptr<baselines::Autoscaler> autoscaler;
    if (opts.manager == "ursa") {
        core::ExplorationOptions exopts;
        exopts.seed = opts.seed;
        if (opts.fast) {
            exopts.window = 15 * kSec;
            exopts.windowsPerLevel = 5;
            exopts.bpOptions.stepDuration = kMin;
            exopts.bpOptions.sampleWindow = 10 * kSec;
        }
        std::fprintf(stderr, "[ursa_cli] exploring %s...\n",
                     app.name.c_str());
        core::ExplorationController explorer(exopts);
        const core::AppProfile profile = explorer.exploreApp(app);
        std::fprintf(stderr,
                     "[ursa_cli] exploration: %d samples, %.1f sim-min\n",
                     profile.totalSamples(),
                     toSec(profile.wallClockExploreTime()) / 60.0);
        ursaManager = std::make_unique<core::UrsaManager>(cluster, app,
                                                          profile);
        if (!ursaManager->deploy(rps, app.exploreMix)) {
            std::fprintf(stderr,
                         "[ursa_cli] model infeasible for these SLAs\n");
            return 1;
        }
    } else if (opts.manager == "auto-a" || opts.manager == "auto-b") {
        autoscaler = std::make_unique<baselines::Autoscaler>(
            cluster, opts.manager == "auto-a" ? baselines::autoAConfig()
                                              : baselines::autoBConfig());
        autoscaler->start(0);
    } else if (opts.manager != "none") {
        usage();
        return 2;
    }

    RateProfile rate;
    if (opts.load == "constant")
        rate = workload::constantRate(rps);
    else if (opts.load == "diurnal")
        rate = workload::diurnalRate(rps, 2.0 * rps, horizon);
    else if (opts.load == "burst")
        rate = workload::burstRate(rps, 1.0, horizon * 2 / 5, horizon / 5);
    else {
        usage();
        return 2;
    }

    OpenLoopClient client(cluster, rate, fixedMix(app.exploreMix),
                          opts.seed + 9);
    client.start(0);
    cluster.run(horizon);

    const auto summary = summarize(cluster, warmup, horizon);
    printSummary(summary, std::cout);
    if (ursaManager)
        std::fprintf(stderr, "[ursa_cli] solves that hit the B&B node "
                             "cap: %d\n",
                     ursaManager->cappedSolves());

    if (!opts.csvPrefix.empty()) {
        std::ofstream classes(opts.csvPrefix + "_classes.csv");
        writeClassSeriesCsv(cluster, 0, horizon, classes);
        std::ofstream services(opts.csvPrefix + "_services.csv");
        writeServiceSeriesCsv(cluster, 0, horizon, services);
        std::fprintf(stderr, "[ursa_cli] wrote %s_classes.csv and "
                             "%s_services.csv\n",
                     opts.csvPrefix.c_str(), opts.csvPrefix.c_str());
    }
    return 0;
}
