/**
 * @file
 * Reproduces paper Fig. 13: Ursa's CPU allocation tracking a diurnal
 * load on the social network. For four representative microservices we
 * print, per 4-minute interval, the service-local request rate and the
 * allocated CPU cores — the two y-axes of the figure. Expected shape:
 * allocations scale out promptly as the load rises and back in as it
 * falls.
 */

#include "common.h"

#include "core/explorer.h"
#include "core/manager.h"
#include "sim/client.h"
#include "workload/arrival.h"

#include <cstdio>

using namespace ursa;
using namespace ursa::bench;
using namespace ursa::sim;

int
main()
{
    std::printf("Fig. 13 reproduction: Ursa under a diurnal load "
                "(social network, load doubles to\nthe midpoint peak "
                "and falls back over 80 minutes).\n\n");

    const apps::AppSpec app = makeApp(AppId::Social);
    const auto profile =
        core::ExplorationController(paperExploration(2024))
            .exploreApp(app);

    Cluster cluster(99);
    app.instantiate(cluster);
    core::UrsaManager manager(cluster, app, profile);
    if (!manager.deploy(app.nominalRps, app.exploreMix)) {
        std::printf("model infeasible\n");
        return 1;
    }
    const SimTime horizon = 80 * kMin;
    OpenLoopClient client(
        cluster,
        workload::diurnalRate(app.nominalRps, 2.0 * app.nominalRps,
                              horizon),
        fixedMix(app.exploreMix), 5);
    client.start(0);

    std::printf("%-5s", "min");
    for (const auto &name : app.representative)
        std::printf("   %12s rps/cores", name.c_str());
    std::printf("\n");

    const SimTime step = 4 * kMin;
    for (SimTime t = 0; t < horizon; t += step) {
        cluster.run(t + step);
        std::printf("%-5lld", (long long)((t + step) / kMin));
        for (const auto &name : app.representative) {
            const ServiceId sid = cluster.serviceId(name);
            double rps = 0.0;
            for (int c = 0; c < cluster.numClasses(); ++c)
                rps += cluster.metrics().arrivalRate(sid, c, t, t + step);
            std::printf("   %11.0f/%-10.1f", rps,
                        cluster.metrics().meanAllocation(sid, t,
                                                         t + step));
        }
        std::printf("\n");
    }

    std::printf("\nSLA violation rate across the swing: %.2f%%  "
                "(paper: Ursa scales in and out promptly\nwhile keeping "
                "violations low)\n",
                100.0 * cluster.metrics().overallSlaViolationRate(
                            4 * kMin, horizon));
    return 0;
}
