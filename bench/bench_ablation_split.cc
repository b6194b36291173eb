/**
 * @file
 * Ablation A1 (DESIGN.md §5): the value of Theorem 1's freedom to pick
 * *uneven* percentile splits. The solver may give a flat-tailed stage
 * p99.9 and spend the saved residual on a steep-tailed stage; the
 * naive alternative gives every stage an equal share of the residual
 * budget. We compare (a) the achievable latency bound on synthetic
 * chains and (b) the CPU the full Ursa model needs on the social
 * network under both policies.
 */

#include "common.h"

#include "core/explorer.h"
#include "core/mip_model.h"
#include "core/theorem.h"
#include "stats/rng.h"

#include <cstdio>

using namespace ursa;
using namespace ursa::bench;

namespace
{

void
syntheticChains()
{
    std::printf("-- latency bound on random heterogeneous chains "
                "(p99 end-to-end)\n");
    std::printf("%8s %14s %14s %10s\n", "chain", "optimized(ms)",
                "even-split(ms)", "reduction");
    stats::Rng rng(5);
    const core::PercentileGrid grid = core::defaultGrid();
    double totalReduction = 0.0;
    int feasibleBoth = 0;
    for (int n : {2, 3, 4, 5}) {
        // Stages with diverse tail steepness.
        std::vector<std::vector<double>> stages;
        for (int s = 0; s < n; ++s) {
            const double base = rng.uniform(5.0, 40.0);
            const double steep = rng.uniform(0.1, 3.0);
            std::vector<double> row;
            for (std::size_t g = 0; g < grid.size(); ++g)
                row.push_back(base *
                              (1.0 + steep * g * g / 10.0) * 1000.0);
            stages.push_back(row);
        }
        const auto opt =
            core::optimizePercentileSplit(stages, grid, 99.0);
        // Even split: the largest grid percentile with residual <=
        // budget/n for every stage.
        const double share = 1.0 / n;
        int gidx = -1;
        for (std::size_t g = 0; g < grid.size(); ++g)
            if (100.0 - grid[g] <= share + 1e-12)
                gidx = static_cast<int>(g);
        double even = 0.0;
        bool evenFeasible = gidx >= 0;
        if (evenFeasible)
            for (const auto &row : stages)
                even += row[gidx];
        if (opt.feasible && evenFeasible) {
            ++feasibleBoth;
            totalReduction += 1.0 - opt.totalLatency / even;
            std::printf("%8d %14.1f %14.1f %9.1f%%\n", n,
                        opt.totalLatency / 1000.0, even / 1000.0,
                        100.0 * (1.0 - opt.totalLatency / even));
        } else {
            std::printf("%8d %14s %14s\n", n,
                        opt.feasible ? "ok" : "infeasible",
                        evenFeasible ? "ok" : "infeasible");
        }
    }
    if (feasibleBoth)
        std::printf("  mean bound reduction: %.1f%%\n\n",
                    100.0 * totalReduction / feasibleBoth);
}

void
socialNetworkCpu()
{
    std::printf("-- CPU needed by the full Ursa model on the social "
                "network\n");
    const apps::AppSpec app = makeApp(AppId::Social);
    const auto profile =
        core::ExplorationController(paperExploration(2024))
            .exploreApp(app);

    core::ModelInput input;
    input.profile = &profile;
    for (const auto &cls : app.classes)
        input.slas.push_back(cls.sla);
    input.slaVisits = core::computeSlaVisitCounts(app);
    const auto visits = core::computeVisitCounts(app);
    double total = 0.0;
    for (double w : app.exploreMix)
        total += w;
    input.loads.assign(app.services.size(),
                       std::vector<double>(app.classes.size(), 0.0));
    for (std::size_t s = 0; s < app.services.size(); ++s)
        for (std::size_t c = 0; c < app.classes.size(); ++c)
            input.loads[s][c] =
                app.nominalRps * app.exploreMix[c] / total * visits[s][c];

    core::OptimizerOptions normal;
    core::OptimizerOptions even;
    even.evenSplit = true;
    const auto optOut = core::UrsaOptimizer(normal).solve(input);
    const auto evenOut = core::UrsaOptimizer(even).solve(input);

    auto show = [](const char *name, const core::ModelOutput &out) {
        if (out.feasible)
            std::printf("  %-22s feasible, %.1f cores\n", name,
                        out.totalCpuCores);
        else
            std::printf("  %-22s INFEASIBLE\n", name);
    };
    show("optimized split", optOut);
    show("naive even split", evenOut);
    if (optOut.feasible && evenOut.feasible) {
        std::printf("  -> the optimized split saves %.1f%% CPU\n",
                    100.0 * (1.0 - optOut.totalCpuCores /
                                       evenOut.totalCpuCores));
    }
}

} // namespace

int
main()
{
    std::printf("Ablation: Theorem-1 percentile-split optimization vs "
                "a naive even split.\n\n");
    syntheticChains();
    socialNetworkCpu();
    return 0;
}
