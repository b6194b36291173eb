/**
 * @file
 * Reproduces paper Figs. 11 and 12 from one simulation of the
 * deployment grid: Ursa, Sinan, Firm, Auto-a and Auto-b across the four
 * applications (social network, vanilla social network, media service,
 * video pipeline) under constant, dynamic (diurnal + burst) and skewed
 * loads.
 *
 * Fig. 11 is the SLA violation rate. Expected shape (Sec. VII-E): Ursa
 * 0.1-8.5% under constant/dynamic and 0.5-2% under skewed loads; ML
 * systems 9-52%; Auto-a worst; Auto-b close to Ursa on SLAs.
 *
 * Fig. 12 is the mean total CPU allocation (cores). Expected shape:
 * Auto-a allocates the least (but violates SLAs); Ursa allocates up to
 * 86% less than the ML systems under constant/dynamic loads and well
 * below Auto-b; under skewed loads Ursa may use slightly more than the
 * ML systems while keeping violations low.
 */

#include "common.h"

#include <cstdio>
#include <functional>
#include <vector>

using namespace ursa::bench;

namespace
{

const System kSystems[] = {System::Ursa, System::Sinan, System::Firm,
                           System::AutoA, System::AutoB};

/** One row per (app, load), one column per system. */
void
printTable(const std::vector<GridRow> &grid,
           const std::function<void(const CellResult &)> &printCell)
{
    std::printf("%-15s %-9s", "app", "load");
    for (System s : kSystems)
        std::printf(" %9s", toString(s));
    std::printf("\n");

    AppId lastApp = AppId::VideoPipeline;
    bool first = true;
    for (const GridRow &row : grid) {
        if (row.system != System::Ursa)
            continue; // one printed row per (app, load)
        if (!first && row.app != lastApp)
            std::printf("\n");
        first = false;
        lastApp = row.app;
        std::printf("%-15s %-9s", toString(row.app), toString(row.load));
        for (System s : kSystems) {
            for (const GridRow &cell : grid) {
                if (cell.app == row.app && cell.load == row.load &&
                    cell.system == s)
                    printCell(cell.result);
            }
        }
        std::printf("\n");
    }
}

} // namespace

int
main()
{
    std::printf("Fig. 11 reproduction: SLA violation rate (%% of "
                "1-minute windows whose latency at the\nSLA percentile "
                "exceeds the target), per system / application / "
                "load.\n\n");
    PerfHarnessOptions opts;
    const auto grid = performanceGrid(opts);

    printTable(grid, [](const CellResult &r) {
        std::printf(" %8.1f%%", 100.0 * r.violationRate);
    });

    // Aggregate summary in the paper's terms.
    auto meanViol = [&](System s, bool skewed) {
        double sum = 0.0;
        int n = 0;
        for (const GridRow &row : grid) {
            const bool isSkew = row.load == LoadKind::SkewedUp ||
                                row.load == LoadKind::SkewedDown;
            if (row.system == s && isSkew == skewed) {
                sum += row.result.violationRate;
                ++n;
            }
        }
        return 100.0 * sum / n;
    };
    std::printf("\nmean violation rate (constant+dynamic | skewed):\n");
    for (System s : kSystems) {
        std::printf("  %-7s %5.1f%% | %5.1f%%\n", toString(s),
                    meanViol(s, false), meanViol(s, true));
    }

    std::printf("\nFig. 12 reproduction: mean CPU allocation (cores), "
                "per system / application / load.\n\n");
    printTable(grid, [](const CellResult &r) {
        std::printf(" %9.1f", r.cpuCores);
    });

    // Ursa's savings vs each system (paper quotes up to 86.2% vs ML,
    // and Auto-b allocating 13.6-148% more than Ursa).
    std::printf("\nmean CPU relative to Ursa (>1: uses more):\n");
    for (System s : kSystems) {
        double ratioSum = 0.0;
        int n = 0;
        for (const GridRow &row : grid) {
            if (row.system != s)
                continue;
            for (const GridRow &u : grid) {
                if (u.system == System::Ursa && u.app == row.app &&
                    u.load == row.load) {
                    ratioSum += row.result.cpuCores / u.result.cpuCores;
                    ++n;
                }
            }
        }
        std::printf("  %-7s %5.2fx\n", toString(s), ratioSum / n);
    }
    return 0;
}
