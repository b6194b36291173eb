/**
 * @file
 * Determinism regression for the Fig. 11/12 deployment grid: a full
 * (scaled-down) performanceGrid run must give bit-identical rows with
 * URSA_THREADS=1 and URSA_THREADS=8.
 * Every cell owns its cluster and derives all seeds from (system, app,
 * load), so thread scheduling must not leak into results.
 */

#include "common.h"

#include "exec/thread_pool.h"

#include <gtest/gtest.h>

#include <vector>

namespace
{

using namespace ursa;
using namespace ursa::bench;

PerfHarnessOptions
tinyOptions()
{
    PerfHarnessOptions opts;
    opts.warmup = 30 * sim::kSec;
    opts.measure = 2 * sim::kMin;
    opts.firmTrainSteps = 8;
    opts.sinanSamples = 16;
    opts.seed = 7;
    core::ExplorationOptions explore;
    explore.window = 5 * sim::kSec;
    explore.windowsPerLevel = 2;
    explore.seed = opts.seed;
    explore.bpOptions.stepDuration = 10 * sim::kSec;
    explore.bpOptions.sampleWindow = 2 * sim::kSec;
    explore.bpOptions.maxSteps = 3;
    opts.exploration = explore;
    return opts;
}

/** Run the full grid at `threads` ways. */
std::vector<GridRow>
gridRows(int threads)
{
    exec::setThreadCount(threads);
    return performanceGrid(tinyOptions());
}

TEST(GridDeterminism, GridIdenticalAcrossThreadCounts)
{
    const int saved = exec::threadCount();
    const std::vector<GridRow> serialRows = gridRows(1);
    const std::vector<GridRow> parallelRows = gridRows(8);
    exec::setThreadCount(saved);

    ASSERT_EQ(serialRows.size(), parallelRows.size());
    ASSERT_EQ(serialRows.size(), 100u); // 4 apps x 5 loads x 5 systems
    for (std::size_t i = 0; i < serialRows.size(); ++i) {
        EXPECT_EQ(serialRows[i].app, parallelRows[i].app);
        EXPECT_EQ(serialRows[i].load, parallelRows[i].load);
        EXPECT_EQ(serialRows[i].system, parallelRows[i].system);
        EXPECT_EQ(serialRows[i].result.violationRate,
                  parallelRows[i].result.violationRate);
        EXPECT_EQ(serialRows[i].result.cpuCores,
                  parallelRows[i].result.cpuCores);
        // decisionLatencyUs is deliberately not compared: it times the
        // host's solver wall clock, not the simulation.
    }
}

} // namespace
