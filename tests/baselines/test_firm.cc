/** @file Tests for the Firm baseline (per-service RL agents). */

#include "baselines/firm.h"

#include "../core/toy_app.h"
#include "sim/client.h"
#include "workload/arrival.h"

#include <gtest/gtest.h>

#include <vector>

namespace
{

using namespace ursa;
using namespace ursa::baselines;
using namespace ursa::sim;

FirmConfig
fastConfig()
{
    FirmConfig cfg;
    cfg.interval = 15 * kSec;
    cfg.agent.hidden = {16, 16};
    cfg.agent.epsilonDecaySteps = 200;
    cfg.seed = 5;
    return cfg;
}

struct Fixture
{
    apps::AppSpec app = tests::makeToyApp();
    Cluster cluster{29};
    std::unique_ptr<OpenLoopClient> client;

    Fixture()
    {
        app.instantiate(cluster);
        client = std::make_unique<OpenLoopClient>(
            cluster, workload::constantRate(app.nominalRps),
            fixedMix(app.exploreMix), 9);
        client->start(0);
    }
};

TEST(Firm, TrainingAdvancesTimeAndSteps)
{
    Fixture f;
    FirmController firm(f.cluster, f.app, fastConfig());
    const SimTime before = f.cluster.events().now();
    firm.trainOnline(20);
    EXPECT_EQ(firm.trainingSteps(), 20);
    EXPECT_EQ(f.cluster.events().now(), before + 20 * (15 * kSec));
    EXPECT_GT(firm.trainStepLatencyUs().count(), 0u);
}

TEST(Firm, DeployTickActsOnEveryService)
{
    Fixture f;
    FirmController firm(f.cluster, f.app, fastConfig());
    firm.trainOnline(40);
    firm.start(f.cluster.events().now());
    f.cluster.run(f.cluster.events().now() + 5 * kMin);
    // One decision per service per interval.
    EXPECT_GE(firm.decisionLatencyUs().count(),
              static_cast<std::size_t>(3 * 5 * 60 / 15));
    for (ServiceId s = 0; s < f.cluster.numServices(); ++s)
        EXPECT_GE(f.cluster.service(s).activeReplicas(), 1);
}

// Pins what Firm learns and does on the toy app at a fixed seed: the
// replica vector after online training, then after the next deployed
// decision round (one action per service). Every input the agents read
// (latency pressure, utilization, load) feeds these, so a change in how
// the metrics are recorded or queried that moves any state shows here.
TEST(Firm, TrainedReplicasAndNextDecisionArePinned)
{
    Fixture f;
    FirmController firm(f.cluster, f.app, fastConfig());
    const auto replicas = [&f] {
        std::vector<int> out;
        for (ServiceId s = 0; s < f.cluster.numServices(); ++s)
            out.push_back(f.cluster.service(s).activeReplicas());
        return out;
    };
    firm.trainOnline(40);
    EXPECT_EQ(replicas(), (std::vector<int>{7, 18, 5}));
    const SimTime now = f.cluster.events().now();
    firm.start(now);
    f.cluster.run(now + kSec); // exactly one decision round
    EXPECT_EQ(firm.decisionLatencyUs().count(), 3u);
    EXPECT_EQ(replicas(), (std::vector<int>{7, 20, 7}));
}

TEST(Firm, AnomalyInjectionIsReverted)
{
    Fixture f;
    auto cfg = fastConfig();
    cfg.anomalyProbability = 1.0; // throttle every step
    FirmController firm(f.cluster, f.app, cfg);
    firm.trainOnline(10);
    // After training, all services run unthrottled again: a short
    // window at low load should show healthy latencies.
    f.cluster.service(f.cluster.serviceId("worker")).setReplicas(8);
    const SimTime t0 = f.cluster.events().now();
    f.cluster.run(t0 + 2 * kMin);
    const auto lat =
        f.cluster.metrics().endToEnd(0).collect(t0 + kMin, t0 + 2 * kMin);
    ASSERT_FALSE(lat.empty());
    EXPECT_LT(lat.percentile(50.0), 20000.0); // ~6ms nominal
}

TEST(Firm, RewardPenalizesViolationsMoreThanItRewardsSavings)
{
    // Structural check on the config defaults: SLA weight dominates.
    const FirmConfig cfg;
    EXPECT_GT(cfg.slaWeight, cfg.resourceWeight);
}

} // namespace
