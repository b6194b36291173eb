/**
 * @file
 * Connected-mesh sharding tests: one canonical social-network topology
 * with default per-hop network delays is cut into shards by
 * computeShardPlan and co-advanced with cross-shard event exchange.
 * Covers the PR-10 acceptance contract: the plan splits the mesh, the
 * sharded run is bit-identical across URSA_THREADS, its request
 * accounting matches a single-Cluster run of the same spec, the
 * window/lookahead clamp is enforced, and the heap event queue stays a
 * faithful differential oracle under cross-shard injections.
 */

#include "apps/app.h"
#include "check/check.h"
#include "exec/thread_pool.h"
#include "sim/client.h"
#include "sim/cluster.h"
#include "sim/shard.h"
#include "workload/arrival.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

namespace
{

using namespace ursa;
using namespace ursa::sim;

constexpr double kRps = 100.0;
constexpr SimTime kStop = 20 * kSec;  ///< client stops here
constexpr SimTime kEnd = 50 * kSec;   ///< drain horizon (quiescence)

/**
 * One connected social-network mesh cut into plan.shards shard
 * replicas, with the open-loop client attached to the shard that owns
 * the frontend (every class roots there).
 */
struct MeshFixture
{
    apps::AppSpec app;
    ShardPlan plan;
    std::vector<std::unique_ptr<Cluster>> shards;
    std::unique_ptr<OpenLoopClient> client;
    ShardedSim sim;

    explicit MeshFixture(std::uint64_t seed) : app(apps::makeSocialNetwork(false))
    {
        // The plan only depends on the finalized topology, so compute
        // it from the first replica.
        shards.push_back(std::make_unique<Cluster>(seed));
        app.instantiate(*shards[0]);
        plan = computeShardPlan(*shards[0]);
        for (int k = 1; k < plan.shards; ++k) {
            shards.push_back(
                std::make_unique<Cluster>(seed + 17ULL * k));
            app.instantiate(*shards.back());
        }
        for (auto &s : shards)
            sim.addShard(*s);
        sim.connectMesh(plan);

        const int front = plan.serviceGroup[static_cast<std::size_t>(
            shards[0]->serviceId("frontend"))];
        client = std::make_unique<OpenLoopClient>(
            *shards[static_cast<std::size_t>(front)],
            workload::constantRate(kRps), fixedMix(app.exploreMix),
            seed + 5);
        client->start(0);
    }

    /** Client-on until kStop, then drain to quiescence at kEnd. */
    void
    runAndDrain()
    {
        sim.run(kStop);
        client->stop();
        sim.run(kEnd);
    }
};

/** A single-Cluster run of the same spec, client seeded identically. */
struct SingleFixture
{
    apps::AppSpec app;
    Cluster cluster;
    std::unique_ptr<OpenLoopClient> client;

    explicit SingleFixture(std::uint64_t seed)
        : app(apps::makeSocialNetwork(false)), cluster(seed)
    {
        app.instantiate(cluster);
        client = std::make_unique<OpenLoopClient>(
            cluster, workload::constantRate(kRps),
            fixedMix(app.exploreMix), seed + 5);
        client->start(0);
    }

    void
    runAndDrain()
    {
        cluster.run(kStop);
        client->stop();
        cluster.run(kEnd);
    }
};

TEST(MeshPlan, SocialNetworkSplitsUnderDefaultDelays)
{
    Cluster c(1);
    apps::makeSocialNetwork(false).instantiate(c);
    const ShardPlan plan = computeShardPlan(c);
    // Every call edge carries the default per-hop delay, so no two
    // services are forced into one event queue: eight singleton groups.
    EXPECT_EQ(plan.shards, c.numServices());
    GTEST_ASSERT_GE(plan.shards, 2);
    EXPECT_EQ(plan.lookaheadUs, kDefaultNetDelayUs);
}

TEST(MeshPlan, MixedDelaysMergeOnlyZeroLatencyEdges)
{
    Cluster c(1);
    apps::AppSpec app = apps::makeSocialNetwork(false);
    // Colocate timeline-read with post-storage (explicit zero-latency
    // edges) and slow the social-graph hop; everything else keeps the
    // default floor.
    for (auto &svc : app.services) {
        if (svc.name != "timeline-read")
            continue;
        for (auto &[cls, b] : svc.behaviors) {
            (void)cls;
            for (auto &call : b.calls) {
                if (call.target == "post-storage")
                    call.netDelayUs = 0;
                else if (call.target == "social-graph")
                    call.netDelayUs = 5 * kDefaultNetDelayUs;
            }
        }
    }
    app.instantiate(c);
    const ShardPlan plan = computeShardPlan(c);
    EXPECT_EQ(plan.shards, c.numServices() - 1);
    EXPECT_EQ(plan.serviceGroup[c.serviceId("timeline-read")],
              plan.serviceGroup[c.serviceId("post-storage")]);
    // The slowed hop does not change the mesh-wide minimum.
    EXPECT_EQ(plan.lookaheadUs, kDefaultNetDelayUs);
}

TEST(MeshSharded, WindowClampedToLookahead)
{
    MeshFixture mesh(11);
    EXPECT_EQ(mesh.sim.window(), mesh.plan.lookaheadUs);
}

/** Per-shard digest: every count is bit-exact under the determinism
 *  contract, and the e2e percentiles on the client shard double-check
 *  the actual latency samples, not just the bookkeeping. */
std::pair<std::vector<std::uint64_t>, std::vector<double>>
meshDigest(const MeshFixture &mesh)
{
    std::vector<std::uint64_t> counts;
    std::vector<double> lat;
    for (const auto &s : mesh.shards) {
        counts.push_back(s->events().processed());
        counts.push_back(s->submitted());
        counts.push_back(s->completed());
        counts.push_back(s->remoteSubmitted());
        counts.push_back(s->remoteCompleted());
        for (int c = 0; c < s->numClasses(); ++c) {
            const auto agg = s->metrics().endToEnd(c).collect(0, kEnd);
            counts.push_back(agg.count());
            if (agg.count() > 0)
                lat.push_back(agg.percentile(99));
        }
    }
    return {counts, lat};
}

TEST(MeshSharded, BitIdenticalAcrossThreadCounts)
{
    auto runAll = [](int threads) {
        ursa::exec::setThreadCount(threads);
        MeshFixture mesh(42);
        mesh.runAndDrain();
        return meshDigest(mesh);
    };
    const auto serial = runAll(1);
    const auto parallel = runAll(8);
    ursa::exec::setThreadCount(1);
    EXPECT_EQ(serial.first, parallel.first);
    EXPECT_EQ(serial.second, parallel.second);
    ASSERT_GE(serial.first[0], 1000u); // the mesh actually simulated
}

TEST(MeshSharded, RequestAccountingMatchesSingleClusterRun)
{
    SingleFixture single(42);
    single.runAndDrain();

    MeshFixture mesh(42);
    mesh.runAndDrain();

    // The client streams are seeded identically and every class visits
    // a fixed set of services, so the request-level accounting must
    // match the single-Cluster run exactly: same submissions, both
    // fully drained, same per-class completions, same per-(service,
    // class) arrival counts. (Raw event counts legitimately differ —
    // the mesh adds cross-shard delivery events and per-shard
    // samplers; per-sample latencies differ because each shard owns an
    // independent compute-RNG stream.)
    EXPECT_EQ(mesh.client->submitted(), single.client->submitted());
    EXPECT_EQ(single.cluster.completed(), single.cluster.submitted());

    std::uint64_t meshSubmitted = 0, meshCompleted = 0;
    for (const auto &s : mesh.shards) {
        meshSubmitted += s->submitted();
        meshCompleted += s->completed();
    }
    EXPECT_EQ(meshSubmitted, single.cluster.submitted());
    EXPECT_EQ(meshCompleted, meshSubmitted);

    const int numServices = single.cluster.numServices();
    const int numClasses = single.cluster.numClasses();
    for (int c = 0; c < numClasses; ++c) {
        std::uint64_t meshDone = 0;
        for (const auto &s : mesh.shards)
            meshDone += s->metrics().endToEnd(c).collect(0, kEnd).count();
        EXPECT_EQ(meshDone,
                  single.cluster.metrics().endToEnd(c).collect(0, kEnd)
                      .count())
            << "class " << c;
        for (int s = 0; s < numServices; ++s) {
            const auto arrivalsBefore = [&](const MetricsRegistry &m) {
                std::uint64_t n = 0;
                for (const auto &w : m.arrivals(s, c).windows())
                    if (w.start < kEnd)
                        n += w.count;
                return n;
            };
            std::uint64_t meshArrivals = 0;
            for (const auto &sh : mesh.shards)
                meshArrivals += arrivalsBefore(sh->metrics());
            EXPECT_EQ(meshArrivals, arrivalsBefore(single.cluster.metrics()))
                << "service " << s << " class " << c;
        }
    }

    // Latency distributions agree statistically (independent RNG
    // streams per shard): the heavy sync class's mean is within a few
    // percent over ~1k samples, and both runs carry the two network
    // hops to post-storage and back.
    const ClassId comment = 1;
    double meshMean = 0.0;
    std::uint64_t meshN = 0;
    for (const auto &s : mesh.shards) {
        const auto agg = s->metrics().endToEnd(comment).collect(0, kEnd);
        meshMean += agg.mean() * static_cast<double>(agg.count());
        meshN += agg.count();
    }
    meshMean /= static_cast<double>(meshN);
    const auto singleAgg =
        single.cluster.metrics().endToEnd(comment).collect(0, kEnd);
    EXPECT_NEAR(meshMean / singleAgg.mean(), 1.0, 0.10);
    EXPECT_GT(singleAgg.percentile(50),
              static_cast<double>(2 * kDefaultNetDelayUs));
}

#if URSA_CHECK_LEVEL >= 1
TEST(MeshSharded, OversizedWindowTripsTheLookaheadCheck)
{
    MeshFixture mesh(7);
    mesh.sim.overrideWindowForTest(5 * mesh.plan.lookaheadUs);

    // With the clamp broken, run() must flag the misconfiguration up
    // front, and the first message landing at or before a window edge
    // trips the injection check before the queue's own past-scheduling
    // contract throws.
    check::ScopedCapture trap;
    EXPECT_THROW(mesh.sim.run(4 * kSec), std::logic_error);
    bool sawShardViolation = false;
    for (const auto &v : trap.violations())
        if (std::string(v.component) == "sim.shard")
            sawShardViolation = true;
    EXPECT_TRUE(sawShardViolation);
}
#endif

TEST(MeshSharded, HeapQueueIsAFaithfulOracleUnderCrossShardInjection)
{
    auto runWith = [](const char *backend) {
        ::setenv("URSA_EVENTQUEUE", backend, 1);
        MeshFixture mesh(13);
        mesh.runAndDrain();
        auto digest = meshDigest(mesh);
        ::unsetenv("URSA_EVENTQUEUE");
        return digest;
    };
    const auto calendar = runWith("calendar");
    const auto heap = runWith("heap");
    EXPECT_EQ(calendar.first, heap.first);
    EXPECT_EQ(calendar.second, heap.second);
}

} // namespace
