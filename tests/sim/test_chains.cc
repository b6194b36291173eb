/**
 * @file
 * Integration tests for multi-tier topologies: nested RPC blocking,
 * event-driven dispatch, message queues with priorities, async request
 * completion, the backpressure mechanism of paper Sec. III, and the
 * per-hop channel delay.
 */

#include "sim/client.h"
#include "sim/cluster.h"

#include <gtest/gtest.h>

namespace
{

using namespace ursa::sim;

/** Build an n-tier chain connected by `kind`; returns the cluster.
 * The hops are colocated (zero delay) unless `colocated` is false, in
 * which case they keep the CallSpec default delay. */
std::unique_ptr<Cluster>
makeChain(int tiers, CallKind kind, double computeMs, int threads,
          double cpu, std::uint64_t seed = 42, bool colocated = true)
{
    auto c = std::make_unique<Cluster>(seed);
    for (int t = 0; t < tiers; ++t) {
        ServiceConfig cfg;
        cfg.name = "tier" + std::to_string(t + 1);
        cfg.threads = threads;
        cfg.daemonThreads = threads;
        cfg.cpuPerReplica = cpu;
        cfg.mqConsumer = (kind == CallKind::MqPublish && t > 0);
        ClassBehavior b;
        b.computeMeanUs = computeMs * 1000.0;
        b.computeCv = 0.1;
        if (t + 1 < tiers) {
            // Colocated by default: most tests pin exact latency sums
            // of the compute model, so the hops carry no network delay.
            CallSpec call{"tier" + std::to_string(t + 2), kind};
            if (colocated)
                call.netDelayUs = 0;
            b.calls.push_back(call);
        }
        cfg.behaviors[0] = b;
        c->addService(cfg);
    }
    RequestClassSpec spec;
    spec.name = "req";
    spec.rootService = "tier1";
    spec.sla = {99.0, fromMs(10000.0)};
    spec.asyncCompletion = (kind == CallKind::MqPublish);
    c->addClass(spec);
    c->finalize();
    return c;
}

TEST(Chains, NestedRpcLatencyIsSumOfTiers)
{
    auto c = makeChain(3, CallKind::NestedRpc, 10.0, 8, 4.0);
    SimTime lat = -1;
    RequestPtr r = c->submit(0);
    r->onSyncDone = [&](Request &rr) {
        lat = rr.syncDoneTime - rr.submitTime;
    };
    c->run(kSec);
    ASSERT_GT(lat, 0);
    EXPECT_NEAR(toMs(lat), 30.0, 3.0);
}

TEST(ShardPlan, DefaultDelayIsTheRealisticPerHopFloor)
{
    // Unannotated edges get the default floor, not zero: colocated hops
    // add nothing to the compute sum, while an edge that names no delay
    // pays kDefaultNetDelayUs once out and once back on each hop.
    auto syncLatency = [](bool colocated) {
        auto c = makeChain(3, CallKind::NestedRpc, 10.0, 8, 4.0, 42,
                           colocated);
        EXPECT_EQ(c->service("tier1").config().behaviors.at(0)
                      .calls.at(0).netDelayUs,
                  colocated ? 0 : kDefaultNetDelayUs);
        SimTime lat = -1;
        RequestPtr r = c->submit(0);
        r->onSyncDone = [&](Request &rr) {
            lat = rr.syncDoneTime - rr.submitTime;
        };
        c->run(kSec);
        return lat;
    };
    const SimTime colocated = syncLatency(true);
    ASSERT_GT(colocated, 0);
    EXPECT_NEAR(static_cast<double>(syncLatency(false) - colocated),
                4.0 * kDefaultNetDelayUs, 0.05 * kDefaultNetDelayUs);
}

TEST(Chains, SteppedRunMatchesOneRun)
{
    // Advancing a cluster by run() in short steps, with latency-bearing
    // hops in flight across every step edge, must execute exactly the
    // events of one run() to the same end.
    struct Run
    {
        std::unique_ptr<Cluster> c =
            makeChain(3, CallKind::NestedRpc, 2.0, 8, 4.0, 7, false);
        OpenLoopClient client{*c, [](SimTime) { return 400.0; },
                              fixedMix({1.0}), 12};
        Run() { client.start(0); }
    };
    Run plain, stepped;
    plain.c->run(10 * kSec);
    for (SimTime t = kSec / 4; t <= 10 * kSec; t += kSec / 4)
        stepped.c->run(t);

    EXPECT_EQ(stepped.c->events().now(), 10 * kSec);
    EXPECT_EQ(stepped.c->events().processed(),
              plain.c->events().processed());
    EXPECT_EQ(stepped.c->submitted(), plain.c->submitted());
    EXPECT_EQ(stepped.c->completed(), plain.c->completed());
    EXPECT_GT(plain.c->completed(), 3000u);
}

TEST(Chains, NestedRpcTierLatencyExcludesDownstreamWait)
{
    auto c = makeChain(3, CallKind::NestedRpc, 10.0, 8, 4.0);
    c->submit(0);
    c->run(kSec);
    for (int t = 0; t < 3; ++t) {
        const auto agg = c->metrics().tierLatency(t, 0).collect(0, kSec);
        ASSERT_EQ(agg.count(), 1u) << "tier " << t;
        // Each tier's own latency is ~10ms even though tier1's
        // response took ~30ms end-to-end.
        EXPECT_NEAR(agg.percentile(50) / 1000.0, 10.0, 2.0)
            << "tier " << t;
    }
}

TEST(Chains, EventRpcResponseGatedOnDownstream)
{
    // Event-driven RPC is "not fully asynchronous" (paper Fig. 1b):
    // the daemon thread waits for the downstream reply, so the
    // client-visible response covers the whole chain.
    auto c = makeChain(2, CallKind::EventRpc, 10.0, 8, 4.0);
    SimTime syncLat = -1, fullLat = -1;
    RequestPtr r = c->submit(0);
    r->onSyncDone = [&](Request &rr) {
        syncLat = rr.syncDoneTime - rr.submitTime;
    };
    r->onFullyDone = [&](Request &rr) {
        fullLat = rr.allDoneTime - rr.submitTime;
    };
    c->run(kSec);
    ASSERT_GT(syncLat, 0);
    EXPECT_NEAR(toMs(syncLat), 20.0, 3.0);
    EXPECT_EQ(syncLat, fullLat);
}

TEST(Chains, EventRpcFreesWorkerDuringDownstreamWait)
{
    // One upstream worker but two daemons: two requests overlap their
    // downstream waits (nested RPC would serialize them).
    auto c = std::make_unique<Cluster>(31);
    ServiceConfig up;
    up.name = "up";
    up.threads = 1;
    up.daemonThreads = 2;
    up.cpuPerReplica = 4.0;
    ClassBehavior ub;
    ub.computeMeanUs = 1000.0;
    ub.computeCv = 0.0;
    ub.calls = {{"down", CallKind::EventRpc, 0}};
    up.behaviors[0] = ub;
    c->addService(up);

    ServiceConfig down;
    down.name = "down";
    down.threads = 8;
    down.cpuPerReplica = 4.0;
    ClassBehavior db;
    db.computeMeanUs = 50000.0;
    db.computeCv = 0.0;
    down.behaviors[0] = db;
    c->addService(down);

    RequestClassSpec spec;
    spec.name = "req";
    spec.rootService = "up";
    spec.sla = {99.0, fromMs(1000.0)};
    c->addClass(spec);
    c->finalize();

    std::vector<SimTime> lat;
    for (int i = 0; i < 2; ++i) {
        RequestPtr r = c->submit(0);
        r->onSyncDone = [&](Request &rr) {
            lat.push_back(rr.syncDoneTime - rr.submitTime);
        };
    }
    c->run(kSec);
    ASSERT_EQ(lat.size(), 2u);
    // Both ~52ms (1ms compute + 50ms downstream), overlapped thanks to
    // the freed worker; nested would give the second ~102ms.
    EXPECT_NEAR(toMs(lat[0]), 52.0, 4.0);
    EXPECT_NEAR(toMs(lat[1]), 53.0, 4.0);
}

TEST(Chains, MqPublishDecouplesProducer)
{
    auto c = makeChain(2, CallKind::MqPublish, 10.0, 8, 4.0);
    SimTime syncLat = -1, fullLat = -1;
    RequestPtr r = c->submit(0);
    r->onSyncDone = [&](Request &rr) {
        syncLat = rr.syncDoneTime - rr.submitTime;
    };
    r->onFullyDone = [&](Request &rr) {
        fullLat = rr.allDoneTime - rr.submitTime;
    };
    c->run(kSec);
    EXPECT_NEAR(toMs(syncLat), 10.0, 2.0);
    EXPECT_NEAR(toMs(fullLat), 20.0, 3.0);
}

TEST(Chains, MqQueueWaitCountsTowardConsumerTier)
{
    // Slow consumer (1 thread): messages queue; the consumer tier's
    // recorded latency includes the queue wait.
    auto c = std::make_unique<Cluster>(7);
    ServiceConfig producer;
    producer.name = "prod";
    producer.threads = 16;
    producer.cpuPerReplica = 8.0;
    ClassBehavior pb;
    pb.computeMeanUs = 100.0;
    pb.computeCv = 0.0;
    pb.calls.push_back({"cons", CallKind::MqPublish, 0});
    producer.behaviors[0] = pb;
    c->addService(producer);

    ServiceConfig consumer;
    consumer.name = "cons";
    consumer.threads = 1;
    consumer.cpuPerReplica = 1.0;
    consumer.mqConsumer = true;
    ClassBehavior cb;
    cb.computeMeanUs = 10000.0; // 10 ms
    cb.computeCv = 0.0;
    consumer.behaviors[0] = cb;
    c->addService(consumer);

    RequestClassSpec spec;
    spec.name = "req";
    spec.rootService = "prod";
    spec.asyncCompletion = true;
    spec.sla = {99.0, fromMs(1000.0)};
    c->addClass(spec);
    c->finalize();

    for (int i = 0; i < 5; ++i)
        c->submit(0);
    c->run(kSec);
    const auto agg =
        c->metrics().tierLatency(c->serviceId("cons"), 0).collect(0, kSec);
    ASSERT_EQ(agg.count(), 5u);
    // Messages drain serially: latencies ~10,20,30,40,50 ms.
    EXPECT_NEAR(agg.percentile(100) / 1000.0, 50.0, 3.0);
    EXPECT_NEAR(agg.percentile(0) / 1000.0, 10.0, 2.0);
}

TEST(Chains, MqStrictPriorityOrder)
{
    // One consumer worker; submit a high and low priority mix while the
    // worker is busy; all high-priority messages should complete before
    // any queued low-priority one.
    auto c = std::make_unique<Cluster>(11);
    ServiceConfig producer;
    producer.name = "prod";
    producer.threads = 16;
    producer.cpuPerReplica = 8.0;
    ClassBehavior pb;
    pb.computeMeanUs = 100.0;
    pb.computeCv = 0.0;
    pb.calls.push_back({"cons", CallKind::MqPublish, 0});
    producer.behaviors[0] = pb;
    producer.behaviors[1] = pb;
    c->addService(producer);

    ServiceConfig consumer;
    consumer.name = "cons";
    consumer.threads = 1;
    consumer.cpuPerReplica = 1.0;
    consumer.mqConsumer = true;
    ClassBehavior cb;
    cb.computeMeanUs = 5000.0;
    cb.computeCv = 0.0;
    consumer.behaviors[0] = cb;
    consumer.behaviors[1] = cb;
    c->addService(consumer);

    RequestClassSpec high;
    high.name = "high";
    high.rootService = "prod";
    high.priority = 0;
    high.asyncCompletion = true;
    high.sla = {99.0, fromMs(1000.0)};
    RequestClassSpec low = high;
    low.name = "low";
    low.priority = 1;
    c->addClass(high);
    c->addClass(low);
    c->finalize();

    std::vector<std::pair<SimTime, int>> completions;
    auto track = [&](ClassId cls, int tag) {
        RequestPtr r = c->submit(cls);
        r->onFullyDone = [&completions, tag](Request &rr) {
            completions.emplace_back(rr.allDoneTime, tag);
        };
    };
    // Interleave: L H L H L H — low first so it seizes the worker.
    track(1, 0);
    track(0, 1);
    track(1, 0);
    track(0, 1);
    track(1, 0);
    track(0, 1);
    c->run(kSec);
    ASSERT_EQ(completions.size(), 6u);
    // First completion is the low-priority message that grabbed the
    // free worker; among the five queued ones, all high (tag 1) finish
    // before any queued low.
    std::vector<int> order;
    for (const auto &[t, tag] : completions)
        order.push_back(tag);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 1, 1, 0, 0}));
}

TEST(Chains, BackpressureParentSaturatesUnderLeafThrottle)
{
    // 3-tier nested chain, closed-loop client; throttle the leaf and
    // verify the parent (tier2)'s own response time inflates while
    // tier1's inflates less — the Sec. III attenuation shape.
    //
    // Worker pools are graded by depth: the client-facing tier is
    // provisioned for whole-request thread occupancy while deeper
    // tiers only cover their own short work, so when the leaf slows,
    // its parent's pool exhausts first and the (closed-loop-bounded)
    // backlog sits there.
    auto c = std::make_unique<Cluster>(17);
    const int pools[3] = {48, 8, 16};
    for (int t = 0; t < 3; ++t) {
        ServiceConfig cfg;
        cfg.name = "tier" + std::to_string(t + 1);
        cfg.threads = pools[t];
        cfg.cpuPerReplica = 2.0;
        ClassBehavior b;
        b.computeMeanUs = 5000.0;
        b.computeCv = 0.1;
        if (t < 2)
            b.calls.push_back(
                {"tier" + std::to_string(t + 2), CallKind::NestedRpc, 0});
        cfg.behaviors[0] = b;
        c->addService(cfg);
    }
    RequestClassSpec spec;
    spec.name = "req";
    spec.rootService = "tier1";
    spec.sla = {99.0, fromMs(10000.0)};
    c->addClass(spec);
    c->finalize();

    ClosedLoopClient client(*c, 12, 75 * kMsec, fixedMix({1.0}), 3);
    client.start(0);
    c->run(2 * kMin);
    // Throttle leaf hard for 2 minutes.
    c->service(2).setCpuFactor(0.12);
    c->run(4 * kMin);
    c->service(2).setCpuFactor(1.0);
    c->run(6 * kMin);

    auto p99 = [&](ServiceId s, SimTime from, SimTime to) {
        return c->metrics().tierLatency(s, 0).collect(from, to)
            .percentile(99.0);
    };
    const double tier1Before = p99(0, kMin, 2 * kMin);
    const double tier2Before = p99(1, kMin, 2 * kMin);
    const double tier1During = p99(0, 3 * kMin, 4 * kMin);
    const double tier2During = p99(1, 3 * kMin, 4 * kMin);

    // Parent of the culprit shows strong backpressure.
    EXPECT_GT(tier2During, 3.0 * tier2Before);
    // The effect attenuates at the tier above.
    EXPECT_LT(tier1During / tier1Before, tier2During / tier2Before);
}

TEST(Chains, NoBackpressureThroughMq)
{
    auto c = makeChain(3, CallKind::MqPublish, 5.0, 6, 2.0, 19);
    OpenLoopClient client(*c, [](SimTime) { return 40.0; },
                          fixedMix({1.0}), 3);
    client.start(0);
    c->run(2 * kMin);
    c->service(2).setCpuFactor(0.12);
    c->run(4 * kMin);

    auto p99 = [&](ServiceId s, SimTime from, SimTime to) {
        return c->metrics().tierLatency(s, 0).collect(from, to)
            .percentile(99.0);
    };
    // Producer tiers are unaffected by the throttled MQ consumer.
    EXPECT_NEAR(p99(0, 3 * kMin, 4 * kMin), p99(0, kMin, 2 * kMin),
                0.5 * p99(0, kMin, 2 * kMin));
    EXPECT_NEAR(p99(1, 3 * kMin, 4 * kMin), p99(1, kMin, 2 * kMin),
                0.5 * p99(1, kMin, 2 * kMin));
    // The throttled consumer itself suffers.
    EXPECT_GT(p99(2, 3 * kMin, 4 * kMin), 2.0 * p99(2, kMin, 2 * kMin));
}

TEST(Chains, FanOutCumulativeCalls)
{
    // A root calling the same downstream twice accumulates latency.
    auto c = std::make_unique<Cluster>(23);
    ServiceConfig root;
    root.name = "root";
    root.threads = 8;
    root.cpuPerReplica = 4.0;
    ClassBehavior rb;
    rb.computeMeanUs = 1000.0;
    rb.computeCv = 0.0;
    rb.calls.push_back({"leaf", CallKind::NestedRpc, 0});
    rb.calls.push_back({"leaf", CallKind::NestedRpc, 0});
    root.behaviors[0] = rb;
    c->addService(root);

    ServiceConfig leaf;
    leaf.name = "leaf";
    leaf.threads = 8;
    leaf.cpuPerReplica = 4.0;
    ClassBehavior lb;
    lb.computeMeanUs = 5000.0;
    lb.computeCv = 0.0;
    leaf.behaviors[0] = lb;
    c->addService(leaf);

    RequestClassSpec spec;
    spec.name = "req";
    spec.rootService = "root";
    spec.sla = {99.0, fromMs(1000.0)};
    c->addClass(spec);
    c->finalize();

    SimTime lat = -1;
    RequestPtr r = c->submit(0);
    r->onSyncDone = [&](Request &rr) {
        lat = rr.syncDoneTime - rr.submitTime;
    };
    c->run(kSec);
    // 1ms root + 2 x 5ms leaf calls = ~11ms.
    EXPECT_NEAR(toMs(lat), 11.0, 1.5);
}

TEST(Chains, ParallelFanOutLatencyIsMax)
{
    // Root fans out to a slow and a fast leaf concurrently: e2e is
    // root + max(slow, fast), not the sum.
    auto c = std::make_unique<Cluster>(41);
    ServiceConfig root;
    root.name = "root";
    root.threads = 8;
    root.cpuPerReplica = 4.0;
    ClassBehavior rb;
    rb.computeMeanUs = 1000.0;
    rb.computeCv = 0.0;
    rb.parallelCalls = true;
    rb.calls = {{"slow", CallKind::NestedRpc, 0},
                {"fast", CallKind::NestedRpc, 0}};
    root.behaviors[0] = rb;
    c->addService(root);
    for (auto [name, ms] : {std::pair{"slow", 20.0}, {"fast", 5.0}}) {
        ServiceConfig leaf;
        leaf.name = name;
        leaf.threads = 8;
        leaf.cpuPerReplica = 4.0;
        ClassBehavior lb;
        lb.computeMeanUs = ms * 1000.0;
        lb.computeCv = 0.0;
        leaf.behaviors[0] = lb;
        c->addService(leaf);
    }
    RequestClassSpec spec;
    spec.name = "req";
    spec.rootService = "root";
    spec.sla = {99.0, fromMs(1000.0)};
    c->addClass(spec);
    c->finalize();

    SimTime lat = -1;
    RequestPtr r = c->submit(0);
    r->onSyncDone = [&](Request &rr) {
        lat = rr.syncDoneTime - rr.submitTime;
    };
    c->run(kSec);
    // 1 + max(20, 5) = 21 ms (sequential would be 26 ms).
    EXPECT_NEAR(toMs(lat), 21.0, 1.5);
    // The root's own tier latency still excludes the downstream wait.
    const auto agg = c->metrics().tierLatency(0, 0).collect(0, kSec);
    EXPECT_NEAR(agg.percentile(50) / 1000.0, 1.0, 0.3);
}

TEST(Chains, ParallelFanOutWithMqBranch)
{
    // A parallel stage mixing a nested call and an MQ publish: the
    // sync response waits only for the nested branch; the MQ branch
    // completes asynchronously.
    auto c = std::make_unique<Cluster>(43);
    ServiceConfig root;
    root.name = "root";
    root.threads = 8;
    root.cpuPerReplica = 4.0;
    ClassBehavior rb;
    rb.computeMeanUs = 1000.0;
    rb.computeCv = 0.0;
    rb.parallelCalls = true;
    rb.calls = {{"leaf", CallKind::NestedRpc, 0},
                {"mq", CallKind::MqPublish, 0}};
    root.behaviors[0] = rb;
    c->addService(root);
    ServiceConfig leaf;
    leaf.name = "leaf";
    leaf.threads = 8;
    leaf.cpuPerReplica = 4.0;
    ClassBehavior lb;
    lb.computeMeanUs = 5000.0;
    lb.computeCv = 0.0;
    leaf.behaviors[0] = lb;
    c->addService(leaf);
    ServiceConfig mq;
    mq.name = "mq";
    mq.threads = 2;
    mq.cpuPerReplica = 2.0;
    mq.mqConsumer = true;
    ClassBehavior mb;
    mb.computeMeanUs = 50000.0;
    mb.computeCv = 0.0;
    mq.behaviors[0] = mb;
    c->addService(mq);
    RequestClassSpec spec;
    spec.name = "req";
    spec.rootService = "root";
    spec.asyncCompletion = true;
    spec.sla = {99.0, fromMs(1000.0)};
    c->addClass(spec);
    c->finalize();

    SimTime syncLat = -1, fullLat = -1;
    RequestPtr r = c->submit(0);
    r->onSyncDone = [&](Request &rr) {
        syncLat = rr.syncDoneTime - rr.submitTime;
    };
    r->onFullyDone = [&](Request &rr) {
        fullLat = rr.allDoneTime - rr.submitTime;
    };
    c->run(kSec);
    EXPECT_NEAR(toMs(syncLat), 6.0, 1.0);  // 1 + 5 nested
    EXPECT_NEAR(toMs(fullLat), 51.0, 3.0); // MQ branch dominates
}

TEST(Chains, PostComputeRunsAfterCalls)
{
    auto c = std::make_unique<Cluster>(29);
    ServiceConfig root;
    root.name = "root";
    root.threads = 8;
    root.cpuPerReplica = 4.0;
    ClassBehavior rb;
    rb.computeMeanUs = 2000.0;
    rb.computeCv = 0.0;
    rb.calls.push_back({"leaf", CallKind::NestedRpc, 0});
    rb.postComputeMeanUs = 3000.0;
    rb.postComputeCv = 0.0;
    root.behaviors[0] = rb;
    c->addService(root);

    ServiceConfig leaf;
    leaf.name = "leaf";
    leaf.threads = 8;
    leaf.cpuPerReplica = 4.0;
    ClassBehavior lb;
    lb.computeMeanUs = 5000.0;
    lb.computeCv = 0.0;
    leaf.behaviors[0] = lb;
    c->addService(leaf);

    RequestClassSpec spec;
    spec.name = "req";
    spec.rootService = "root";
    spec.sla = {99.0, fromMs(1000.0)};
    c->addClass(spec);
    c->finalize();

    SimTime lat = -1;
    RequestPtr r = c->submit(0);
    r->onSyncDone = [&](Request &rr) {
        lat = rr.syncDoneTime - rr.submitTime;
    };
    c->run(kSec);
    // 2 + 5 + 3 = 10ms; root's tier latency = 5ms (excl. downstream).
    EXPECT_NEAR(toMs(lat), 10.0, 1.0);
    const auto agg = c->metrics().tierLatency(0, 0).collect(0, kSec);
    EXPECT_NEAR(agg.percentile(50) / 1000.0, 5.0, 0.5);
}

} // namespace
