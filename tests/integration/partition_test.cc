/**
 * @file
 * Intra-run parallelism acceptance tests: the conservative windowed
 * engine (sim/partition.hh) must be *bit-identical* to the serial
 * engine on every studied scenario — same latency summaries, same
 * event counts, same service counters — because domain event order is
 * keyed by (simulated time, scheduling instant, source domain,
 * counter), never by host-thread interleaving. Each scenario below
 * runs the same config serially and with a crew and compares
 * fingerprints exactly (==, no tolerance). The fallback tests pin the
 * conditions under which runOnce() refuses to partition and stays
 * serial (fault plans, non-tickless servers, zero lookahead).
 *
 * Under ThreadSanitizer (the ci `tsan` leg runs this file via the
 * `partition` label) the stress test doubles as a race detector for
 * the window barriers and cross-domain mailboxes.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "core/experiment.hh"
#include "core/runner.hh"
#include "fault/fault.hh"
#include "net/link.hh"
#include "sim/partition.hh"
#include "sim/simulator.hh"
#include "sim/thread_pool.hh"
#include "svc/hdsearch.hh"
#include "svc/topology.hh"

namespace tpv {
namespace {

/** Every observable a run reports must match bit-for-bit. */
void
expectSameRun(const core::RunResult &a, const core::RunResult &b)
{
    EXPECT_EQ(a.latency.mean, b.latency.mean);
    EXPECT_EQ(a.latency.p99, b.latency.p99);
    EXPECT_EQ(a.latency.max, b.latency.max);
    EXPECT_EQ(a.sendLateness.mean, b.sendLateness.mean);
    EXPECT_EQ(a.sent, b.sent);
    EXPECT_EQ(a.received, b.received);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.service.requestsReceived, b.service.requestsReceived);
    EXPECT_EQ(a.service.responsesSent, b.service.responsesSent);
    EXPECT_EQ(a.service.serviceWorkDispatched,
              b.service.serviceWorkDispatched);
    EXPECT_EQ(a.service.subRequestsSent, b.service.subRequestsSent);
    EXPECT_EQ(a.service.hedgesSent, b.service.hedgesSent);
    EXPECT_EQ(a.service.hedgesCancelled, b.service.hedgesCancelled);
    EXPECT_EQ(a.service.hedgesSuppressed, b.service.hedgesSuppressed);
    EXPECT_EQ(a.service.duplicatesDiscarded,
              b.service.duplicatesDiscarded);
    EXPECT_EQ(a.service.duplicateWorkDispatched,
              b.service.duplicateWorkDispatched);
    EXPECT_EQ(a.service.requestsShedDepth, b.service.requestsShedDepth);
    EXPECT_EQ(a.service.requestsShedDelay, b.service.requestsShedDelay);
    EXPECT_EQ(a.service.requestsLost, b.service.requestsLost);
    EXPECT_EQ(a.service.subRequestsDropped, b.service.subRequestsDropped);
    EXPECT_EQ(a.service.faultsInjected, b.service.faultsInjected);
    EXPECT_EQ(a.service.requestsFailedOver, b.service.requestsFailedOver);
    EXPECT_EQ(a.service.pauseTime, b.service.pauseTime);
    EXPECT_EQ(a.service.cacheHits, b.service.cacheHits);
    EXPECT_EQ(a.service.cacheMisses, b.service.cacheMisses);
    EXPECT_EQ(a.service.cacheEvictions, b.service.cacheEvictions);
    EXPECT_EQ(a.service.cacheFlushes, b.service.cacheFlushes);
    ASSERT_EQ(a.service.tiers.size(), b.service.tiers.size());
    for (std::size_t i = 0; i < a.service.tiers.size(); ++i) {
        EXPECT_EQ(a.service.tiers[i].requestsDispatched,
                  b.service.tiers[i].requestsDispatched)
            << "tier " << a.service.tiers[i].name;
        EXPECT_EQ(a.service.tiers[i].workDispatched,
                  b.service.tiers[i].workDispatched)
            << "tier " << a.service.tiers[i].name;
        EXPECT_EQ(a.service.tiers[i].requestsShed,
                  b.service.tiers[i].requestsShed)
            << "tier " << a.service.tiers[i].name;
    }
}

/** Short HDSearch cell: fan-out 4, replicas 2, enough traffic that
 *  every cross-domain path (scatter, gather, hedge, reply) runs. */
core::ExperimentConfig
hdsearchCfg()
{
    auto cfg = core::ExperimentConfig::forHdSearch(20000);
    cfg.gen.warmup = msec(2);
    cfg.gen.duration = msec(12);
    core::applyTopology(cfg, svc::TopologyShape{4, 2, usec(300)});
    return cfg;
}

TEST(IntraRunParallel, MatchesSerialOnTheHedgedHdSearchShape)
{
    auto cfg = hdsearchCfg();
    const core::RunResult serial = core::runOnce(cfg);
    cfg.intraThreads = 4;
    const core::RunResult par = core::runOnce(cfg);
    // Client domain + mid tier + 4x2 partitionable leaf machines.
    EXPECT_GT(par.intraDomains, 2);
    EXPECT_EQ(serial.intraDomains, 1);
    expectSameRun(serial, par);
}

TEST(IntraRunParallel, MatchesSerialUnderAdaptiveHedgingWithABudget)
{
    auto cfg = core::ExperimentConfig::forHdSearch(20000);
    cfg.gen.warmup = msec(2);
    cfg.gen.duration = msec(12);
    svc::TopologyShape shape{4, 2, usec(300)};
    shape.policy = svc::HedgePolicy::Adaptive;
    shape.hedgeBudget = 0.05;
    core::applyTopology(cfg, shape);
    const core::RunResult serial = core::runOnce(cfg);
    cfg.intraThreads = 4;
    const core::RunResult par = core::runOnce(cfg);
    EXPECT_GT(par.intraDomains, 2);
    expectSameRun(serial, par);
}

TEST(IntraRunParallel, MatchesSerialOnTheCachedMemcachedCluster)
{
    auto cfg = core::ExperimentConfig::forMemcached(40000);
    cfg.gen.warmup = msec(2);
    cfg.gen.duration = msec(12);
    svc::TopologyShape shape{4, 2, 0};
    shape.cache.keys = 4096;
    shape.cache.capacityEntries = 256;
    core::applyTopology(cfg, shape);
    const core::RunResult serial = core::runOnce(cfg);
    cfg.intraThreads = 4;
    const core::RunResult par = core::runOnce(cfg);
    EXPECT_GT(par.intraDomains, 1);
    EXPECT_GT(par.service.cacheHits + par.service.cacheMisses, 0u);
    expectSameRun(serial, par);
}

TEST(IntraRunParallel, MatchesSerialUnderLoadShedding)
{
    // Overload the leaf tier so CoDel and depth shedding both engage.
    auto cfg = core::ExperimentConfig::forHdSearch(60000);
    cfg.gen.warmup = msec(2);
    cfg.gen.duration = msec(12);
    svc::TopologyShape shape{4, 2, usec(300)};
    shape.traffic.admission.maxQueueDepth = 32;
    shape.traffic.admission.codelTarget = usec(500);
    core::applyTopology(cfg, shape);
    const core::RunResult serial = core::runOnce(cfg);
    cfg.intraThreads = 4;
    const core::RunResult par = core::runOnce(cfg);
    EXPECT_GT(par.intraDomains, 2);
    expectSameRun(serial, par);
}

TEST(IntraRunParallel, MatchesSerialOnTheSocialNetworkChain)
{
    // Single shared server machine: exactly one service domain, so
    // the crew is client vs server — the smallest useful partition.
    auto cfg = core::ExperimentConfig::forSocialNetwork(2000);
    cfg.gen.warmup = msec(2);
    cfg.gen.duration = msec(12);
    const core::RunResult serial = core::runOnce(cfg);
    cfg.intraThreads = 4;
    const core::RunResult par = core::runOnce(cfg);
    EXPECT_EQ(par.intraDomains, 2);
    expectSameRun(serial, par);
}

TEST(IntraRunParallel, FaultPlansAndTickingServersFallBackToSerial)
{
    // A fault plan keeps the serial engine: deadline retries plus a
    // detected bucket kill exercise failover re-issues and absorbed
    // drops, and the crew-sized run must be the serial run exactly.
    auto cfg = core::ExperimentConfig::forHdSearch(20000);
    cfg.gen.warmup = msec(2);
    cfg.gen.duration = msec(12);
    svc::TopologyShape shape{4, 2, usec(300)};
    shape.traffic.retry.deadline = msec(2);
    core::applyTopology(cfg, shape);
    cfg.faultPlan = fault::FaultPlan::replicaKill(
        "hds-bucket", 0, msec(4), msec(4), usec(500));
    const core::RunResult serial = core::runOnce(cfg);
    EXPECT_GT(serial.service.faultsInjected, 0u);
    cfg.intraThreads = 4;
    const core::RunResult par = core::runOnce(cfg);
    EXPECT_EQ(par.intraDomains, 1);
    expectSameRun(serial, par);

    // Non-tickless servers arm their tick loops at construction, on
    // the setup queue: those runs stay serial too.
    auto ticking = hdsearchCfg();
    ticking.server.tickless = false;
    ticking.intraThreads = 4;
    EXPECT_EQ(core::runOnce(ticking).intraDomains, 1);
}

TEST(IntraRunParallel, ZeroLookaheadFallsBackToSerial)
{
    auto cfg = hdsearchCfg();
    cfg.network.baseLatency = 0; // client link floor -> no lookahead
    cfg.intraThreads = 4;
    const core::RunResult par = core::runOnce(cfg);
    EXPECT_EQ(par.intraDomains, 1);
}

TEST(IntraRunParallel, IntraThreadsOneKeepsTheSerialEngine)
{
    auto cfg = hdsearchCfg();
    cfg.intraThreads = 1;
    const core::RunResult r = core::runOnce(cfg);
    EXPECT_EQ(r.intraDomains, 1);
}

/** Null client for driving ServiceGraph::planPartitions directly. */
struct NullClient : net::Endpoint
{
    void onMessage(const net::Message &) override {}
};

/** (tier, replica) -> domain map of a freshly planned HDSearch rig. */
std::vector<int>
plannedDomains(int maxDomains)
{
    Simulator sim;
    net::Link reply(sim, Rng(1), net::Link::Params{usec(5), 0.0, 10.0});
    NullClient client;
    // Three bucket replicas: the buckets are partitionable, so the
    // natural plan is 4 groups (midtier + one per replica machine) —
    // enough spread to exercise real packing at every bin count.
    svc::HdSearchParams params;
    params.replicas = 3;
    svc::HdSearchCluster cluster(sim, hw::HwConfig::serverBaseline(),
                                 reply, client, Rng(2), params);
    svc::ServiceGraph &graph = cluster;
    const int domains = graph.planPartitions(1, maxDomains);
    std::vector<int> map;
    map.push_back(domains);
    for (std::size_t t = 0; t < graph.tierCount(); ++t)
        for (int r = 0; r < graph.tier(t).replicaCount(); ++r)
            map.push_back(graph.tier(t).machine(r).simDomain());
    return map;
}

TEST(IntraRunParallel, DomainPackingIsDeterministic)
{
    // Packing weights come from the config (tier worker counts), never
    // from timing, so independently constructed identical clusters
    // must plan identical (tier, replica) -> domain maps — unpacked
    // and packed down to every bin count.
    for (int maxDomains : {0, 7, 3, 2, 1})
        EXPECT_EQ(plannedDomains(maxDomains), plannedDomains(maxDomains))
            << "maxDomains=" << maxDomains;
}

TEST(IntraRunParallel, DomainPackingRespectsTheBinCount)
{
    const std::vector<int> unpacked = plannedDomains(0);
    const int natural = unpacked.front();
    ASSERT_GT(natural, 2);
    for (int maxDomains = 1; maxDomains <= natural; ++maxDomains) {
        const std::vector<int> packed = plannedDomains(maxDomains);
        EXPECT_EQ(packed.front(), maxDomains);
        for (std::size_t i = 1; i < packed.size(); ++i) {
            EXPECT_GE(packed[i], 1);
            EXPECT_LE(packed[i], maxDomains);
        }
    }
}

TEST(IntraRunParallel, PersistentCrewSpawnsNoNewThreadsAcrossABatch)
{
    // The thread pool parks workers between runs: a 100-run batch may
    // grow the pool while it first ramps up, but must not spawn per
    // run — the whole point of keeping the crew alive.
    auto cfg = hdsearchCfg();
    cfg.gen.duration = msec(3);
    cfg.intraThreads = 4;
    const core::RunResult first = core::runOnce(cfg);
    ASSERT_GT(first.intraDomains, 1);
    const std::size_t afterFirst = ThreadPool::instance().threadsSpawned();
    for (int i = 0; i < 99; ++i)
        core::runOnce(cfg);
    const std::size_t afterBatch = ThreadPool::instance().threadsSpawned();
    EXPECT_EQ(afterBatch, afterFirst);
}

TEST(IntraRunParallel, GridOfPartitionedRunsMatchesSerialAndSpawnsNoThreads)
{
    // Grid workers and the crews their runs start share one pool: a
    // crew posted from inside a grid task must get real threads, match
    // the serial engine run for run, and a warm grid must reuse them.
    std::vector<core::ExperimentConfig> cells = {hdsearchCfg(),
                                                 hdsearchCfg()};
    cells[1].gen.qps = 15000;
    core::RunnerOptions opt;
    opt.runs = 4;
    opt.parallelism = 1;
    const auto serial = core::runManyBatch(cells, opt);

    for (core::ExperimentConfig &cfg : cells)
        cfg.intraThreads = 4;
    opt.parallelism = 4;
    const auto grid = core::runManyBatch(cells, opt);
    ASSERT_EQ(grid.size(), serial.size());
    for (std::size_t c = 0; c < grid.size(); ++c) {
        ASSERT_EQ(grid[c].runs.size(), serial[c].runs.size());
        for (std::size_t r = 0; r < grid[c].runs.size(); ++r) {
            EXPECT_EQ(serial[c].runs[r].intraDomains, 1);
            EXPECT_GT(grid[c].runs[r].intraDomains, 1)
                << "cell " << c << " run " << r;
            expectSameRun(serial[c].runs[r], grid[c].runs[r]);
        }
    }

    const std::size_t warm = ThreadPool::instance().threadsSpawned();
    (void)core::runManyBatch(cells, opt);
    EXPECT_EQ(ThreadPool::instance().threadsSpawned(), warm);
}

/**
 * Race detector fodder: many short windows, a wide crew, every
 * cross-domain path exercised repeatedly. The assertions are light —
 * under TSan what matters is that no barrier or mailbox access
 * races; on any engine the three repetitions must agree with each
 * other bit-for-bit (run-to-run determinism of the parallel engine
 * itself, independent of the serial baseline).
 */
TEST(IntraRunParallel, WindowBarrierStressIsDeterministicRunToRun)
{
    auto cfg = hdsearchCfg();
    cfg.gen.duration = msec(6);
    cfg.intraThreads = 8;
    const core::RunResult first = core::runOnce(cfg);
    EXPECT_GT(first.intraDomains, 2);
    for (int i = 0; i < 2; ++i) {
        const core::RunResult again = core::runOnce(cfg);
        expectSameRun(first, again);
    }
}

} // namespace
} // namespace tpv
