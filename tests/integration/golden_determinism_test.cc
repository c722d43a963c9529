/**
 * @file
 * Golden determinism test for the simulator hot path.
 *
 * The zero-allocation rewrite (inline event callbacks, the 4-ary
 * event heap, pooled in-flight messages, sorted-once statistics) must
 * not move a single bit of any result: the (time, seq) pop order, the
 * RNG stream consumption, and the summary arithmetic are all
 * unchanged by construction. This test pins that claim to numbers: a
 * topology-sweep cell — fan-out, replication and hedging all
 * exercised — must reproduce the per-run fingerprints captured from
 * the pre-rewrite implementation exactly (hexfloat, no tolerance).
 *
 * If this fails after an intentional ordering change, recapture the
 * goldens by printing the fields below at full precision ("%a") from
 * a trusted build. The values depend on the platform's libm (the
 * work models draw lognormals), so recapture on glibc if a different
 * math library ever disagrees.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/study.hh"
#include "obs/trace.hh"

namespace tpv {
namespace {

struct GoldenRun
{
    double latencyMean;
    double latencyP99;
    double latenessMean;
    std::uint64_t sent;
    std::uint64_t received;
    std::uint64_t events;
    std::uint64_t hedgesSent;
    std::uint64_t hedgesCancelled;
    std::uint64_t duplicatesDiscarded;
    Time serviceWorkDispatched;
    Time duplicateWorkDispatched;
};

// Captured from the PR 7 build (per-instance tier RNG streams — the
// determinism refactor the intra-run parallel engine rests on — moved
// every draw relative to the PR 3 capture): HP client, HDSearch at
// 20k qps, shape s4r2+h300us, 5ms warmup + 40ms window, baseSeed 42,
// runs {0,1,2}, parallelism 2.
const GoldenRun kGolden[] = {
    {0x1.2ef9a1938cce5p+15, 0x1.00a56f9db22d1p+16, 0x1.0028a91132909p+0,
     895, 603, 44362, 3570, 10, 2396, 2214443900, 742661602},
    {0x1.2d8a59c8b6549p+15, 0x1.f4d9d02363b25p+15, 0x1.00baada54473fp+0,
     928, 601, 45224, 3702, 10, 2395, 2296151909, 741683333},
    {0x1.2dab3b1843329p+15, 0x1.f6d7d3d859c8cp+15, 0x1.01fea0afd2ffp+0,
     892, 613, 44233, 3561, 7, 2404, 2137857963, 740552703},
};

TEST(GoldenDeterminism, SweepTopologiesCellIsBitIdenticalToPreRewrite)
{
    core::RunnerOptions opt;
    opt.runs = 3;
    opt.parallelism = 2;
    opt.baseSeed = 42;
    auto grid = core::sweepAxis<core::TopologyAxis>(
        {"HP"}, {svc::TopologyShape{4, 2, usec(300)}},
        [](const std::string &, const svc::TopologyShape &) {
            auto cfg = core::ExperimentConfig::forHdSearch(20000);
            cfg.gen.warmup = msec(5);
            cfg.gen.duration = msec(40);
            return cfg;
        },
        opt);

    ASSERT_EQ(grid.cells.size(), 1u);
    const auto &runs = grid.cells.front().result.runs;
    ASSERT_EQ(runs.size(), std::size(kGolden));
    for (std::size_t i = 0; i < runs.size(); ++i) {
        SCOPED_TRACE("run " + std::to_string(i));
        const core::RunResult &r = runs[i];
        const GoldenRun &g = kGolden[i];
        // Exact: the rewrite promises bit-identical runs, so the
        // comparisons are ==, not near.
        EXPECT_EQ(r.latency.mean, g.latencyMean);
        EXPECT_EQ(r.latency.p99, g.latencyP99);
        EXPECT_EQ(r.sendLateness.mean, g.latenessMean);
        EXPECT_EQ(r.sent, g.sent);
        EXPECT_EQ(r.received, g.received);
        EXPECT_EQ(r.events, g.events);
        EXPECT_EQ(r.service.hedgesSent, g.hedgesSent);
        EXPECT_EQ(r.service.hedgesCancelled, g.hedgesCancelled);
        EXPECT_EQ(r.service.duplicatesDiscarded, g.duplicatesDiscarded);
        EXPECT_EQ(r.service.serviceWorkDispatched,
                  g.serviceWorkDispatched);
        EXPECT_EQ(r.service.duplicateWorkDispatched,
                  g.duplicateWorkDispatched);
    }
}

// The serial path must agree with the parallel one as well — the
// golden capture above ran at parallelism 2, so this closes the loop
// on "bit-identical at any width" for the rewritten hot path.
TEST(GoldenDeterminism, SerialMatchesGoldenToo)
{
    core::RunnerOptions opt;
    opt.runs = 3;
    opt.parallelism = 1;
    opt.baseSeed = 42;
    auto cfg = core::ExperimentConfig::forHdSearch(20000);
    cfg.gen.warmup = msec(5);
    cfg.gen.duration = msec(40);
    core::applyTopology(cfg, svc::TopologyShape{4, 2, usec(300)});
    auto result = core::runMany(cfg, opt);
    ASSERT_EQ(result.runs.size(), std::size(kGolden));
    for (std::size_t i = 0; i < result.runs.size(); ++i) {
        SCOPED_TRACE("run " + std::to_string(i));
        EXPECT_EQ(result.runs[i].latency.mean, kGolden[i].latencyMean);
        EXPECT_EQ(result.runs[i].events, kGolden[i].events);
    }
}

// ---------------------------------------------------------------------
// Every attempt path of the fan-out, pinned exactly. The partition
// tests compare serial with parallel runs, so a change that moves both
// the same way passes them; these rows catch it. Captured on the
// serial engine, seed 7 (HDSearch rows: 20K qps, 5ms warmup + 40ms
// window; the memcached row: 20K qps, 5ms + 30ms).
// ---------------------------------------------------------------------

/** FNV-1a over raw bytes. */
struct Fnv
{
    std::uint64_t h = 1469598103934665603ULL;

    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ULL;
        }
    }

    template <typename T>
    void
    operator()(const T &v)
    {
        bytes(&v, sizeof v);
    }
};

/** Every ServiceStats counter of @p r, hashed. */
std::uint64_t
statsHash(const core::RunResult &r)
{
    const svc::ServiceStats &s = r.service;
    Fnv f;
    for (std::uint64_t v :
         {s.requestsReceived, s.responsesSent, s.subRequestsSent,
          s.hedgesSent, s.hedgesCancelled, s.duplicatesDiscarded,
          s.hedgesSuppressed, s.tiedSent, s.tiedCancelledBeforeRun,
          s.faultsInjected, s.requestsFailedOver, s.requestsLost,
          s.requestsRetried, s.retriesSuppressed, s.subRequestsDropped,
          s.requestsShedDepth, s.requestsShedDelay, s.breakerOpens,
          s.breakerSkips, s.breakerProbes, s.cacheHits, s.cacheMisses,
          s.cacheFills, s.cacheEvictions, s.cacheFlushes})
        f(v);
    for (Time t : {s.serviceWorkDispatched, s.duplicateWorkDispatched,
                   s.pauseTime})
        f(t);
    for (const svc::TierBreakdown &t : s.tiers) {
        f(t.requestsDispatched);
        f(t.workDispatched);
        f(t.requestsLost);
        f(t.replyP95);
        f(t.cacheHits);
        f(t.cacheMisses);
    }
    return f.h;
}

core::ExperimentConfig
hdsearch(svc::TopologyShape shape, fault::FaultPlan plan)
{
    auto cfg = core::ExperimentConfig::forHdSearch(20000);
    cfg.gen.warmup = msec(5);
    cfg.gen.duration = msec(40);
    core::applyTopology(cfg, shape);
    cfg.faultPlan = std::move(plan);
    cfg.seed = 7;
    return cfg;
}

/** s4r2 (hedged after @p hedgeDelay, 0 = never), 2ms deadlines with
 *  retries, breakers at 3 failures. */
svc::TopologyShape
retryBreakerShape(Time hedgeDelay)
{
    svc::TopologyShape shape{4, 2, hedgeDelay};
    shape.traffic.retry.deadline = msec(2);
    shape.traffic.breaker.failureThreshold = 3;
    return shape;
}

/** Bucket replica 0 crashes at 10ms for 15ms; senders learn of it
 *  @p detect later. */
fault::FaultPlan
bucketKill(Time detect)
{
    return fault::FaultPlan::replicaKill("hds-bucket", 0, msec(10),
                                         msec(15), detect);
}

core::ExperimentConfig
tiedKill()
{
    return hdsearch(svc::TopologyShape{4, 2, 0, svc::HedgePolicy::Tied},
                    bucketKill(usec(500)));
}

core::ExperimentConfig
adaptiveBudget()
{
    svc::TopologyShape shape{4, 3, usec(300), svc::HedgePolicy::Adaptive};
    shape.hedgeBudget = 0.05;
    return hdsearch(shape, fault::FaultPlan::replicaSlowdown(
                               "hds-bucket", 1, 4.0, msec(10), msec(20)));
}

core::ExperimentConfig
retryBreakerKill()
{
    return hdsearch(retryBreakerShape(0), bucketKill(msec(5)));
}

core::ExperimentConfig
detectedFailover()
{
    return hdsearch(svc::TopologyShape{4, 2, 0}, bucketKill(0));
}

core::ExperimentConfig
routedMemcachedRetries()
{
    auto cfg = core::ExperimentConfig::forMemcached(20000);
    cfg.gen.warmup = msec(5);
    cfg.gen.duration = msec(30);
    svc::TopologyShape shape{4, 2, 0};
    shape.cache.keys = 4096;
    shape.cache.capacityEntries = 256;
    shape.traffic.retry.deadline = msec(1);
    core::applyTopology(cfg, shape);
    cfg.faultPlan = fault::FaultPlan::replicaKill("mc-cache", 1, msec(10),
                                                  msec(10), msec(3));
    cfg.seed = 7;
    return cfg;
}

struct AttemptGolden
{
    const char *name;
    core::ExperimentConfig (*make)();
    /** The row's attempt path really ran (a counter it must move). */
    std::uint64_t svc::ServiceStats::*exercised;
    double latencyMean;
    double latencyP99;
    std::uint64_t received;
    std::uint64_t events;
    std::uint64_t stats;
};

const AttemptGolden kAttemptGolden[] = {
    {"tied+kill", tiedKill, &svc::ServiceStats::tiedCancelledBeforeRun,
     0x1.7418ff45dab55p+14, 0x1.b05f874538ef1p+15, 874, 39241,
     0x2d9ffbda467b433cULL},
    {"adaptive+hedgeBudget", adaptiveBudget,
     &svc::ServiceStats::hedgesSuppressed, 0x1.7ec096d1d3cp+14,
     0x1.828318f47303fp+15, 874, 36392, 0xae0863137139ed2cULL},
    {"retry+breaker+kill", retryBreakerKill,
     &svc::ServiceStats::breakerSkips, 0x1.01c229d1905bep+15,
     0x1.06506be61cffep+16, 739, 37864, 0xe2b2342a1d18b636ULL},
    {"detected-failover", detectedFailover,
     &svc::ServiceStats::requestsFailedOver, 0x1.061317fdddedap+15,
     0x1.b625bba8826abp+15, 813, 34072, 0x402109211b33b1e3ULL},
    {"routed-memcached+retries", routedMemcachedRetries,
     &svc::ServiceStats::requestsRetried, 0x1.186a8862e463ap+8,
     0x1.0625714b9cb68p+11, 686, 24337, 0xe6a3adb3af7ca667ULL},
};

TEST(GoldenDeterminism, EveryAttemptPathIsPinned)
{
    for (const AttemptGolden &g : kAttemptGolden) {
        SCOPED_TRACE(g.name);
        const core::RunResult r = core::runOnce(g.make());
        EXPECT_GT(r.service.*g.exercised, 0u);
        EXPECT_EQ(r.latency.mean, g.latencyMean);
        EXPECT_EQ(r.latency.p99, g.latencyP99);
        EXPECT_EQ(r.received, g.received);
        EXPECT_EQ(r.events, g.events);
        EXPECT_EQ(statsHash(r), g.stats);
    }
}

// The flight recorder's export of a cell where hedges, retries,
// breakers and a crash all emit spans, pinned to the byte.
TEST(GoldenDeterminism, TracedAttemptExportIsPinned)
{
    core::ExperimentConfig cfg =
        hdsearch(retryBreakerShape(usec(300)), bucketKill(msec(2)));
    cfg.obs.trace = true;
    std::string json;
    cfg.obs.sink = [&json](const obs::TraceRecorder *tr,
                           const obs::MetricsRegistry *) {
        json = tr->exportJson();
    };
    const core::RunResult r = core::runOnce(cfg);
    EXPECT_GT(r.service.hedgesSent, 0u);
    EXPECT_GT(r.service.requestsRetried, 0u);
    EXPECT_GT(r.service.breakerOpens, 0u);
    Fnv f;
    f.bytes(json.data(), json.size());
    EXPECT_EQ(f.h, 0x483c10089d24498cULL);
}

} // namespace
} // namespace tpv
