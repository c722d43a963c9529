/**
 * @file
 * Flight-recorder determinism tests.
 *
 * The recorder's contract is threefold: tracing OFF changes nothing
 * (the run's results are bit-identical to an obs-free config),
 * tracing ON is deterministic (the exported JSON is byte-identical
 * run-to-run), and the export is engine-independent (serial and
 * partitioned executions of the same run produce the same bytes, the
 * per-domain slabs notwithstanding). The first two are exercised on a
 * hedged, faulty scatter-gather scenario — the hardest case, since
 * hedges, retries, failover and fault windows all emit spans. Fault
 * plans always run serial, so the engine comparison uses the same
 * scenario without its kill.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/experiment.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace tpv {
namespace {

/** Hedged + faulty HDSearch cell: fan-out 4, 2 replicas, 300us hedge,
 *  one bucket replica killed mid-window with a detection delay. */
core::ExperimentConfig
tracedConfig()
{
    auto cfg = core::ExperimentConfig::forHdSearch(20000);
    cfg.gen.warmup = msec(5);
    cfg.gen.duration = msec(40);
    core::applyTopology(cfg, svc::TopologyShape{4, 2, usec(300)});
    cfg.faultPlan = fault::FaultPlan::replicaKill(
        "hds-bucket", 0, msec(10), msec(10), usec(500));
    cfg.seed = 42;
    return cfg;
}

/** Run @p cfg with tracing + metrics on, returning the exports. */
struct Export
{
    std::string traceJson;
    std::string metricsCsv;
    std::uint64_t recorded = 0;
    core::RunResult result;
};

Export
runTraced(core::ExperimentConfig cfg, int intraThreads,
          std::uint32_t sampleEveryN = 1, int tailN = 4,
          Time metricsPeriod = msec(1))
{
    Export out;
    cfg.intraThreads = intraThreads;
    cfg.obs.trace = true;
    cfg.obs.sampleEveryN = sampleEveryN;
    cfg.obs.tailN = tailN;
    cfg.obs.metricsPeriod = metricsPeriod;
    cfg.obs.sink = [&out](const obs::TraceRecorder *tr,
                          const obs::MetricsRegistry *m) {
        ASSERT_NE(tr, nullptr);
        out.traceJson = tr->exportJson();
        out.recorded = tr->recorded();
        if (m != nullptr)
            out.metricsCsv = m->csv();
    };
    out.result = core::runOnce(cfg);
    return out;
}

TEST(TraceDeterminism, ExportIsByteIdenticalRunToRun)
{
    const Export a = runTraced(tracedConfig(), 1);
    const Export b = runTraced(tracedConfig(), 1);
    ASSERT_GT(a.recorded, 0u);
    EXPECT_EQ(a.traceJson, b.traceJson);
    EXPECT_EQ(a.metricsCsv, b.metricsCsv);
}

TEST(TraceDeterminism, SerialAndParallelExportsMatch)
{
    // Fault plans always run serial, so the engine comparison drops
    // the kill; hedges still emit spans from every domain.
    core::ExperimentConfig cfg = tracedConfig();
    cfg.faultPlan = fault::FaultPlan::none();
    const Export serial = runTraced(cfg, 1);
    const Export parallel = runTraced(cfg, 4);
    // The parallel run must actually have partitioned — otherwise
    // this test silently degenerates to run-to-run determinism.
    ASSERT_GE(parallel.result.intraDomains, 2);
    EXPECT_EQ(serial.result.latency.mean, parallel.result.latency.mean);
    EXPECT_EQ(serial.result.latency.p99, parallel.result.latency.p99);
    EXPECT_EQ(serial.result.received, parallel.result.received);
    // The trace export is engine-independent to the byte: per-domain
    // slabs land in canonical content order regardless of how many
    // slabs there were. (The metrics CSV is NOT compared across
    // engines: partitioned runs shard the cumulative work_ns column
    // per domain by design, so the schemas differ.)
    EXPECT_EQ(serial.traceJson, parallel.traceJson);

    // Each engine's CSV is still byte-deterministic run-to-run.
    const Export parallel2 = runTraced(cfg, 4);
    EXPECT_EQ(parallel.metricsCsv, parallel2.metricsCsv);
}

TEST(TraceDeterminism, TracingOffChangesNothing)
{
    core::RunResult plain = core::runOnce(tracedConfig());
    // Trace-only (no metrics ticks): recording rides entirely inside
    // existing event callbacks, so even the executed-event count must
    // be untouched.
    const Export traced = runTraced(tracedConfig(), 1, 1, 4, 0);
    EXPECT_EQ(plain.latency.mean, traced.result.latency.mean);
    EXPECT_EQ(plain.latency.p99, traced.result.latency.p99);
    EXPECT_EQ(plain.sent, traced.result.sent);
    EXPECT_EQ(plain.received, traced.result.received);
    EXPECT_EQ(plain.events, traced.result.events);
    EXPECT_EQ(plain.service.serviceWorkDispatched,
              traced.result.service.serviceWorkDispatched);
    EXPECT_EQ(plain.service.hedgesSent, traced.result.service.hedgesSent);

    // Metrics ticks add their own (inert) events — everything but the
    // event count still matches the untraced run.
    const Export metered = runTraced(tracedConfig(), 1);
    EXPECT_EQ(plain.latency.mean, metered.result.latency.mean);
    EXPECT_EQ(plain.latency.p99, metered.result.latency.p99);
    EXPECT_EQ(plain.received, metered.result.received);
    EXPECT_EQ(plain.service.serviceWorkDispatched,
              metered.result.service.serviceWorkDispatched);
}

TEST(TraceDeterminism, ExportContainsTheExpectedSpanTaxonomy)
{
    const Export e = runTraced(tracedConfig(), 1);
    // Roots, sub-requests, queue/service splits and wire hops always
    // appear; the killed replica's window guarantees a fault marker,
    // and 300us hedging at this load guarantees hedges.
    for (const char *name :
         {"\"root\"", "\"sub\"", "\"queue\"", "\"service\"", "\"wire\"",
          "\"hedge\"", "\"fault\""}) {
        EXPECT_NE(e.traceJson.find(name), std::string::npos)
            << "missing span kind " << name;
    }
    // Perfetto-loadable Chrome trace-event envelope.
    EXPECT_NE(e.traceJson.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(e.traceJson.find("\"displayTimeUnit\""), std::string::npos);
}

TEST(TraceDeterminism, SamplingReducesRecordingTailKeepsSlowest)
{
    // Head sampling with no tail ring: 1-in-8 roots recorded.
    const Export sampled = runTraced(tracedConfig(), 1, 8, 0);
    const Export full = runTraced(tracedConfig(), 1, 1, 0);
    ASSERT_GT(sampled.recorded, 0u);
    EXPECT_LT(sampled.recorded, full.recorded / 2);

    // A tail ring records everything and filters at export; the
    // explainer then names the N slowest roots.
    core::ExperimentConfig cfg = tracedConfig();
    cfg.intraThreads = 1;
    cfg.obs.trace = true;
    cfg.obs.sampleEveryN = 64; // sparse head sampling...
    cfg.obs.tailN = 3;         // ...but the 3 slowest always survive
    std::vector<obs::TraceRecorder::TailRoot> tail;
    cfg.obs.sink = [&tail](const obs::TraceRecorder *tr,
                           const obs::MetricsRegistry *) {
        tail = tr->slowestRoots(3);
    };
    core::runOnce(cfg);
    ASSERT_EQ(tail.size(), 3u);
    Time prev = kTimeNever;
    for (const auto &t : tail) {
        EXPECT_EQ(t.root.kind, obs::SpanKind::Root);
        EXPECT_FALSE(t.spans.empty());
        const Time latency = t.root.end - t.root.start;
        EXPECT_LE(latency, prev); // slowest first
        prev = latency;
    }
}

// The first request of every run has id 0. It is an ordinary root:
// fully traced at full sampling, and filtered like any other root
// when it is neither head-sampled nor in the tail — global markers
// live under obs::kGlobalRoot, not under request 0.
TEST(TraceDeterminism, RequestZeroIsAnOrdinaryRoot)
{
    core::ExperimentConfig cfg = tracedConfig();
    cfg.obs.trace = true;
    std::vector<obs::SpanRecord> spans;
    cfg.obs.sink = [&spans](const obs::TraceRecorder *tr,
                            const obs::MetricsRegistry *) {
        spans = tr->exportSpans();
    };
    core::runOnce(cfg);
    int roots = 0;
    int subs = 0;
    int services = 0;
    for (const obs::SpanRecord &s : spans) {
        if (s.rootId != 0)
            continue;
        roots += s.kind == obs::SpanKind::Root ? 1 : 0;
        subs += s.kind == obs::SpanKind::SubRequest ? 1 : 0;
        services += s.kind == obs::SpanKind::Service ? 1 : 0;
    }
    EXPECT_EQ(roots, 1);
    EXPECT_EQ(subs, 4); // one per shard of s4r2
    // The midtier's dispatch plus one per shard on the buckets (whose
    // messages carry request 0 in parentId, not the slot in id).
    EXPECT_GE(services, 5);

    cfg.obs.sampleEveryN = 64;
    cfg.obs.tailN = 4;
    cfg.obs.sink = [&spans](const obs::TraceRecorder *tr,
                            const obs::MetricsRegistry *) {
        ASSERT_FALSE(tr->sampled(0));
        for (const auto &t : tr->slowestRoots(4))
            ASSERT_NE(t.root.rootId, 0u);
        spans = tr->exportSpans();
    };
    core::runOnce(cfg);
    int markers = 0;
    for (const obs::SpanRecord &s : spans) {
        EXPECT_NE(s.rootId, 0u) << obs::toString(s.kind);
        markers += s.rootId == obs::kGlobalRoot ? 1 : 0;
    }
    EXPECT_GT(markers, 0); // the replica kill's fault window
}

TEST(TraceDeterminism, MetricsCsvHasProbesAndTicks)
{
    const Export e = runTraced(tracedConfig(), 1);
    EXPECT_NE(e.metricsCsv.find("time_ns"), std::string::npos);
    EXPECT_NE(e.metricsCsv.find("qdepth.hds-bucket"), std::string::npos);
    EXPECT_NE(e.metricsCsv.find("inflight.hds-bucket"),
              std::string::npos);
    EXPECT_NE(e.metricsCsv.find("work_ns"), std::string::npos);
    // ~45ms of run at a 1ms period: tens of rows.
    int rows = 0;
    for (char c : e.metricsCsv)
        rows += c == '\n' ? 1 : 0;
    EXPECT_GE(rows, 20);
}

TEST(TraceDeterminism, KeyedMemcachedEmitsCacheSpans)
{
    auto cfg = core::ExperimentConfig::forMemcached(20000);
    cfg.gen.warmup = msec(5);
    cfg.gen.duration = msec(30);
    core::applyTopology(cfg, svc::TopologyShape{4, 2, usec(300)});
    svc::CacheShape cache;
    cache.keys = 4096;
    cache.capacityEntries = 64; // tiny: forces misses and evictions
    core::applyCacheShape(cfg, cache);
    cfg.seed = 7;
    cfg.obs.trace = true;
    std::string json;
    cfg.obs.sink = [&json](const obs::TraceRecorder *tr,
                           const obs::MetricsRegistry *) {
        json = tr->exportJson();
    };
    const core::RunResult r = core::runOnce(cfg);
    ASSERT_GT(r.service.cacheMisses, 0u);
    for (const char *name : {"\"cache_hit\"", "\"cache_miss\"",
                             "\"cache_fill\"", "\"cache_evict\""}) {
        EXPECT_NE(json.find(name), std::string::npos)
            << "missing span kind " << name;
    }
}

} // namespace
} // namespace tpv
