#include "core/experiment.hh"

#include <algorithm>
#include <memory>

#include "loadgen/openloop.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/logging.hh"
#include "sim/partition.hh"
#include "sim/simulator.hh"

namespace tpv {
namespace core {

const char *
toString(WorkloadKind k)
{
    switch (k) {
      case WorkloadKind::Memcached:
        return "memcached";
      case WorkloadKind::HdSearch:
        return "hdsearch";
      case WorkloadKind::SocialNetwork:
        return "socialnetwork";
      case WorkloadKind::Synthetic:
        return "synthetic";
    }
    return "?";
}

ExperimentConfig
ExperimentConfig::forMemcached(double qps)
{
    ExperimentConfig cfg;
    cfg.workload = WorkloadKind::Memcached;
    cfg.gen.qps = qps;
    // 4 client machines x 10 event-loop threads (160 connections in
    // the paper), modelled as 40 generator threads.
    cfg.gen.threads = 40;
    cfg.gen.sendMode = loadgen::SendMode::BlockWait;
    cfg.gen.completion = loadgen::CompletionMode::Blocking;
    cfg.gen.measure = loadgen::MeasurePoint::InApp;
    cfg.gen.interarrival = loadgen::InterarrivalKind::Exponential;
    // ETC request model: mostly GETs, GEV-sized keys.
    const svc::KeyspaceModel etc = cfg.memcached.etc;
    cfg.gen.requestModel = [etc](Rng &rng, net::Message &req) {
        const svc::MemcachedOp op = etc.sampleOp(rng);
        req.kind = static_cast<std::uint8_t>(op);
        const std::uint32_t key = etc.sampleKeyBytes(rng);
        const std::uint32_t value =
            op == svc::MemcachedOp::Set ? etc.sampleValueBytes(rng) : 0;
        req.bytes = etc.requestBytes(op, key, value);
    };
    cfg.label = "memcached";
    return cfg;
}

ExperimentConfig
ExperimentConfig::forHdSearch(double qps)
{
    ExperimentConfig cfg;
    cfg.workload = WorkloadKind::HdSearch;
    cfg.gen.qps = qps;
    cfg.gen.threads = 4; // MicroSuite client: few polling loops
    cfg.gen.sendMode = loadgen::SendMode::BusyWait;
    cfg.gen.completion = loadgen::CompletionMode::Blocking;
    cfg.gen.measure = loadgen::MeasurePoint::InApp;
    cfg.gen.interarrival = loadgen::InterarrivalKind::Exponential;
    cfg.gen.requestBytes = 512; // query feature vector
    cfg.label = "hdsearch";
    return cfg;
}

ExperimentConfig
ExperimentConfig::forSocialNetwork(double qps)
{
    ExperimentConfig cfg;
    cfg.workload = WorkloadKind::SocialNetwork;
    cfg.gen.qps = qps;
    cfg.gen.threads = 10; // wrk2 with 20 connections over 10 cores
    cfg.gen.sendMode = loadgen::SendMode::BlockWait;
    cfg.gen.completion = loadgen::CompletionMode::Blocking;
    cfg.gen.measure = loadgen::MeasurePoint::InApp;
    cfg.gen.interarrival = loadgen::InterarrivalKind::Exponential;
    cfg.gen.requestBytes = 256; // read-user-timeline request
    cfg.label = "socialnetwork";
    return cfg;
}

ExperimentConfig
ExperimentConfig::forSynthetic(double qps, Time addedDelay)
{
    ExperimentConfig cfg;
    cfg.workload = WorkloadKind::Synthetic;
    cfg.gen.qps = qps;
    cfg.gen.threads = 40; // same client fleet as the memcached study
    cfg.gen.sendMode = loadgen::SendMode::BlockWait;
    cfg.gen.completion = loadgen::CompletionMode::Blocking;
    cfg.gen.measure = loadgen::MeasurePoint::InApp;
    cfg.gen.interarrival = loadgen::InterarrivalKind::Exponential;
    cfg.synthetic.addedDelay = addedDelay;
    cfg.label = "synthetic";
    return cfg;
}

void
applyTopology(ExperimentConfig &cfg, const svc::TopologyShape &shape)
{
    cfg.topology = shape;
    cfg.hdsearch.fanout = shape.shards;
    cfg.hdsearch.replicas = shape.replicas;
    cfg.hdsearch.hedgeDelay = shape.hedgeDelay;
    cfg.hdsearch.hedgePolicy = shape.policy;
    cfg.hdsearch.hedgeBudget = shape.hedgeBudget;
    cfg.memcached.shards = shape.shards;
    cfg.memcached.replicas = shape.replicas;
    cfg.memcached.hedgeDelay = shape.hedgeDelay;
    cfg.memcached.hedgePolicy = shape.policy;
    cfg.memcached.hedgeBudget = shape.hedgeBudget;
    cfg.hdsearch.traffic = shape.traffic;
    cfg.memcached.traffic = shape.traffic;
    if (shape.cache.enabled())
        applyCacheShape(cfg, shape.cache);
}

void
applyTrafficPolicy(ExperimentConfig &cfg, const svc::TrafficPolicy &policy)
{
    cfg.topology.traffic = policy;
    cfg.hdsearch.traffic = policy;
    cfg.memcached.traffic = policy;
}

void
applyCacheShape(ExperimentConfig &cfg, const svc::CacheShape &shape)
{
    cfg.topology.cache = shape;
    cfg.memcached.cache = shape;
    cfg.memcached.etc.keys = shape.keys;
    cfg.memcached.etc.skew = shape.skew;
    if (!shape.enabled() || cfg.workload != WorkloadKind::Memcached)
        return;
    // Keyed ETC request model: same op/key-size draws as the unkeyed
    // one, plus the Zipf rank on the wire; SET values are a property
    // of the key (valueBytesForKey) so the cache, the backing store
    // and the generator agree on every key's size.
    const svc::KeyspaceModel etc = cfg.memcached.etc;
    const svc::ZipfSampler zipf(shape.keys, shape.skew);
    cfg.gen.requestModel = [etc, zipf](Rng &rng, net::Message &req) {
        const svc::MemcachedOp op = etc.sampleOp(rng);
        req.kind = static_cast<std::uint8_t>(op);
        req.key = static_cast<std::uint32_t>(zipf(rng));
        const std::uint32_t keyBytes = etc.sampleKeyBytes(rng);
        const std::uint32_t value =
            op == svc::MemcachedOp::Set ? etc.valueBytesForKey(req.key)
                                        : 0;
        req.bytes = etc.requestBytes(op, keyBytes, value);
    };
}

namespace {

/**
 * Late-bound endpoint: lets the generator be constructed before the
 * service it sends to (they reference each other).
 */
struct Relay : net::Endpoint
{
    net::Endpoint *target = nullptr;

    void
    onMessage(const net::Message &m) override
    {
        TPV_ASSERT(target != nullptr, "relay used before binding");
        target->onMessage(m);
    }

    int
    partitionOf(const net::Message &m) const override
    {
        return target != nullptr ? target->partitionOf(m) : -1;
    }
};

/**
 * One run at a given intra-run crew size. Split from runOnce() so a
 * conservative-invariant violation (astronomically rare: a lookahead
 * shortfall or sequence-key overflow) can re-run the whole experiment
 * serially and return bit-exact serial results.
 */
RunResult
runOnceImpl(const ExperimentConfig &cfg, int intraThreads)
{
    Simulator sim;
    Rng rootRng(cfg.seed);

    // The paper's client side is several machines (e.g. 4 mutilate
    // clients); we model them as one wide machine with a core per
    // generator thread (plus a completion-thread bank for busy-wait
    // senders with blocking completions).
    hw::HwConfig clientCfg = cfg.client;
    int neededCores = cfg.gen.threads;
    if (cfg.gen.sendMode == loadgen::SendMode::BusyWait &&
        cfg.gen.completion == loadgen::CompletionMode::Blocking) {
        neededCores *= 2;
    }
    clientCfg.cores = std::max(clientCfg.cores, neededCores);
    hw::Machine clientMachine(sim, clientCfg, "client", rootRng.u64());
    net::Link clientToServer(sim, rootRng.fork(), cfg.network);
    net::Link serverToClient(sim, rootRng.fork(), cfg.network);

    Relay serverDoor;
    loadgen::OpenLoopGenerator gen(sim, clientMachine, clientToServer,
                                   serverDoor, cfg.gen, rootRng.fork());

    // Service construction; single-tier services get their own server
    // machine, the multi-tier clusters build their machines inside.
    std::unique_ptr<hw::Machine> serverMachine;
    std::unique_ptr<svc::ServiceGraph> service;
    switch (cfg.workload) {
      case WorkloadKind::Memcached:
        if (cfg.memcached.shards > 1 || cfg.memcached.replicas > 1 ||
            cfg.memcached.cache.enabled()) {
            // Widened (or keyed finite-cache) shape: the
            // key-hash-routed cluster.
            service = std::make_unique<svc::MemcachedCluster>(
                sim, cfg.server, serverToClient, gen, rootRng.fork(),
                cfg.memcached);
            break;
        }
        serverMachine = std::make_unique<hw::Machine>(
            sim, cfg.server, "server", rootRng.u64());
        service = std::make_unique<svc::MemcachedServer>(
            sim, *serverMachine, serverToClient, gen, rootRng.fork(),
            cfg.memcached);
        break;
      case WorkloadKind::Synthetic:
        serverMachine = std::make_unique<hw::Machine>(
            sim, cfg.server, "server", rootRng.u64());
        service = std::make_unique<svc::SyntheticServer>(
            sim, *serverMachine, serverToClient, gen, rootRng.fork(),
            cfg.synthetic);
        break;
      case WorkloadKind::HdSearch:
        service = std::make_unique<svc::HdSearchCluster>(
            sim, cfg.server, serverToClient, gen, rootRng.fork(),
            cfg.hdsearch);
        break;
      case WorkloadKind::SocialNetwork:
        service = std::make_unique<svc::SocialNetworkApp>(
            sim, cfg.server, serverToClient, gen, rootRng.fork(),
            cfg.socialnet);
        break;
    }
    serverDoor.target = service.get();

    // Intra-run parallelism: carve the service graph into event-queue
    // domains (domain 0 stays the client/harness side) and switch the
    // run to the conservative windowed engine before the generator
    // schedules its first arrival. Service machines pack into at most
    // intraThreads - 1 domains (domain 0 is the client's), and the
    // window is sized by the tightest cross-domain edge the plan
    // actually cuts — plus the client links, which always cross. Kept
    // serial only when the crew would be size 1 or the shape is
    // degenerate (< 2 domains, a cut edge with a zero delay floor);
    // fault plans run partitioned (the injector homes every state
    // flip in its owning domain) and so do non-tickless servers
    // (their tick loops migrate into their machines' domains).
    int intraDomains = 1;
    if (intraThreads > 1) {
        const int serviceDomains = service->planPartitions(
            1, std::max(1, intraThreads - 1));
        const int domains = 1 + serviceDomains;
        const Time lookahead =
            std::min(net::Link::minDelayFloor(cfg.network),
                     service->minCutFloor());
        const int threads = std::min(intraThreads, domains);
        if (domains >= 2 && threads >= 2 && lookahead > 0 &&
            domains < (1 << PartitionedEngine::kDomainBits)) {
            // Pull construction-time tick loops off the setup queue
            // before enablePartition() adopts it into domain 0, then
            // re-home them into their machines' planned domains. The
            // shape was checked above, so enablePartition() cannot
            // refuse and leave the ticks detached.
            service->detachTicks();
            const bool enabled =
                sim.enablePartition(domains, lookahead, threads);
            TPV_ASSERT(enabled, "partition refused a checked shape");
            service->attachTicks();
            service->shardStats(domains);
            intraDomains = domains;
        }
    }

    // Flight recorder: built once the run's domain count is final, so
    // the per-domain slabs line up with the engine the run executes
    // on. The client links' wire spans are hooked here (the graph owns
    // only its internal links); both fire in the sending domain.
    std::unique_ptr<obs::TraceRecorder> trace;
    std::unique_ptr<obs::MetricsRegistry> metrics;
    if (cfg.obs.trace) {
        trace = std::make_unique<obs::TraceRecorder>(
            cfg.obs.traceConfig(), cfg.seed, intraDomains);
        service->setTrace(trace.get());
        auto wireObs = [&sim, tr = trace.get()](const net::Message &m,
                                                Time delay, bool) {
            // Client messages are root requests and their replies.
            const std::uint64_t root = m.id;
            if (!tr->wants(root))
                return;
            obs::SpanRecord rec;
            rec.start = sim.now();
            rec.end = rec.start + delay;
            rec.rootId = root;
            rec.arg = m.bytes;
            rec.kind = obs::SpanKind::Wire;
            int d = 0;
            if (sim.partitioned())
                d = std::max(0, sim.currentDomain());
            tr->record(d, rec);
        };
        clientToServer.setObserver(wireObs);
        serverToClient.setObserver(wireObs);
    }

    gen.start();
    // Run the measured window, then drain in-flight requests without
    // accepting new samples (the recorder window is already closed).
    const Time drain = msec(50);
    const Time horizon = gen.windowEnd() + drain;

    if (cfg.obs.metricsPeriod > 0) {
        metrics = std::make_unique<obs::MetricsRegistry>();
        service->registerMetrics(*metrics);
        metrics->arm(sim, cfg.obs.metricsPeriod, horizon);
    }

    // Fault injection: armed only for a non-empty plan, so healthy
    // runs consume no extra randomness and stay bit-identical to
    // pre-fault builds. The injector outlives runUntil() — its
    // scheduled window events call back into it.
    std::unique_ptr<fault::Injector> injector;
    if (!cfg.faultPlan.empty()) {
        injector = std::make_unique<fault::Injector>(
            sim, *service, cfg.faultPlan, rootRng.fork());
        injector->arm(horizon);
    }

    sim.runUntil(horizon);

    // A violated conservative invariant means the partitioned results
    // cannot be trusted; the serial engine is always correct, so the
    // re-run reproduces exactly what intraThreads=1 would have seen.
    if (sim.partitionViolated())
        return runOnceImpl(cfg, 1);

    // Export hook: fires once per completed run (the violated-run
    // path above re-runs serially and exports from that run's own
    // fresh recorders instead).
    if (cfg.obs.sink)
        cfg.obs.sink(trace.get(), metrics.get());

    RunResult out;
    out.latency = gen.recorder().latencySummary();
    out.sendLateness = gen.recorder().latenessSummary();
    out.sent = gen.recorder().sent();
    out.received = gen.recorder().received();
    if (cfg.sloLatency > 0) {
        // Goodput numerator: recorded latencies are in us, sorted
        // ascending, so the SLO cut is one binary search.
        const auto &xs = gen.recorder().sortedLatencies();
        const double sloUs =
            static_cast<double>(cfg.sloLatency) / 1000.0;
        out.receivedWithinSlo = static_cast<std::uint64_t>(
            std::upper_bound(xs.begin(), xs.end(), sloUs) -
            xs.begin());
    }
    out.clientHw = clientMachine.stats();
    if (serverMachine)
        out.serverHw = serverMachine->stats();
    out.service = service->stats();
    out.events = sim.executedEvents();
    out.intraDomains = intraDomains;
    return out;
}

} // namespace

RunResult
runOnce(const ExperimentConfig &cfg)
{
    return runOnceImpl(cfg, cfg.intraThreads);
}

} // namespace core
} // namespace tpv
