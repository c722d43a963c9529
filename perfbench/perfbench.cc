/**
 * @file
 * The repo benchmark: runs one workload (workloads.hh) for a
 * fixed host-time budget and prints its metrics as one JSON line.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--scale <f>]
 *
 * --trace 0 measures the end-to-end metrics with tracing off; --trace 1
 * is the separate traced run that reports the per-layer metrics.
 * Every layer is measured from outside, through tpv's public API:
 * this file times its own calls into core::runManyBatch/runOnce,
 * Simulator::runUntil, hw::HwThread::submit, net::Link::send,
 * svc::CacheModel, svc::ZipfSampler, stats::* and
 * obs::TraceRecorder, and reads the simulated counters RunResult and
 * the obs.sink hook return. --scale shrinks every simulated window
 * (the self-test runs at 0.1); digests are pinned at scale 1 only.
 *
 * The last line of stdout is
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * where attempted/failed count simulated runs (README.md, "Failures").
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "core/runner.hh"
#include "core/scheduler.hh"
#include "hw/machine.hh"
#include "loadgen/openloop.hh"
#include "net/link.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/simulator.hh"
#include "stats/ci.hh"
#include "stats/descriptive.hh"
#include "stats/sample_size.hh"
#include "stats/shapiro_wilk.hh"
#include "svc/cache.hh"
#include "svc/keyspace.hh"
#include "workloads.hh"

// The bench programs' replaced global operator new, which counts heap
// allocations (sim.steady_allocs_per_event). The simulator's steady
// state allocates nothing, so the untraced measurement pays the count
// only during set-up.
#include "../bench/alloc_counter.hh"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> xs)
{
    return xs.empty() ? 0.0 : stats::median(xs);
}

/** Median of @p n samples of @p sample(i): host-time probes repeat, so
 *  one slow moment on a shared host does not become the figure. */
template <typename F>
double
medianOf(int n, F sample)
{
    std::vector<double> xs;
    for (int i = 0; i < n; ++i)
        xs.push_back(sample(i));
    return median(xs);
}

// ---------------------------------------------------------------------
// Output digests
// ---------------------------------------------------------------------

/** FNV-1a over the raw bytes of simulated outputs. */
struct Fnv
{
    std::uint64_t h = 1469598103934665603ULL;

    template <typename T>
    void
    operator()(const T &v)
    {
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &v, sizeof(T));
        for (unsigned char b : bytes) {
            h ^= b;
            h *= 1099511628211ULL;
        }
    }

    void
    summary(const stats::Summary &s)
    {
        (*this)(s.count);
        for (double v : {s.mean, s.stdev, s.min, s.max, s.median, s.p90,
                         s.p95, s.p99})
            (*this)(v);
    }
};

/** Fingerprint of one run's simulated outputs: latency and lateness
 *  summaries, sent/received, client hardware and service counters,
 *  and the executed-event count. */
std::uint64_t
runDigest(const core::RunResult &r)
{
    Fnv f;
    f.summary(r.latency);
    f.summary(r.sendLateness);
    f(r.sent);
    f(r.received);
    f(r.events);
    f(r.clientHw.wakes);
    f(r.clientHw.exitLatencyPaid);
    f(r.clientHw.freqTransitions);
    f(r.clientHw.irqsDelivered);
    const svc::ServiceStats &s = r.service;
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
        f(t.cacheHits);
        f(t.cacheMisses);
    }
    return f.h;
}

/**
 * Pass digests at seed 1 and scale 1, by workload. A change that is
 * meant to alter simulated outputs re-pins them from the "digest" line
 * a seed-1 run prints, and says so.
 */
const std::map<std::string, std::uint64_t> kPinnedSeed1 = {
    {"paper-clients", 0x30fb21664cb11fe5ULL},
    {"fanout-wide", 0x5274987fbd846be9ULL},
    {"cache-churn", 0xff7611bd5e22557dULL},
};

// ---------------------------------------------------------------------
// Passes: every cell x reps through one core::runManyBatch call
// ---------------------------------------------------------------------

/**
 * Per-run host time, read from outside through the obs.sink hook
 * (which fires at the end of every run on the worker that ran it): a
 * run's time is the gap since the same worker's previous run ended,
 * or since the batch started.
 */
struct RunClock
{
    std::mutex mu;
    /** Sum of the per-run times so far. */
    double total = 0;
    Clock::time_point start;
    std::uint64_t batch = 0;
};

std::atomic<std::uint64_t> g_batch{0};
thread_local std::uint64_t tl_batch = 0;
thread_local Clock::time_point tl_lastEnd;

struct Pass
{
    /** The configurations the pass ran. */
    std::vector<core::ExperimentConfig> cells;
    double wall = 0;
    std::uint64_t events = 0;
    std::size_t runs = 0;
    /** results[cell].runs[rep]. */
    std::vector<core::RepeatedResult> results;
    std::vector<std::uint64_t> runDigests;
    std::uint64_t digest = 0;
    /** Sum of per-run host seconds (obs.sink gaps). */
    double runHostSum = 0;
};

/** Obs settings of a pass: off, or 1/64 head sampling with no tail
 *  ring (the configuration the tracing-overhead figure prices). */
enum class Tracing { Off, Sampled };

Pass
runPass(std::vector<core::ExperimentConfig> cells, int workers,
        std::uint64_t seed, Tracing tracing, int reps = kReps)
{
    auto clock = std::make_shared<RunClock>();
    clock->batch = ++g_batch;
    for (core::ExperimentConfig &cfg : cells) {
        if (tracing == Tracing::Sampled) {
            cfg.obs.trace = true;
            cfg.obs.sampleEveryN = 64;
            cfg.obs.tailN = 0;
        }
        cfg.obs.sink = [clock](const obs::TraceRecorder *,
                               const obs::MetricsRegistry *) {
            const auto now = Clock::now();
            const auto from =
                tl_batch == clock->batch ? tl_lastEnd : clock->start;
            tl_batch = clock->batch;
            tl_lastEnd = now;
            std::lock_guard<std::mutex> lock(clock->mu);
            clock->total += std::chrono::duration<double>(now - from).count();
        };
    }
    core::RunnerOptions opt;
    opt.runs = reps;
    opt.baseSeed = seed;
    opt.parallelism = workers;

    Pass p;
    clock->start = Clock::now();
    p.results = core::runManyBatch(cells, opt);
    p.cells = std::move(cells);
    p.wall = secondsSince(clock->start);
    Fnv f;
    for (const core::RepeatedResult &cell : p.results) {
        for (const core::RunResult &r : cell.runs) {
            p.events += r.events;
            ++p.runs;
            p.runDigests.push_back(runDigest(r));
            f(p.runDigests.back());
        }
    }
    p.digest = f.h;
    p.runHostSum = clock->total;
    return p;
}

// ---------------------------------------------------------------------
// Failure accounting
// ---------------------------------------------------------------------

/** Minimum delivered share of a run's window: below it the run did
 *  not drain (a growing backlog or dropped requests). */
constexpr double kMinReceivedRatio = 0.999;
/** Maximum p99 growth when the guard cell's window doubles. */
constexpr double kMaxP99Growth = 1.5;

struct Ledger
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> notes;

    void
    note(const std::string &why)
    {
        if (notes.size() < 8)
            notes.push_back(why);
    }
};

double
receivedRatio(const core::RunResult &r)
{
    return r.sent == 0 ? 0.0
                       : static_cast<double>(r.received) /
                             static_cast<double>(r.sent);
}

/**
 * Check a pass: every run drained and (when the cell asks for a crew)
 * really ran partitioned; every run repeats @p reference's digest when
 * given; the pass digest equals @p pinned when non-zero (else every
 * run of the pass fails). A run counts as failed once.
 */
void
checkPass(const Pass &p, Ledger &ledger,
          const std::vector<std::uint64_t> *reference, std::uint64_t pinned,
          const char *what)
{
    const bool pinFails = pinned != 0 && p.digest != pinned;
    if (pinFails) {
        char buf[96];
        std::snprintf(buf, sizeof buf,
                      "%s: pass digest %016llx != pinned %016llx", what,
                      static_cast<unsigned long long>(p.digest),
                      static_cast<unsigned long long>(pinned));
        ledger.note(buf);
    }
    std::size_t i = 0;
    for (std::size_t c = 0; c < p.results.size(); ++c) {
        for (const core::RunResult &r : p.results[c].runs) {
            const std::string tag = std::string(what) + " " +
                                    p.cells[c].label + " run " +
                                    std::to_string(i);
            std::string why;
            if (receivedRatio(r) < kMinReceivedRatio)
                why = "drain guard, received/sent " +
                      std::to_string(receivedRatio(r));
            else if (p.cells[c].intraThreads > 1 && r.intraDomains == 1)
                why = "partitioned run came back serial";
            else if (reference != nullptr &&
                     (*reference)[i] != p.runDigests[i])
                why = "digest differs from reference";
            if (!why.empty())
                ledger.note(tag + ": " + why);
            if (!why.empty() || pinFails)
                ++ledger.failed;
            ++ledger.attempted;
            ++i;
        }
    }
}

/**
 * Drain guard on window length: the guard cell at its window and at
 * twice it (same seed) must both drain, and its simulated p99 may not
 * climb by more than kMaxP99Growth — a growing backlog would.
 */
void
windowGuard(const Workload &w, std::uint64_t seed, Ledger &ledger)
{
    core::ExperimentConfig cfg = w.cells[w.guardCell];
    cfg.seed = core::deriveRunSeed(seed, 0);
    const core::RunResult shortRun = core::runOnce(cfg);
    cfg.gen.duration *= 2;
    const core::RunResult longRun = core::runOnce(cfg);
    ledger.attempted += 2;
    const double growth = longRun.latency.p99 / shortRun.latency.p99;
    if (receivedRatio(shortRun) < kMinReceivedRatio ||
        receivedRatio(longRun) < kMinReceivedRatio ||
        !(growth <= kMaxP99Growth)) {
        ledger.failed += 2;
        ledger.note("window guard on " + cfg.label + ": p99 " +
                    std::to_string(shortRun.latency.p99) + " -> " +
                    std::to_string(longRun.latency.p99) + " us");
    }
}

std::uint64_t
pinnedFor(const Workload &w, std::uint64_t seed, double scale)
{
    if (seed != 1 || scale != 1.0)
        return 0;
    const auto it =
        kPinnedSeed1.find(w.name);
    return it == kPinnedSeed1.end() ? 0 : it->second;
}

// ---------------------------------------------------------------------
// Set-up: every cell's system built up to its first event
// ---------------------------------------------------------------------

/** Late-bound endpoint (generator and service reference each other),
 *  as in core::runOnce. */
struct Relay : net::Endpoint
{
    net::Endpoint *target = nullptr;
    void onMessage(const net::Message &m) override { target->onMessage(m); }
    int
    partitionOf(const net::Message &m) const override
    {
        return target->partitionOf(m);
    }
};

/**
 * One cell's simulated system, built by hand as core::runOnce wires it
 * on the serial engine, in the same order and with the same RNG
 * draws, and stopped before its first event: the client machine, both
 * links, the generator with its first arrivals scheduled, the service
 * (machines, ServiceGraph, pools, cache prewarm) and the armed fault
 * plan. Multi-tier services are the keyed/widened memcached cluster
 * and HDSearch, the shapes the workloads use.
 */
struct Rig
{
    Simulator sim;
    Rng root;
    std::unique_ptr<hw::Machine> client;
    std::unique_ptr<net::Link> toServer, toClient;
    Relay door;
    std::unique_ptr<loadgen::OpenLoopGenerator> gen;
    std::unique_ptr<hw::Machine> serverMachine;
    std::unique_ptr<net::Endpoint> service;
    std::unique_ptr<fault::Injector> injector;
    /** End of the measurement window and of the 50 ms drain after it. */
    Time windowEnd = 0, horizon = 0;

    explicit Rig(const core::ExperimentConfig &cfg) : root(cfg.seed)
    {
        hw::HwConfig clientCfg = cfg.client;
        int cores = cfg.gen.threads;
        if (cfg.gen.sendMode == loadgen::SendMode::BusyWait &&
            cfg.gen.completion == loadgen::CompletionMode::Blocking)
            cores *= 2;
        clientCfg.cores = std::max(clientCfg.cores, cores);
        client = std::make_unique<hw::Machine>(sim, clientCfg, "client",
                                               root.u64());
        toServer = std::make_unique<net::Link>(sim, root.fork(), cfg.network);
        toClient = std::make_unique<net::Link>(sim, root.fork(), cfg.network);
        gen = std::make_unique<loadgen::OpenLoopGenerator>(
            sim, *client, *toServer, door, cfg.gen, root.fork());
        svc::ServiceGraph *graph = nullptr;
        if (cfg.workload == core::WorkloadKind::HdSearch) {
            auto s = std::make_unique<svc::HdSearchCluster>(
                sim, cfg.server, *toClient, *gen, root.fork(), cfg.hdsearch);
            graph = &s->graph();
            service = std::move(s);
        } else if (cfg.memcached.shards > 1 || cfg.memcached.replicas > 1 ||
                   cfg.memcached.cache.enabled()) {
            auto s = std::make_unique<svc::MemcachedCluster>(
                sim, cfg.server, *toClient, *gen, root.fork(), cfg.memcached);
            graph = &s->graph();
            service = std::move(s);
        } else {
            serverMachine = std::make_unique<hw::Machine>(
                sim, cfg.server, "server", root.u64());
            auto s = std::make_unique<svc::MemcachedServer>(
                sim, *serverMachine, *toClient, *gen, root.fork(),
                cfg.memcached);
            graph = &s->graph();
            service = std::move(s);
        }
        door.target = service.get();
        gen->start();
        windowEnd = gen->windowEnd();
        horizon = windowEnd + msec(50);
        if (!cfg.faultPlan.empty()) {
            injector = std::make_unique<fault::Injector>(sim, *graph,
                                                         cfg.faultPlan,
                                                         root.fork());
            injector->arm(horizon);
        }
    }
};

/**
 * Host cost of building each cell's simulated system (a Rig): nothing
 * of the event loop, the drain or the teardown, which the passes pay
 * and the rates count. Rounds are interleaved with the passes, so
 * set-up is sampled across the same stretch of host time as the rates.
 */
struct Setup
{
    /** Host seconds of each round (every cell built once). */
    std::vector<double> rounds;
    /** cellTimes[c]: cell c's host seconds in each round. */
    std::vector<std::vector<double>> cellTimes;

    void
    round(const Workload &w)
    {
        cellTimes.resize(w.cells.size());
        double total = 0;
        for (std::size_t c = 0; c < w.cells.size(); ++c) {
            const auto t0 = Clock::now();
            auto rig = std::make_unique<Rig>(w.cells[c]);
            const double secs = secondsSince(t0);
            rig.reset();
            cellTimes[c].push_back(secs);
            total += secs;
        }
        rounds.push_back(total);
    }

    /** Median set-up seconds of one run of each cell. */
    std::vector<double>
    perCell() const
    {
        std::vector<double> out;
        for (const auto &times : cellTimes)
            out.push_back(median(times));
        return out;
    }
};

/** Workers a pass keeps busy. */
int
workers(const Workload &w)
{
    return std::max(1, std::min(maxThreads(),
                                static_cast<int>(w.cells.size()) * kReps));
}

/** Events per host second of passes (@p events, @p walls), each with
 *  the set-up share of its wall time (per-run set-up spread over the
 *  workers) taken out. */
std::vector<double>
eventsPerSec(const Workload &w, const std::vector<double> &events,
             const std::vector<double> &walls, const Setup &setup)
{
    double share = 0;
    for (double s : setup.perCell())
        share += s * kReps;
    share /= workers(w);
    std::vector<double> out;
    for (std::size_t i = 0; i < walls.size(); ++i)
        out.push_back(events[i] / std::max(walls[i] - share, 0.5 * walls[i]));
    return out;
}

/** Peak resident memory of this process image. VmHWM, not
 *  getrusage's ru_maxrss, which carries the launching process's peak
 *  across exec. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0;
    }
    return 0;
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(const Ledger &ledger, const std::vector<Metric> &metrics)
{
    for (const std::string &note : ledger.notes)
        std::fprintf(stderr, "perfbench: FAILED %s\n", note.c_str());
    std::ostringstream out;
    out.precision(17);
    out << "{\"correct\": " << (ledger.failed == 0 ? "true" : "false")
        << ", \"attempted\": " << ledger.attempted
        << ", \"failed\": " << ledger.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out << (i ? ", " : "") << "\"" << metrics[i].name
            << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
            << metrics[i].unit << "\"}";
    }
    out << "}}";
    std::printf("%s\n", out.str().c_str());
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    double scale = 1.0;
};

/** Runs per cell in the crew check, which is untimed and pays one
 *  crew spin-up per run. */
constexpr int kCrewReps = 4;

/** Common preamble of both modes: three set-up rounds, the window
 *  guard and, for a workload with a crew check, that check. */
struct Prelude
{
    Setup setup;
    Ledger ledger;
    std::uint64_t pinned = 0;
    /** The crew check's passes: the cells one run at a time on the
     *  serial engine and on the crew, kCrewReps each (null without a
     *  crew check). */
    std::unique_ptr<Pass> serial, crew;
};

Prelude
prelude(const Workload &w, const Args &a)
{
    Prelude pre;
    for (int r = 0; r < 3; ++r)
        pre.setup.round(w);
    windowGuard(w, a.seed, pre.ledger);
    pre.pinned = pinnedFor(w, a.seed, a.scale);
    if (w.crewThreads > 0) {
        std::vector<core::ExperimentConfig> cells = w.cells;
        for (core::ExperimentConfig &cfg : cells)
            cfg.intraThreads = 1;
        pre.serial = std::make_unique<Pass>(
            runPass(cells, 1, a.seed, Tracing::Off, kCrewReps));
        for (core::ExperimentConfig &cfg : cells)
            cfg.intraThreads = w.crewThreads;
        pre.crew = std::make_unique<Pass>(
            runPass(cells, 1, a.seed, Tracing::Off, kCrewReps));
        checkPass(*pre.serial, pre.ledger, nullptr, 0, "serial check");
        checkPass(*pre.crew, pre.ledger, &pre.serial->runDigests, 0,
                  "crew check");
    }
    return pre;
}

// ---------------------------------------------------------------------
// --trace 0: end-to-end metrics
// ---------------------------------------------------------------------

int
runEndToEnd(const Workload &w, const Args &a)
{
    Prelude pre = prelude(w, a);
    std::vector<double> events, walls, rps;
    std::vector<std::uint64_t> firstDigests;
    std::uint64_t digest = 0;
    const auto t0 = Clock::now();
    // Passes until the budget is spent (never fewer than three), each
    // repeating the same seeds and preceded by two set-up rounds; the
    // reported figures are medians.
    while (walls.size() < 3 || secondsSince(t0) + walls.back() <= a.seconds) {
        pre.setup.round(w);
        pre.setup.round(w);
        const Pass p = runPass(w.cells, maxThreads(), a.seed, Tracing::Off);
        if (walls.empty()) {
            firstDigests = p.runDigests;
            digest = p.digest;
        }
        checkPass(p, pre.ledger, &firstDigests, pre.pinned, "pass");
        events.push_back(static_cast<double>(p.events));
        walls.push_back(p.wall);
        rps.push_back(static_cast<double>(p.runs) / p.wall);
    }
    const std::vector<double> eps = eventsPerSec(w, events, walls, pre.setup);
    std::printf("digest %s %016llx\n", w.name.c_str(),
                static_cast<unsigned long long>(digest));
    std::fprintf(stderr,
                 "perfbench: %s seed %llu: %zu passes of %zu runs, "
                 "%.2f Mev/s, %.1f runs/s, set-up %.2f ms\n",
                 w.name.c_str(), static_cast<unsigned long long>(a.seed),
                 eps.size(), w.cells.size() * kReps, median(eps) / 1e6,
                 median(rps), median(pre.setup.rounds) * 1e3);
    printResult(pre.ledger,
                {{"events_per_s", median(eps), "events/s"},
                 {"runs_per_s", median(rps), "runs/s"},
                 {"setup_s", median(pre.setup.rounds), "s"},
                 {"peak_rss_mb", peakRssMb(), "MB"}});
    return 0;
}

// ---------------------------------------------------------------------
// --trace 1: per-layer metrics
// ---------------------------------------------------------------------

struct SliceProbe
{
    double nsPerEvent = 0;
    double pendingMean = 0;
    double allocsPerEvent = 0;
};

/**
 * The event loop seen from outside: build @p cfg's system as a Rig
 * and drive it through Simulator::runUntil in 200 slices of the
 * measurement window. The window's second half is the steady state:
 * host ns per event (median over its slices) and heap allocations per
 * event are taken there; queue depth is sampled between every slice.
 * The drain runs after, untimed.
 */
SliceProbe
sliceProbe(const core::ExperimentConfig &cfg)
{
    Rig rig(cfg);
    Simulator &sim = rig.sim;
    constexpr int kSlices = 200;
    double pendingSum = 0;
    std::vector<double> sliceNsPerEvent;
    std::uint64_t steadyEvents = 0, steadyAllocs = 0;
    for (int i = 1; i <= kSlices; ++i) {
        const std::uint64_t events0 = sim.executedEvents();
        const std::uint64_t allocs0 = bench::g_allocs.load();
        const auto t0 = Clock::now();
        sim.runUntil(rig.windowEnd / kSlices * i);
        const double ns = secondsSince(t0) * 1e9;
        const std::uint64_t allocs = bench::g_allocs.load() - allocs0;
        pendingSum += static_cast<double>(sim.pendingEvents());
        const std::uint64_t events = sim.executedEvents() - events0;
        if (i > kSlices / 2 && events > 0) {
            sliceNsPerEvent.push_back(ns / static_cast<double>(events));
            steadyEvents += events;
            steadyAllocs += allocs;
        }
    }
    sim.runUntil(rig.horizon);
    SliceProbe out;
    const double ev = static_cast<double>(std::max<std::uint64_t>(
        steadyEvents, 1));
    out.nsPerEvent = median(sliceNsPerEvent);
    out.pendingMean = pendingSum / kSlices;
    out.allocsPerEvent = static_cast<double>(steadyAllocs) / ev;
    return out;
}

/**
 * The hardware model alone: a standalone client Machine whose
 * generator threads each receive Poisson-timed 2 us tasks through
 * HwThread::submit at the workload's per-thread rate. @return host ns
 * per completed task over about 40K tasks.
 */
double
hwTaskNs(const core::ExperimentConfig &cfg, std::uint64_t seed)
{
    struct State
    {
        Simulator sim;
        std::unique_ptr<hw::Machine> machine;
        Rng rng{1};
        double meanGapNs = 0;
        std::uint64_t completed = 0;

        void
        arrive(std::size_t thread)
        {
            machine->thread(thread).submit(usec(2), [this] { ++completed; });
            sim.schedule(static_cast<Time>(rng.exponential(meanGapNs)) + 1,
                         [this, thread] { arrive(thread); });
        }
    };
    State st;
    st.rng = Rng(seed);
    hw::HwConfig mc = cfg.client;
    mc.cores = std::max(mc.cores, cfg.gen.threads);
    st.machine = std::make_unique<hw::Machine>(st.sim, mc, "hw-probe", seed);
    const int threads = cfg.gen.threads;
    st.meanGapNs = 1e9 * threads / cfg.gen.qps;
    for (int t = 0; t < threads; ++t)
        st.arrive(static_cast<std::size_t>(t));
    const Time span = static_cast<Time>(4e4 / cfg.gen.qps * 1e9);
    const auto t0 = Clock::now();
    st.sim.runUntil(span);
    const double ns = secondsSince(t0) * 1e9;
    return ns / static_cast<double>(std::max<std::uint64_t>(st.completed, 1));
}

/** net::Link alone: host ns per Link::send plus its delivery event,
 *  with the workload's client link parameters. */
double
netSendNs(const core::ExperimentConfig &cfg, std::uint64_t seed)
{
    Simulator sim;
    net::Link link(sim, Rng(seed), cfg.network);
    bench::Sink sink;
    net::Message msg;
    msg.bytes = static_cast<std::uint32_t>(cfg.gen.requestBytes);
    constexpr int kBatches = 200, kBatch = 256;
    const auto t0 = Clock::now();
    for (int b = 0; b < kBatches; ++b) {
        for (int i = 0; i < kBatch; ++i) {
            msg.id = static_cast<std::uint64_t>(b * kBatch + i + 1);
            link.send(msg, sink);
        }
        sim.run();
    }
    return secondsSince(t0) * 1e9 / (kBatches * kBatch);
}

struct CacheProbe
{
    double opNs = 0;
    double zipfNs = 0;
};

/**
 * The cache layer alone, on @p cfg's key stream and GET/SET mix:
 * ZipfSampler draws (timed on their own), then CacheModel get/put with
 * miss fills. Zero for unkeyed configs, which never touch it.
 */
CacheProbe
cacheProbe(const core::ExperimentConfig &cfg, std::uint64_t seed)
{
    CacheProbe out;
    const svc::CacheShape &shape = cfg.memcached.cache;
    if (cfg.workload != core::WorkloadKind::Memcached || !shape.enabled())
        return out;
    // Four chunks: the first fills the cache, each is one timing sample.
    constexpr std::size_t kChunk = 1 << 18, kOps = 4 * kChunk;
    const svc::ZipfSampler zipf(shape.keys, shape.skew);
    Rng rng(seed);
    std::vector<std::uint64_t> keys(kOps);
    out.zipfNs = medianOf(4, [&](int c) {
        const auto t0 = Clock::now();
        for (std::size_t i = c * kChunk; i < (c + 1) * kChunk; ++i)
            keys[i] = zipf(rng);
        return secondsSince(t0) * 1e9 / kChunk;
    });
    std::vector<bool> isGet(kOps);
    for (std::size_t i = 0; i < kOps; ++i)
        isGet[i] = rng.chance(cfg.memcached.etc.getFraction);
    svc::CacheModel cache(shape, rng.fork());
    auto op = [&](std::size_t i) {
        const std::uint64_t k = keys[i];
        if (!isGet[i] || !cache.get(k).hit)
            cache.put(k, cfg.memcached.etc.valueBytesForKey(k));
    };
    for (std::size_t i = 0; i < kChunk; ++i)
        op(i);
    out.opNs = medianOf(3, [&](int c) {
        const auto t0 = Clock::now();
        for (std::size_t i = (c + 1) * kChunk; i < (c + 2) * kChunk; ++i)
            op(i);
        return secondsSince(t0) * 1e9 / kChunk;
    });
    return out;
}

struct Explainer
{
    double exportMs = 0;
    double queueFrac = 0, serviceFrac = 0, wireFrac = 0;
    double stallFrac = 0;
};

/**
 * One traced run of @p cfg with head sampling plus a 16-root tail ring
 * (and timeline metrics on a partitioned run): times exportJson,
 * splits the slowest roots' queue/service/wire span time, and reads
 * the crew's barrier stall from MetricsRegistry::stallCsv.
 */
Explainer
explain(core::ExperimentConfig cfg, std::uint64_t seed)
{
    Explainer out;
    cfg.seed = core::deriveRunSeed(seed, 0);
    cfg.obs.trace = true;
    cfg.obs.sampleEveryN = 64;
    cfg.obs.tailN = 16;
    if (cfg.intraThreads > 1)
        cfg.obs.metricsPeriod = msec(1);
    const auto t0 = Clock::now();
    cfg.obs.sink = [&out, t0](const obs::TraceRecorder *trace,
                              const obs::MetricsRegistry *metrics) {
        const double runNs = secondsSince(t0) * 1e9;
        if (metrics != nullptr) {
            // Last row of the cumulative per-domain stall series.
            const std::string csv = metrics->stallCsv();
            const std::size_t end = csv.find_last_not_of('\n');
            const std::size_t begin = csv.rfind('\n', end);
            if (end != std::string::npos && begin != std::string::npos) {
                std::istringstream row(csv.substr(begin + 1, end - begin));
                std::string cell;
                std::getline(row, cell, ','); // time_ns
                double sum = 0;
                int n = 0;
                while (std::getline(row, cell, ',')) {
                    sum += std::atof(cell.c_str());
                    ++n;
                }
                if (n > 0)
                    out.stallFrac = sum / n / runNs;
            }
        }
        if (trace == nullptr)
            return;
        out.exportMs = medianOf(5, [trace](int) {
            const auto e0 = Clock::now();
            const std::string json = trace->exportJson();
            return json.empty() ? 0.0 : secondsSince(e0) * 1e3;
        });
        double q = 0, s = 0, wire = 0;
        for (const auto &root : trace->slowestRoots(16)) {
            for (const obs::SpanRecord &span : root.spans) {
                const double d = static_cast<double>(span.end - span.start);
                if (span.kind == obs::SpanKind::QueueWait)
                    q += d;
                else if (span.kind == obs::SpanKind::Service)
                    s += d;
                else if (span.kind == obs::SpanKind::Wire)
                    wire += d;
            }
        }
        const double total = q + s + wire;
        if (total > 0) {
            out.queueFrac = q / total;
            out.serviceFrac = s / total;
            out.wireFrac = wire / total;
        }
    };
    (void)core::runOnce(cfg);
    return out;
}

int
runPerLayer(const Workload &w, const Args &a)
{
    Prelude pre = prelude(w, a);

    // Host probes first, while every workload's process has the same
    // short history: what ran before a probe moves its figure.
    const core::ExperimentConfig &probeCfg = w.cells[w.guardCell];
    core::ExperimentConfig sliceCfg = probeCfg;
    sliceCfg.seed = core::deriveRunSeed(a.seed, 0);
    const SliceProbe slice = sliceProbe(sliceCfg);
    const double taskNs =
        medianOf(5, [&](int i) { return hwTaskNs(probeCfg, a.seed + i); });
    const double sendNs =
        medianOf(5, [&](int i) { return netSendNs(probeCfg, a.seed + i); });
    const CacheProbe cache = cacheProbe(probeCfg, a.seed);
    const Explainer ex = explain(probeCfg, a.seed);

    const auto t0 = Clock::now();

    // Reference pass: simulated per-request metrics and stats come
    // from it; every later pass must repeat its digests.
    const Pass ref = runPass(w.cells, maxThreads(), a.seed, Tracing::Off);
    checkPass(ref, pre.ledger, nullptr, pre.pinned, "reference pass");

    // Untraced/traced pairs, alternating, on half the budget.
    // [0] untraced, [1] traced.
    std::vector<double> passEvents[2], walls[2], busy;
    while (walls[0].size() < 2 || secondsSince(t0) < a.seconds / 2) {
        pre.setup.round(w);
        const bool tracedFirst = walls[0].size() % 2 == 1;
        for (int k = 0; k < 2; ++k) {
            const int on = (k == 0) == tracedFirst ? 1 : 0;
            const Pass p =
                runPass(w.cells, maxThreads(), a.seed,
                        on ? Tracing::Sampled : Tracing::Off);
            checkPass(p, pre.ledger, &ref.runDigests, pre.pinned,
                      on ? "traced pass" : "untraced pass");
            passEvents[on].push_back(static_cast<double>(p.events));
            walls[on].push_back(p.wall);
            if (!on)
                busy.push_back(p.runHostSum / (p.wall * workers(w)));
        }
    }
    const double untracedEps =
        median(eventsPerSec(w, passEvents[0], walls[0], pre.setup));
    const double tracedEps =
        median(eventsPerSec(w, passEvents[1], walls[1], pre.setup));

    // The partitioned engine, from the crew check: run-for-run serial
    // events/s over crew events/s, the crew's mean domain count, and
    // its barrier stall in one traced run.
    double slowdownVsSerial = 1, domains = 1, stallFrac = 0;
    if (pre.crew) {
        slowdownVsSerial = (pre.serial->events / pre.serial->wall) /
                           (pre.crew->events / pre.crew->wall);
        domains = 0;
        for (const core::RepeatedResult &cell : pre.crew->results) {
            for (const core::RunResult &r : cell.runs)
                domains += r.intraDomains;
        }
        domains /= static_cast<double>(pre.crew->runs);
        core::ExperimentConfig crewCfg = probeCfg;
        crewCfg.intraThreads = w.crewThreads;
        stallFrac = explain(crewCfg, a.seed).stallFrac;
    }

    // stats: the Table IV iteration rule per cell on per-run p99.
    double reps = 0;
    const double summariseMs = medianOf(5, [&](int) {
        reps = 0;
        const auto s0 = Clock::now();
        for (const core::RepeatedResult &cell : ref.results) {
            const std::vector<double> &xs = cell.p99PerRun;
            (void)stats::nonparametricMedianCI(xs);
            const stats::ShapiroWilkResult sw = stats::shapiroWilk(xs);
            const std::uint64_t jain = stats::jainIterations(xs, 1.0);
            const stats::ConfirmResult confirm = stats::confirmIterations(xs);
            reps += static_cast<double>(sw.normalAt(0.05) ? jain
                                                          : confirm.iterations);
        }
        return secondsSince(s0) * 1e3;
    });

    // Simulated outputs of the reference pass.
    double sent = 0, received = 0, runs = 0, events = 0;
    double wakes = 0, exitNs = 0, freq = 0, irqs = 0;
    double subs = 0, hedges = 0, dupWork = 0, work = 0, hits = 0,
           misses = 0, evictions = 0, fills = 0, retries = 0,
           suppressed = 0, opens = 0, lost = 0, windows = 0, failedOver = 0;
    std::vector<double> p50, p99, late, lpP99, hpP99;
    for (std::size_t c = 0; c < ref.results.size(); ++c) {
        for (const core::RunResult &r : ref.results[c].runs) {
            sent += r.sent;
            received += r.received;
            runs += 1;
            events += r.events;
            wakes += r.clientHw.wakes;
            exitNs += r.clientHw.exitLatencyPaid;
            freq += r.clientHw.freqTransitions;
            irqs += r.clientHw.irqsDelivered;
            const svc::ServiceStats &s = r.service;
            subs += s.subRequestsSent;
            hedges += s.hedgesSent;
            dupWork += s.duplicateWorkDispatched;
            work += s.serviceWorkDispatched;
            hits += s.cacheHits;
            misses += s.cacheMisses;
            evictions += s.cacheEvictions;
            fills += s.cacheFills;
            retries += s.requestsRetried;
            suppressed += s.retriesSuppressed;
            opens += s.breakerOpens;
            lost += s.requestsLost;
            windows += s.faultsInjected;
            failedOver += s.requestsFailedOver;
            p50.push_back(r.latency.median);
            p99.push_back(r.latency.p99);
            late.push_back(r.sendLateness.p99);
            const std::string &label = w.cells[c].label;
            if (label.rfind("LP-", 0) == 0)
                lpP99.push_back(r.latency.p99);
            else if (label.rfind("HP-", 0) == 0)
                hpP99.push_back(r.latency.p99);
        }
    }
    auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    const double lpHp =
        lpP99.empty() || hpP99.empty()
            ? 0.0
            : ratio(stats::mean(lpP99), stats::mean(hpP99));

    std::fprintf(stderr,
                 "perfbench: %s seed %llu traced: %zu untraced + %zu traced "
                 "passes, traced/untraced %.3f\n",
                 w.name.c_str(), static_cast<unsigned long long>(a.seed),
                 walls[0].size(), walls[1].size(), tracedEps / untracedEps);
    std::printf("digest %s %016llx\n", w.name.c_str(),
                static_cast<unsigned long long>(ref.digest));
    printResult(
        pre.ledger,
        {
            {"sim.loop_ns_per_event", slice.nsPerEvent, "ns"},
            {"sim.pending_events", slice.pendingMean, "events"},
            {"sim.steady_allocs_per_event", slice.allocsPerEvent,
             "allocs/event"},
            {"sim.events_per_run", ratio(events, runs), "events"},
            {"partition.domains", domains, "count"},
            {"partition.stall_frac", stallFrac, "ratio"},
            {"partition.slowdown_vs_serial", slowdownVsSerial, "ratio"},
            {"hw.task_ns", taskNs, "ns"},
            {"hw.client_wakes", ratio(wakes, sent), "1/req"},
            {"hw.client_exit_us", ratio(exitNs / 1e3, sent), "us/req"},
            {"hw.client_freq_transitions", ratio(freq, sent), "1/req"},
            {"hw.irqs", ratio(irqs, sent), "1/req"},
            {"net.send_ns", sendNs, "ns"},
            {"loadgen.p50_us", median(p50), "us"},
            {"loadgen.p99_us", median(p99), "us"},
            {"loadgen.send_lateness_p99_us", median(late), "us"},
            {"loadgen.received_ratio", ratio(received, sent), "ratio"},
            {"loadgen.lp_hp_p99_ratio", lpHp, "ratio"},
            {"svc.subreqs", ratio(subs, sent), "1/req"},
            {"svc.hedges", ratio(hedges, sent), "1/req"},
            {"svc.hedge_waste_frac", ratio(dupWork, work), "ratio"},
            {"svc.cache_hit_ratio", ratio(hits, hits + misses), "ratio"},
            {"svc.cache_evictions", ratio(evictions, sent), "1/req"},
            {"svc.cache_fills", ratio(fills, sent), "1/req"},
            {"svc.retries", ratio(retries, sent), "1/req"},
            {"svc.retries_suppressed", ratio(suppressed, sent), "1/req"},
            {"svc.breaker_opens", ratio(opens, sent), "1/req"},
            {"svc.lost", ratio(lost, sent), "1/req"},
            {"svc.cache_op_ns", cache.opNs, "ns"},
            {"svc.zipf_draw_ns", cache.zipfNs, "ns"},
            {"fault.windows", ratio(windows, runs), "1/run"},
            {"fault.failed_over", ratio(failedOver, runs), "1/run"},
            {"obs.traced_slowdown", tracedEps / untracedEps, "ratio"},
            {"obs.export_ms", ex.exportMs, "ms"},
            {"obs.tail_queue_frac", ex.queueFrac, "ratio"},
            {"obs.tail_service_frac", ex.serviceFrac, "ratio"},
            {"obs.tail_wire_frac", ex.wireFrac, "ratio"},
            {"stats.summarise_ms", summariseMs, "ms"},
            {"stats.reps_needed", reps, "count"},
            {"core.setup_ms_per_run",
             median(pre.setup.perCell()) * 1e3, "ms"},
            {"core.executor_busy_frac", median(busy), "ratio"},
            {"run_failure_ratio",
             ratio(static_cast<double>(pre.ledger.failed),
                   static_cast<double>(pre.ledger.attempted)),
             "ratio"},
        });
    return 0;
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> [--scale <f>]\n",
                 why);
    return 2;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const char *v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = std::strtoull(v, nullptr, 10);
        else if (flag == "--seconds")
            a.seconds = std::atof(v);
        else if (flag == "--trace")
            a.trace = std::atoi(v) != 0;
        else if (flag == "--scale")
            a.scale = std::atof(v);
        else
            return usage(("unknown flag " + flag).c_str());
    }
    if (a.scale <= 0 || a.seconds <= 0)
        return usage("--scale and --seconds must be positive");
    try {
        const Workload w = makeWorkload(a.workload, a.scale);
        return a.trace ? runPerLayer(w, a) : runEndToEnd(w, a);
    } catch (const std::invalid_argument &e) {
        return usage(e.what());
    }
}
