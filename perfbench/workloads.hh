/**
 * @file
 * The benchmark's four workloads, each a fixed set of simulated runs
 * built through tpv's public configuration API. README.md says why
 * each exists and which layers it exercises and bypasses.
 */

#ifndef TPV_PERFBENCH_WORKLOADS_HH
#define TPV_PERFBENCH_WORKLOADS_HH

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hh"
#include "fault/fault.hh"

namespace perfbench {

using namespace tpv;

/** Repetitions of every cell in a pass: at least the ten per-run
 *  samples the stats layer's CONFIRM estimate needs, and a multiple of
 *  1-4 workers, so a single-cell pass ends without an idle tail. */
constexpr int kReps = 12;

/** One workload: the cells of a pass and the checks around it. */
struct Workload
{
    std::string name;
    /** Distinct simulated systems; every pass runs each kReps times. */
    std::vector<core::ExperimentConfig> cells;
    /** Cell whose window is doubled by the drain guard (the one
     *  nearest saturation). */
    std::size_t guardCell = 0;
    /** Crew size of the partitioned-engine check (0 = none): the cells
     *  also run, untimed, one at a time on the serial engine and on a
     *  crew of this many threads, and every crew run must match its
     *  serial twin. */
    int crewThreads = 0;
};

/** Threads a workload may use, min(hardware threads, 4): the
 *  core::runManyBatch workers of every pass. */
inline int
maxThreads()
{
    const unsigned hc = std::thread::hardware_concurrency();
    return std::clamp(static_cast<int>(hc), 1, 4);
}

inline core::ExperimentConfig
withWindow(core::ExperimentConfig cfg, Time warmup, Time window)
{
    cfg.gen.warmup = warmup;
    cfg.gen.duration = window;
    return cfg;
}

/**
 * Figure 2's grid: {LP, HP} client x {SMToff, SMTon} server at a low,
 * a mid and a near-knee load of the paper's 10K-500K QPS axis.
 */
inline Workload
paperClients(double scale)
{
    Workload w;
    w.name = "paper-clients";
    const Time window = static_cast<Time>(msec(50) * scale);
    for (double qps : {10e3, 200e3, 500e3}) {
        for (const char *client : {"LP", "HP"}) {
            for (bool smt : {false, true}) {
                auto cfg = withWindow(
                    core::ExperimentConfig::forMemcached(qps), msec(5),
                    window);
                cfg.client = client[0] == 'L' ? hw::HwConfig::clientLP()
                                              : hw::HwConfig::clientHP();
                cfg.server = smt ? hw::HwConfig::serverSmtOn()
                                 : hw::HwConfig::serverBaseline();
                cfg.label = std::string(client) +
                            (smt ? "-SMTon@" : "-SMToff@") +
                            std::to_string(static_cast<int>(qps / 1e3)) +
                            "K";
                w.cells.push_back(std::move(cfg));
            }
        }
    }
    w.guardCell = 8; // LP-SMToff at 500K QPS
    return w;
}

/**
 * The wide fan-out: HDSearch scattering over 32 shards on 32 bucket
 * replicas plus the midtier, 300 us hedges, 40 us hops, at 5K QPS
 * (below saturation; 12K QPS builds a backlog). Timed on the serial
 * engine, min(nproc, 4) seeds at once. The partitioned engine is only
 * checked, not timed: a crew stalls at every window barrier whenever
 * the host deschedules one of its threads, and that made its rate
 * swing 3.5x from run to run on a shared host.
 */
inline Workload
fanoutWide(double scale)
{
    Workload w;
    w.name = "fanout-wide";
    w.crewThreads = maxThreads();
    auto cfg = withWindow(core::ExperimentConfig::forHdSearch(5000),
                          msec(5), static_cast<Time>(msec(100) * scale));
    core::applyTopology(cfg, svc::TopologyShape{32, 32, usec(300)});
    cfg.network.baseLatency = usec(40);
    cfg.hdsearch.interLink.baseLatency = usec(40);
    cfg.label = "hdsearch-s32r32";
    w.cells.push_back(std::move(cfg));
    return w;
}

/**
 * Keyed memcached, 8 shards x 2 replicas behind finite LRU caches:
 * two capacities x two GET fractions, deadline retries plus circuit
 * breakers, and a replica kill whose restart comes back flushed.
 * The flushed replica refills only to LRU steady state, which misses
 * more than the prewarmed cache, so the backing store runs hotter after
 * the flush. At 20K QPS that tipped some seeds into a retry storm that
 * never drained; 16K QPS drains on every seed.
 */
inline Workload
cacheChurn(double scale)
{
    Workload w;
    w.name = "cache-churn";
    const Time warmup = msec(5);
    const Time window = static_cast<Time>(msec(200) * scale);
    // Fault windows sit at fixed simulated instants, so doubling the
    // window (the drain guard) does not lengthen the outage.
    const Time killAt = warmup + window / 4;
    const Time killFor = window / 8;
    for (double getFraction : {0.968, 0.7}) {
        for (std::uint64_t capacity : {4096u, 1024u}) {
            auto cfg = withWindow(core::ExperimentConfig::forMemcached(16e3),
                                  warmup, window);
            cfg.client = hw::HwConfig::clientHP();
            cfg.server = hw::HwConfig::serverBaseline();
            // The keyed request model captures the op mix when the
            // cache shape is applied, so set it first.
            cfg.memcached.etc.getFraction = getFraction;
            svc::TopologyShape shape{8, 2, 0};
            shape.cache.keys = 1 << 16;
            shape.cache.skew = 0.99;
            shape.cache.capacityEntries = capacity;
            shape.traffic.retry.deadline = msec(5);
            shape.traffic.breaker.failureThreshold = 3;
            core::applyTopology(cfg, shape);
            cfg.faultPlan =
                fault::FaultPlan::replicaKill("mc-cache", 1, killAt, killFor);
            cfg.faultPlan.add(
                fault::FaultPlan::cacheFlush("mc-cache", 1, killAt + killFor)
                    .faults.front());
            cfg.label = "get" + std::to_string(getFraction).substr(0, 5) +
                        "-c" + std::to_string(capacity);
            w.cells.push_back(std::move(cfg));
        }
    }
    w.guardCell = 1; // ETC mix, small cache: the highest tail
    return w;
}

/** @p scale shrinks simulated windows (1 = the benchmark's size). */
inline Workload
makeWorkload(const std::string &name, double scale)
{
    if (name == "paper-clients")
        return paperClients(scale);
    if (name == "fanout-wide")
        return fanoutWide(scale);
    if (name == "cache-churn")
        return cacheChurn(scale);
    throw std::invalid_argument("unknown workload '" + name + "'");
}

} // namespace perfbench

#endif // TPV_PERFBENCH_WORKLOADS_HH
