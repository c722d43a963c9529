/**
 * @file
 * Deterministic fault injection for service topologies.
 *
 * The tail-at-scale mechanisms this repository studies — hedged,
 * tied, and failed-over requests — exist because real clusters see
 * transient faults: replicas crash and restart, a box gets pinned
 * slow by a noisy neighbour or a stuck DVFS governor, a link degrades,
 * a process stops the world for a GC pause or the platform for an
 * SMI. This subsystem injects exactly those faults into a
 * svc::ServiceGraph on a schedule, so failover and hedging policies
 * are *measured* against faults instead of shaped by test fakes.
 *
 * Everything is deterministic: a FaultPlan is plain data carried by
 * the ExperimentConfig, fault windows are either explicit
 * (start/duration) or sampled from the run's seed via the same
 * RateSchedule machinery the non-stationary load profiles use
 * (two-state healthy/faulty dwell processes), and every action runs
 * as a simulated event. Same seed, same faults, same results — the
 * bit-identical-grids guarantee extends to faulty runs, serial or
 * parallel.
 *
 * Typed faults:
 *  - ReplicaCrash: the replica stops accepting (arrivals dropped),
 *    in-flight work error-completes (replies die with the box), and
 *    fan-outs feeding the tier re-issue outstanding sub-requests to
 *    a live replica (requestsFailedOver). Restart closes the window.
 *  - ReplicaSlowdown: service work drawn on the replica is
 *    multiplied — the work-model equivalent of a pinned-low DVFS
 *    state.
 *  - LinkDegrade: added one-way latency and/or message loss on
 *    graph-owned links.
 *  - Pause: a machine-wide stop-the-world freeze (GC / SMI) on the
 *    host of a (tier, replica) pair.
 */

#ifndef TPV_FAULT_FAULT_HH
#define TPV_FAULT_FAULT_HH

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "sim/random.hh"
#include "sim/simulator.hh"
#include "sim/time.hh"
#include "svc/topology.hh"

namespace tpv {
namespace fault {

/** The injectable fault types. */
enum class FaultKind : std::uint8_t
{
    ReplicaCrash,
    ReplicaSlowdown,
    LinkDegrade,
    Pause,
    /** Instantaneously wipe the targeted replica's caches at each
     *  window start (restart-without-state, accidental invalidation,
     *  a config push clearing a pool). No end action: the cache
     *  refills by itself — the fault *is* the cold start. */
    CacheFlush,
};

/** @return kind name ("kill", "slow", "link", "pause", "flush"). */
const char *toString(FaultKind k);

/** One active interval of a fault. */
struct FaultWindow
{
    Time start = 0;
    Time end = 0;
};

/**
 * One fault of a plan: what to break, where, and when. Windows are
 * either a single explicit [start, start+duration) interval
 * (duration 0 = until the end of the run), or — when mttf > 0 — a
 * seeded alternating healthy/faulty dwell process with exponential
 * means mttf/mttr, materialised per run from the run seed.
 */
struct FaultSpec
{
    FaultKind kind = FaultKind::ReplicaCrash;
    /** Target tier name (ReplicaCrash / ReplicaSlowdown / Pause). */
    std::string tier;
    /** Target replica; -1 = every replica of the tier. */
    int replica = 0;
    /** LinkDegrade: graph link index; -1 = every graph-owned link. */
    int link = -1;
    /** Window start (simulated time; 0 = run start, warmup included). */
    Time start = 0;
    /** Window length; 0 = the rest of the run. */
    Time duration = 0;
    /** ReplicaSlowdown: service-time multiplier while active. */
    double slowFactor = 4.0;
    /** LinkDegrade: added one-way latency while active. */
    Time addedLatency = 0;
    /** LinkDegrade: message-loss probability while active. */
    double lossFraction = 0.0;
    /**
     * ReplicaCrash: failure-*detection* latency. The crash is
     * instant, but senders only learn of it (suspect the replica,
     * re-issue outstanding sub-requests) this long after the window
     * opens — 0 models a kill whose connection resets announce it
     * immediately, larger values model silent failures found by a
     * health-check/timeout detector. Hedged and tied requests mask
     * the undetected interval; plain failover eats it.
     */
    Time detectDelay = 0;
    /** Stochastic windows: mean healthy dwell (0 = explicit window). */
    Time mttf = 0;
    /** Stochastic windows: mean faulty dwell. */
    Time mttr = 0;

    /** Compact tag for study-cell labels ("kill-r0@30ms"). */
    std::string label() const;
};

/**
 * The fault axis of a study cell: an ordered list of FaultSpecs.
 * Plain copyable data, carried by core::ExperimentConfig; an empty
 * plan is the no-fault baseline and costs nothing (no rng draws, no
 * events — healthy runs stay bit-identical to pre-fault builds).
 */
struct FaultPlan
{
    std::vector<FaultSpec> faults;

    bool empty() const { return faults.empty(); }

    /** "none", or the specs' labels joined with '+'. */
    std::string label() const;

    /** Append a spec (builder chaining). */
    FaultPlan &add(FaultSpec spec);

    /** The no-fault baseline. */
    static FaultPlan none() { return FaultPlan{}; }

    /** Kill @p replica of @p tier at @p start; restart after
     *  @p duration (0 = never restart). Senders learn of the crash
     *  @p detectDelay after it happens (0 = immediately). */
    static FaultPlan replicaKill(std::string tier, int replica,
                                 Time start, Time duration = 0,
                                 Time detectDelay = 0);

    /** Multiply @p tier/@p replica's service times by @p factor over
     *  [start, start+duration). */
    static FaultPlan replicaSlowdown(std::string tier, int replica,
                                     double factor, Time start,
                                     Time duration = 0);

    /** Degrade every graph link by @p addedLatency and @p lossFraction
     *  over [start, start+duration). */
    static FaultPlan linkDegrade(Time addedLatency, double lossFraction,
                                 Time start, Time duration = 0);

    /** Stop-the-world pause of @p tier/@p replica's machine. */
    static FaultPlan pause(std::string tier, int replica, Time start,
                           Time duration);

    /** Wipe @p tier/@p replica's caches (-1 = every replica) at
     *  @p at. Needs a cache-owning service (MemcachedCluster with a
     *  finite-cache shape); otherwise it only counts. */
    static FaultPlan cacheFlush(std::string tier, int replica, Time at);

    /** Crash/restart @p tier/@p replica on a seeded alternating
     *  process with exponential mean dwells @p mttf / @p mttr. */
    static FaultPlan flaky(std::string tier, int replica, Time mttf,
                           Time mttr);
};

/**
 * Applies a FaultPlan to one run's ServiceGraph. Construct after the
 * graph, call arm() once the run horizon is known (before the
 * simulation starts), and keep it alive for the run — the scheduled
 * events call back into it. All stochastic window draws come from
 * the injector's rng (forked from the run seed), so serial and
 * parallel executions of a grid see identical fault timelines.
 *
 * arm() replays the whole fault timeline *offline* — every window
 * begin/detect/end in serial execution order, through the
 * overlap-composition (engage) state machine — and schedules the
 * resulting concrete state flips as events. The op decomposition is
 * a pure function of plan + topology, which pins the serial event
 * order. A run with a fault plan always executes on the serial engine
 * (core::runOnce keeps it there).
 */
class Injector
{
  public:
    Injector(Simulator &sim, svc::ServiceGraph &graph, FaultPlan plan,
             Rng rng);

    /**
     * Materialise every spec's windows over [0, horizon) and
     * schedule their begin/end events. Call exactly once.
     */
    void arm(Time horizon);

    /** Fault windows scheduled by arm() (diagnostics). */
    std::uint64_t windowsArmed() const { return windowsArmed_; }

    /**
     * Windows @p spec produces over [0, horizon): the single explicit
     * interval, or the seeded healthy/faulty alternation when
     * mttf > 0. Exposed for tests; @p rng advances exactly as during
     * arm().
     */
    static std::vector<FaultWindow> materialise(const FaultSpec &spec,
                                                Time horizon, Rng &rng);

  private:
    /** One begin/detect/end of the offline timeline replay, in the
     *  order the serial engine would execute them. */
    struct SweepEntry
    {
        enum Type : std::uint8_t { Begin, Detect, End };

        Time when = 0;
        /** Arm order: the serial insertion sequence, tie-break for
         *  entries sharing a nanosecond. */
        std::uint64_t order = 0;
        Type type = Begin;
        const FaultSpec *spec = nullptr;
    };

    /** Replay one sweep entry: advance the engage state machine and
     *  schedule the concrete ops it implies. */
    void replayBegin(const SweepEntry &e);
    void replayDetect(const SweepEntry &e);
    void replayEnd(const SweepEntry &e);

    /** Replica list a spec targets (-1 expands to all). */
    std::vector<int> targetReplicas(const FaultSpec &spec,
                                    svc::Tier &tier) const;

    /** Tier a spec targets (asserts it exists). */
    svc::Tier &targetTier(const FaultSpec &spec);

    /**
     * Track overlapping windows of the same (target, sub-target,
     * kind): the fault engages on the first window in and reverts on
     * the last window out, so two specs whose windows overlap on one
     * replica compose instead of the earlier end event cancelling
     * the later window. Pure bookkeeping, advanced during the
     * offline replay.
     * @return true when the state should actually flip.
     */
    bool engage(const void *target, int sub, FaultKind kind,
                bool active);

    Simulator &sim_;
    svc::ServiceGraph &graph_;
    FaultPlan plan_;
    Rng rng_;
    bool armed_ = false;
    std::uint64_t windowsArmed_ = 0;
    /** (target, sub, kind) -> active window count (offline replay). */
    std::map<std::tuple<const void *, int, int>, int> active_;
    /** Machine -> freeze start during the replay, for exact pauseTime
     *  accrual (billed by the flip-off op). */
    std::map<const void *, Time> frozenSince_;
};

} // namespace fault
} // namespace tpv

#endif // TPV_FAULT_FAULT_HH
