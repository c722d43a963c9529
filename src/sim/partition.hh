/**
 * @file
 * Conservative parallel discrete-event engine: one run on many cores.
 *
 * The serial Simulator is one event queue and one clock. This engine
 * splits a run into per-machine (or per-tier-group) *domains*, each
 * with its own EventQueue and clock, and advances all domains in
 * lock-step windows [W, W + L) where L — the *lookahead* — is the
 * smallest delay any cross-domain link can draw. Inside a window the
 * domains run truly in parallel and never interact: a message to
 * another domain is staged in the sender's outbox instead of being
 * scheduled, and delivered at the window barrier by the crew leader
 * (single-threaded), which then picks the next window start as the
 * minimum next-event time across domains. Classic conservative
 * synchronisation (Chandy-Misra-Bryant by way of time windows), the
 * same family gem5-style full-system simulators use for multi-core
 * hosts.
 *
 * Determinism: the serial engine orders events by (time, insertion
 * sequence). Here every event gets an explicit 64-bit sequence
 *
 *   seq = scheduling-instant << 22 | source-domain << 14 | counter
 *
 * (42/8/14 bits) where the counter is per-domain and resets at each
 * new scheduling instant — so a domain's pop order depends only on
 * *when* (in simulated time) events were scheduled, never on which
 * host thread ran the domain or how windows interleaved. The encoding
 * matches serial insertion order exactly except when two different
 * domains schedule onto a third at the same nanosecond (serial would
 * interleave them by execution order, the encoding orders them by
 * domain id); the golden-determinism tests pin that this divergence
 * does not occur in any studied scenario. A run whose scheduling
 * instant or per-instant counter overflows the field sets violated()
 * and the caller re-runs serially — correctness never depends on the
 * encoding being wide enough.
 *
 * The engine is driven through the Simulator facade: components keep
 * calling sim.schedule()/now()/cancel() and are routed to the domain
 * of the calling crew thread (thread-local), so model code is
 * unchanged.
 */

#ifndef TPV_SIM_PARTITION_HH
#define TPV_SIM_PARTITION_HH

#include <atomic>
#include <cstdint>
#include <vector>

#include "net/message.hh"
#include "sim/event_queue.hh"
#include "sim/fixed_containers.hh"
#include "sim/time.hh"

namespace tpv {

/**
 * Reusable two-phase rendezvous for the window crew. Spins briefly
 * (windows are microseconds of work), then parks on the phase word
 * with atomic wait/notify so an oversubscribed host (more crew
 * threads than cores) degrades to futex waits instead of burning the
 * only core.
 */
class SpinBarrier
{
  public:
    explicit SpinBarrier(std::uint32_t count) : count_(count) {}

    void
    arriveAndWait()
    {
        const std::uint32_t phase =
            phase_.load(std::memory_order_acquire);
        if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            count_) {
            arrived_.store(0, std::memory_order_relaxed);
            phase_.fetch_add(1, std::memory_order_acq_rel);
            phase_.notify_all();
            return;
        }
        for (int i = 0; i < 1024; ++i) {
            if (phase_.load(std::memory_order_acquire) != phase)
                return;
        }
        while (phase_.load(std::memory_order_acquire) == phase)
            phase_.wait(phase, std::memory_order_acquire);
    }

  private:
    const std::uint32_t count_;
    std::atomic<std::uint32_t> arrived_{0};
    std::atomic<std::uint32_t> phase_{0};
};

/**
 * The windowed parallel engine behind Simulator::enablePartition().
 * Owns the per-domain event queues and clocks; the Simulator facade
 * routes schedule()/now()/cancel() here while a partitioned run is
 * active.
 */
class PartitionedEngine
{
  public:
    using Callback = EventQueue::Callback;

    /** seq layout: scheduling instant << 22 | domain << 14 | counter. */
    static constexpr int kDomainBits = 8;
    static constexpr int kCounterBits = 14;
    static constexpr int kInstantShift = kDomainBits + kCounterBits;

    /** EventHandle::slot layout: domain << 24 | queue-local slot. */
    static constexpr int kSlotBits = 24;

    /**
     * @param domains  number of event-queue domains (>= 2).
     * @param lookahead window length L: a hard lower bound on every
     *                  cross-domain message delay (> 0).
     * @param threads  crew size; the runUntil() caller is crew member
     *                 0, threads-1 more come from the ThreadPool (>= 2).
     */
    PartitionedEngine(int domains, Time lookahead, int threads);

    // ---- scheduling facade (routed from Simulator) ----

    /** Clock of the calling crew thread's domain (domain 0 outside
     *  the crew: the pre/post-run main thread). */
    Time now() const { return domains_[currentDomain()].now; }

    /** Schedule into the calling thread's domain. */
    EventHandle schedule(Time delay, Callback cb);

    /** Schedule at an absolute time into the calling domain. */
    EventHandle at(Time when, Callback cb);

    /**
     * Schedule at an absolute time into an *explicit* domain. Only
     * sound before the crew starts (run setup on the main thread):
     * fault::Injector homes each state flip in the domain owning the
     * flipped state, and tick loops are re-homed to their machines'
     * domains. Pre-run events draw instant-0 sequence keys, so within
     * a domain they sort before anything scheduled during the run at
     * the same nanosecond — exactly like serial arm-time insertion.
     */
    EventHandle atDomain(int domain, Time when, Callback cb);

    /** Cancel: routed to the owning domain by the handle's tag. Only
     *  sound from the owning domain's thread (every cancellation site
     *  in the tree cancels timers it armed itself). */
    bool cancel(EventHandle h);

    bool pending(EventHandle h) const;

    std::size_t pendingEvents() const;

    std::uint64_t executedEvents() const;

    // ---- cross-domain mailbox (net::Link) ----

    /**
     * Stage a message from the calling domain to @p target: parked in
     * the sender's outbox, delivered (scheduled onto the target's
     * queue, with the sender-side sequence key) by the crew leader at
     * the next window barrier. @p when must be >= the end of the
     * current window — guaranteed when the link delay respects the
     * lookahead; checked at the merge, flagging violated() otherwise.
     */
    void stageCross(int target, Time when, net::Message msg,
                    net::Endpoint *dst);

    // ---- the run ----

    /**
     * Advance all domains to @p deadline in lookahead-sized windows
     * (executes every event with time <= deadline, exactly like the
     * serial Simulator::runUntil). Call once per run, from the thread
     * that owns the Simulator. The caller is crew member 0; the other
     * threads - 1 members run on the process-wide ThreadPool, whose
     * workers park between runs, so a grid of thousands of short runs
     * pays thread spawn cost once, not per run.
     */
    Time runUntil(Time deadline);

    /**
     * True when a run broke a conservative invariant (a cross-domain
     * message landed inside its send window, or the sequence encoding
     * overflowed). Results are then untrustworthy; the caller re-runs
     * serially.
     */
    bool violated() const
    {
        return violated_.load(std::memory_order_acquire);
    }

    /** Domain of the calling thread; 0 off the crew. */
    int currentDomain() const;

    int domainCount() const { return static_cast<int>(domains_.size()); }

    Time lookahead() const { return lookahead_; }

    /**
     * Enable wall-clock accounting of the time crew threads spend
     * waiting at window barriers (the obs metrics layer samples it).
     * Off by default: untracked runs pay nothing for the counters.
     */
    void setStallTracking(bool enable) { trackStall_ = enable; }

    /**
     * Cumulative barrier-stall nanoseconds of the crew thread owning
     * @p domain (domains map to members round-robin, so domains
     * sharing a thread share a counter). Real time, not simulated —
     * diagnostics only, and only written by the owning thread, so a
     * domain's own tick may read it race-free.
     */
    std::uint64_t
    barrierStallNs(int domain) const
    {
        return stall_[static_cast<std::size_t>(domain % threads_)].ns;
    }

  private:
    /** A staged cross-domain delivery (sender outbox entry). */
    struct Staged
    {
        Time when;
        std::uint64_t seq;
        int target;
        net::Endpoint *dst;
        net::Message msg;
    };

    /**
     * One event-queue domain. Hot members first; padded to a cache
     * line multiple so neighbouring domains never false-share.
     */
    struct alignas(64) Domain
    {
        EventQueue queue;
        Time now = 0;
        /** Sequence-key state: scheduling instant the counter is
         *  counting within, shared by local schedules and staged
         *  cross-domain sends (serial insertion order). */
        Time lastInstant = -1;
        std::uint32_t counter = 0;
        /** Cross-domain sends staged this window (drained by the
         *  leader at the barrier). */
        std::vector<Staged> outbox;
        /** Payloads of messages delivered *to* this domain, parked so
         *  the delivery event captures {pool, index, endpoint}. */
        SlotPool<net::Message> arrivals;
    };

    /** Per-crew-member stall counter, padded against false sharing
     *  (each member writes only its own). */
    struct alignas(64) StallCounter
    {
        std::uint64_t ns = 0;
    };

    /** Next sequence key for an event scheduled now by domain @p d. */
    std::uint64_t makeSeq(Domain &d, int index);

    /** Barrier rendezvous for crew member @p self, accruing its
     *  stall counter when tracking is on. */
    void barrierWait(int self);

    /** Run one crew member: alternate merge barriers and windows. */
    void crewLoop(int self);

    /** Leader only: deliver outboxes, pick the next window, detect
     *  completion. Runs between the window barrier and the release
     *  barrier — all other crew threads are parked. */
    void mergeAndPrepare();

    /** Run every domain owned by crew member @p self up to wend_. */
    void runDomains(int self);

    std::vector<Domain> domains_;
    const Time lookahead_;
    const int threads_;
    SpinBarrier barrier_;
    Time deadline_ = 0;
    /** Current window end (exclusive); leader-written at the merge,
     *  crew-read after the release barrier. */
    Time wend_ = 0;
    bool done_ = false;
    std::atomic<bool> violated_{false};
    bool trackStall_ = false;
    std::vector<StallCounter> stall_;
};

} // namespace tpv

#endif // TPV_SIM_PARTITION_HH
