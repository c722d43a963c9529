/**
 * @file
 * The simulation executive: owns the clock and the event queue.
 *
 * One Simulator instance is one independent simulated timeline. The
 * experiment framework creates a fresh Simulator (and a fresh model
 * tree) per repetition, which is how the paper's "reset the environment
 * between runs" independence requirement (Section III, IID samples) is
 * realised.
 */

#ifndef TPV_SIM_SIMULATOR_HH
#define TPV_SIM_SIMULATOR_HH

#include <cstdint>
#include <memory>
#include <utility>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/time.hh"

namespace tpv {

class PartitionedEngine;

/**
 * Discrete-event simulation executive.
 *
 * Components schedule callbacks with schedule()/at(); run() and
 * runUntil() drive the timeline forward. Time only advances at event
 * boundaries, so all model code observes a consistent now().
 *
 * A run may opt into intra-run parallelism with enablePartition():
 * scheduling calls are then routed to per-domain event queues (by the
 * calling crew thread's identity) and runUntil() drives the
 * conservative windowed engine in sim/partition.hh — model code is
 * unchanged either way.
 */
class Simulator
{
  public:
    Simulator();
    ~Simulator();
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulated time (the calling domain's clock when
     *  partitioned). */
    Time now() const { return part_ ? partNow() : now_; }

    /**
     * Schedule @p cb to run @p delay after now().
     * @pre delay >= 0
     */
    EventHandle
    schedule(Time delay, EventQueue::Callback cb)
    {
        if (part_)
            return partSchedule(delay, std::move(cb));
        TPV_ASSERT(delay >= 0, "negative delay ", delay);
        return queue_.schedule(now_ + delay, std::move(cb));
    }

    /**
     * Schedule @p cb at absolute time @p when.
     * @pre when >= now()
     */
    EventHandle at(Time when, EventQueue::Callback cb);

    /**
     * Schedule @p cb at @p when into event-queue domain @p domain of a
     * partitioned run (run setup only, from the main thread —
     * obs::MetricsRegistry::arm starts one sampling loop per domain
     * with this). Serial runs ignore the domain: there is only one
     * timeline, so this is exactly at().
     */
    EventHandle atDomain(int domain, Time when, EventQueue::Callback cb);

    /** Cancel a pending event. @return true if it was still pending. */
    bool
    cancel(EventHandle h)
    {
        return part_ ? partCancel(h) : queue_.cancel(h);
    }

    /** @return true if @p h refers to a still-pending event. */
    bool
    pending(EventHandle h) const
    {
        return part_ ? partPending(h) : queue_.pending(h);
    }

    /**
     * Run until the queue drains or stop() is called.
     * @return the final simulated time.
     */
    Time run();

    /**
     * Run events with time <= @p deadline, then set now() == deadline.
     * Events scheduled beyond the deadline stay pending.
     * @return the final simulated time (== deadline unless stopped).
     */
    Time runUntil(Time deadline);

    /** Request that run()/runUntil() return after the current event.
     *  Serial engine only. */
    void stop() { stopRequested_ = true; }

    /** Number of live events in the queue. */
    std::size_t pendingEvents() const;

    /** Total events executed so far (cheap progress / perf metric). */
    std::uint64_t executedEvents() const;

    /** Direct queue access for advanced components (timers). */
    EventQueue &queue() { return queue_; }

    // ---- intra-run parallelism ----

    /**
     * Switch this run to the conservative windowed parallel engine:
     * @p domains event-queue domains advanced by @p threads crew
     * threads in windows of @p lookahead. Call during setup, before
     * the run starts: events already scheduled are adopted into
     * domain 0 in serial order, so every such event must belong to
     * domain 0 (core::runOnce keeps runs whose server machines arm
     * tick loops at construction serial) and no EventHandle to an
     * adopted event may be retained. Refuses degenerate shapes (fewer
     * than 2 domains or threads, zero lookahead, too many domains for
     * the sequence key) by returning false — the run then just stays
     * serial.
     */
    bool enablePartition(int domains, Time lookahead, int threads);

    /** True when enablePartition() succeeded for this run. */
    bool partitioned() const { return part_ != nullptr; }

    /**
     * True when the partitioned run broke a conservative invariant
     * (results untrustworthy; core::runOnce panics).
     */
    bool partitionViolated() const;

    /**
     * Event-queue domain of the calling thread: 0 in serial runs and
     * off the crew, the crew thread's current domain otherwise.
     * Endpoint::partitionOf implementations and sharded counters key
     * on this.
     */
    int currentDomain() const;

    /** The engine while partitioned (net::Link's cross-domain path). */
    PartitionedEngine *partition() { return part_.get(); }

  private:
    // The partitioned engine's side of the accessors above, kept out
    // of line so the serial path inlines without PartitionedEngine's
    // definition.
    Time partNow() const;
    EventHandle partSchedule(Time delay, EventQueue::Callback &&cb);
    bool partCancel(EventHandle h);
    bool partPending(EventHandle h) const;

    EventQueue queue_;
    Time now_ = 0;
    bool stopRequested_ = false;
    std::unique_ptr<PartitionedEngine> part_;
};

} // namespace tpv

#endif // TPV_SIM_SIMULATOR_HH
