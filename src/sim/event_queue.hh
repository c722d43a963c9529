/**
 * @file
 * Cancellable discrete-event queue.
 *
 * The queue is a 4-ary min-heap ordered by (time, insertion sequence),
 * so events at the same instant execute in FIFO order — this
 * determinism is what makes runs exactly reproducible for a given
 * seed. The wider node fans out better to cache lines than a binary
 * heap (sift-down does one comparison burst per 64-byte-ish group
 * instead of chasing pairs), and because (time, seq) is a total order
 * the pop sequence is identical at any arity.
 *
 * Callbacks live inline in a slot table of InplaceCallback cells with
 * generation counters — scheduling allocates nothing once the tables
 * reach their high-water mark. Cancellation marks the slot dead; dead
 * heap entries are skimmed lazily from the top and compacted eagerly
 * when they outnumber the live ones.
 */

#ifndef TPV_SIM_EVENT_QUEUE_HH
#define TPV_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/inline_function.hh"
#include "sim/time.hh"

namespace tpv {

/**
 * Opaque handle to a scheduled event, usable to cancel it.
 * Default-constructed handles are invalid.
 */
struct EventHandle
{
    std::uint32_t slot = UINT32_MAX;
    std::uint32_t gen = 0;

    /** @return true if this handle ever referred to a scheduled event. */
    bool valid() const { return slot != UINT32_MAX; }

    bool operator==(const EventHandle &) const = default;
};

/**
 * A time-ordered queue of callbacks. Not thread-safe: a simulation is
 * a single logical timeline; cross-run parallelism is achieved by
 * running independent Simulator instances on separate threads.
 */
class EventQueue
{
  public:
    /**
     * Event callbacks store their captures inline (64-byte budget) in
     * the slot table — zero heap traffic per event. Captures that do
     * not fit fail to compile; see sim/inline_function.hh for the
     * shrinking discipline and the heapWrap() cold-path escape hatch.
     */
    using Callback = InplaceCallback<64>;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule @p cb to run at absolute time @p when. The callback is
     * taken by reference and moved straight into its slot, so a
     * capture is relocated once per scheduled event.
     * @pre when >= 0 (the heap's packed key is unsigned).
     * @return a handle that can cancel the event before it fires.
     */
    EventHandle
    schedule(Time when, Callback &&cb)
    {
        return scheduleSeq(when, nextSeq_++, std::move(cb));
    }

    /**
     * Schedule with an explicit ordering key instead of the queue's
     * own insertion counter: the partitioned (parallel) engine derives
     * @p seq from (scheduling instant, source domain, per-instant
     * counter) so the pop order of a domain's queue is independent of
     * the thread interleaving that filled it. Callers own uniqueness;
     * the plain schedule() counter is not advanced.
     */
    EventHandle scheduleSeq(Time when, std::uint64_t seq, Callback &&cb);

    /**
     * Cancel a previously scheduled event.
     * @return true if the event was still pending and is now cancelled.
     */
    bool cancel(EventHandle h);

    /** @return true if a handle refers to a still-pending event. */
    bool
    pending(EventHandle h) const
    {
        return h.valid() && h.slot < slots_.size() &&
               slots_[h.slot].gen == h.gen && slots_[h.slot].active;
    }

    /** @return true when no live events remain. */
    bool empty() const { return live_ == 0; }

    /** Number of live (non-cancelled, not yet executed) events. */
    std::size_t size() const { return live_; }

    /**
     * Time of the earliest live event.
     * @pre !empty()
     */
    Time nextTime();

    /**
     * Pop and run the earliest live event.
     * @return the time the event fired at.
     * @pre !empty()
     */
    Time runNext();

    /**
     * Pop the earliest live event *without* running it, handing its
     * callback to the caller: the partition handoff that migrates
     * construction-time events (the non-tickless client machine's
     * tick loops) into the parallel engine's domain-0 queue. Pop order is the
     * exact serial execution order, so re-scheduling in this order
     * preserves it. Outstanding handles to the event are invalidated.
     * @return the event's scheduled time.
     * @pre !empty()
     */
    Time takeNext(Callback &cb);

    /**
     * Drop every pending event and release the heap, slot table and
     * free list storage, so a long sweep tearing runs down does not
     * keep high-water-mark callback storage alive across cells.
     */
    void clear();

    /** Total number of events executed over the queue's lifetime. */
    std::uint64_t executed() const { return executed_; }

    /** Slot-table cells allocated (capacity diagnostics for tests). */
    std::size_t slotCapacity() const { return slots_.capacity(); }

  private:
    struct Entry
    {
        Time when;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t gen;

        /**
         * (when, seq) packed into one 128-bit key, so the heap's
         * hottest operation — ordering two entries — is a single
         * branchless wide compare instead of a data-dependent branch
         * pair. Simulated time is non-negative (the Simulator asserts
         * it), so the unsigned reinterpretation preserves order, and
         * seq in the low bits keeps the exact FIFO tie-break.
         */
        unsigned __int128
        key() const
        {
            return (static_cast<unsigned __int128>(
                        static_cast<std::uint64_t>(when))
                    << 64) |
                   seq;
        }

        bool operator>(const Entry &o) const { return key() > o.key(); }
    };

    struct Slot
    {
        Callback cb;
        std::uint32_t gen = 0;
        bool active = false;
    };

    /** Heap arity; 4 children per node pack sift-downs cache-tightly. */
    static constexpr std::size_t kArity = 4;

    /** @return true when @p e refers to a cancelled event. */
    bool
    dead(const Entry &e) const
    {
        const Slot &s = slots_[e.slot];
        return !s.active || s.gen != e.gen;
    }

    /** Remove dead heap entries from the top. */
    void skim();

    /** Drop every dead entry and re-heapify (cancel-heavy pressure). */
    void compact();

    void siftUp(std::size_t i);
    void siftDown(std::size_t i);

    std::vector<Entry> heap_;
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> freeSlots_;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t live_ = 0;
};

} // namespace tpv

#endif // TPV_SIM_EVENT_QUEUE_HH
