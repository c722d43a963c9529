#include "sim/event_queue.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace tpv {

EventHandle
EventQueue::scheduleSeq(Time when, std::uint64_t seq, Callback &&cb)
{
    TPV_ASSERT(cb != nullptr, "scheduling a null callback");
    // Entry::key() reinterprets the time as unsigned for the
    // branchless heap compare; negative times would silently sort
    // last instead of first, so reject them at the door.
    TPV_ASSERT(when >= 0, "scheduling at negative time ", when);

    std::uint32_t slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
        // The free list can never outgrow the slot table, so sizing
        // it alongside keeps runNext()'s push_back allocation-free:
        // without this its capacity high-water (max simultaneously
        // free slots) creeps up long after the slot count stops.
        freeSlots_.reserve(slots_.capacity());
    }

    Slot &s = slots_[slot];
    s.cb = std::move(cb);
    s.active = true;
    ++s.gen;

    heap_.push_back(Entry{when, seq, slot, s.gen});
    siftUp(heap_.size() - 1);
    ++live_;
    return EventHandle{slot, s.gen};
}

bool
EventQueue::cancel(EventHandle h)
{
    if (!pending(h))
        return false;
    Slot &s = slots_[h.slot];
    s.active = false;
    s.cb = nullptr;
    --live_;
    // The heap entry stays behind and is skimmed off lazily; the slot
    // is only recycled once its stale entry has left the heap, so the
    // generation check in pending() stays sound. Under cancel-heavy
    // load (hedge timers that almost always cancel), dead entries
    // would dominate the heap and stretch every sift — compact as
    // soon as they outnumber the live ones.
    if (heap_.size() - live_ > live_ && heap_.size() > 64)
        compact();
    return true;
}

void
EventQueue::skim()
{
    while (!heap_.empty()) {
        const Entry &top = heap_.front();
        if (!dead(top))
            return;
        // Dead entry: recycle the slot now that its entry is leaving
        // the heap.
        freeSlots_.push_back(top.slot);
        heap_.front() = heap_.back();
        heap_.pop_back();
        if (!heap_.empty())
            siftDown(0);
    }
}

void
EventQueue::compact()
{
    std::size_t kept = 0;
    for (std::size_t i = 0; i < heap_.size(); ++i) {
        if (dead(heap_[i])) {
            freeSlots_.push_back(heap_[i].slot);
        } else {
            heap_[kept++] = heap_[i];
        }
    }
    heap_.resize(kept);
    // Re-heapify bottom-up from the last parent. (time, seq) is a
    // total order, so the pop sequence — and therefore every run —
    // is unchanged.
    if (kept >= 2) {
        for (std::size_t i = (kept - 2) / kArity + 1; i-- > 0;)
            siftDown(i);
    }
}

Time
EventQueue::nextTime()
{
    skim();
    TPV_ASSERT(!heap_.empty(), "nextTime() on an empty event queue");
    return heap_.front().when;
}

Time
EventQueue::runNext()
{
    skim();
    TPV_ASSERT(!heap_.empty(), "runNext() on an empty event queue");

    const Entry top = heap_.front();
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty())
        siftDown(0);

    Slot &s = slots_[top.slot];
    // Move the callback out before invoking: the slot is recycled
    // first, so the callback may freely schedule into it.
    Callback cb = std::move(s.cb);
    s.active = false;
    freeSlots_.push_back(top.slot);
    --live_;
    ++executed_;

    cb();
    return top.when;
}

Time
EventQueue::takeNext(Callback &cb)
{
    skim();
    TPV_ASSERT(!heap_.empty(), "takeNext() on an empty event queue");

    const Entry top = heap_.front();
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty())
        siftDown(0);

    Slot &s = slots_[top.slot];
    cb = std::move(s.cb);
    s.active = false;
    freeSlots_.push_back(top.slot);
    --live_;
    return top.when;
}

void
EventQueue::clear()
{
    heap_ = std::vector<Entry>();
    slots_ = std::vector<Slot>();
    freeSlots_ = std::vector<std::uint32_t>();
    live_ = 0;
}

void
EventQueue::siftUp(std::size_t i)
{
    // Hole insertion: carry the moving entry in a register and shift
    // parents down, instead of swapping at every level.
    const Entry e = heap_[i];
    while (i > 0) {
        const std::size_t parent = (i - 1) / kArity;
        if (!(heap_[parent] > e))
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = e;
}

void
EventQueue::siftDown(std::size_t i)
{
    const std::size_t n = heap_.size();
    const Entry e = heap_[i];
    const auto ekey = e.key();
    while (true) {
        const std::size_t first = kArity * i + 1;
        if (first >= n)
            break;
        const std::size_t last = std::min(first + kArity, n);
        // Branchless min-of-children scan: heap comparisons are
        // coin-flips to the branch predictor, so select with wide
        // compares + conditional moves instead.
        std::size_t smallest = first;
        auto skey = heap_[first].key();
        for (std::size_t c = first + 1; c < last; ++c) {
            const auto ckey = heap_[c].key();
            const bool less = ckey < skey;
            smallest = less ? c : smallest;
            skey = less ? ckey : skey;
        }
        if (ekey <= skey)
            break;
        heap_[i] = heap_[smallest];
        i = smallest;
    }
    heap_[i] = e;
}

} // namespace tpv
