#include "sim/simulator.hh"

#include <utility>

#include "sim/logging.hh"
#include "sim/partition.hh"

namespace tpv {

Simulator::Simulator() = default;
Simulator::~Simulator() = default;

Time
Simulator::partNow() const
{
    return part_->now();
}

EventHandle
Simulator::partSchedule(Time delay, EventQueue::Callback &&cb)
{
    return part_->schedule(delay, std::move(cb));
}

EventHandle
Simulator::at(Time when, EventQueue::Callback cb)
{
    if (part_)
        return part_->at(when, std::move(cb));
    TPV_ASSERT(when >= now_, "scheduling into the past: when=", when,
               " now=", now_);
    return queue_.schedule(when, std::move(cb));
}

EventHandle
Simulator::atDomain(int domain, Time when, EventQueue::Callback cb)
{
    if (part_)
        return part_->atDomain(domain, when, std::move(cb));
    TPV_ASSERT(when >= now_, "scheduling into the past: when=", when,
               " now=", now_);
    return queue_.schedule(when, std::move(cb));
}

bool
Simulator::partCancel(EventHandle h)
{
    return part_->cancel(h);
}

bool
Simulator::partPending(EventHandle h) const
{
    return part_->pending(h);
}

std::size_t
Simulator::pendingEvents() const
{
    return part_ ? part_->pendingEvents() : queue_.size();
}

std::uint64_t
Simulator::executedEvents() const
{
    return part_ ? part_->executedEvents() : queue_.executed();
}

bool
Simulator::enablePartition(int domains, Time lookahead, int threads)
{
    TPV_ASSERT(!part_, "run already partitioned");
    if (domains < 2 || threads < 2 || lookahead <= 0)
        return false;
    if (domains >= (1 << PartitionedEngine::kDomainBits))
        return false;
    part_ = std::make_unique<PartitionedEngine>(domains, lookahead,
                                                threads);
    // Adopt events already scheduled during world construction (the
    // non-tickless client machine's tick loops). The caller guarantees
    // they belong to domain 0 and that no handle to them is retained
    // (tick loops discard theirs). takeNext() pops in serial execution
    // order and at() re-keys with domain 0's instant-0 counter in that
    // order, so their mutual order — and their order against anything
    // the setup thread schedules next (generator start) — matches the
    // serial engine exactly.
    while (!queue_.empty()) {
        EventQueue::Callback cb;
        const Time when = queue_.takeNext(cb);
        part_->at(when, std::move(cb));
    }
    return true;
}

bool
Simulator::partitionViolated() const
{
    return part_ != nullptr && part_->violated();
}

int
Simulator::currentDomain() const
{
    return part_ ? part_->currentDomain() : 0;
}

Time
Simulator::run()
{
    TPV_ASSERT(!part_, "run() on a partitioned simulator (use runUntil)");
    stopRequested_ = false;
    while (!queue_.empty() && !stopRequested_) {
        Time t = queue_.nextTime();
        TPV_ASSERT(t >= now_, "event queue went backwards");
        now_ = t;
        queue_.runNext();
    }
    return now_;
}

Time
Simulator::runUntil(Time deadline)
{
    if (part_) {
        TPV_ASSERT(deadline >= part_->now(), "runUntil() into the past");
        const Time end = part_->runUntil(deadline);
        now_ = end;
        return end;
    }
    TPV_ASSERT(deadline >= now_, "runUntil() into the past");
    stopRequested_ = false;
    while (!queue_.empty() && !stopRequested_) {
        Time t = queue_.nextTime();
        if (t > deadline)
            break;
        TPV_ASSERT(t >= now_, "event queue went backwards");
        now_ = t;
        queue_.runNext();
    }
    if (!stopRequested_ && now_ < deadline)
        now_ = deadline;
    return now_;
}

} // namespace tpv
