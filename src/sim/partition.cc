#include "sim/partition.hh"

#include <algorithm>
#include <chrono>
#include <utility>

#include "sim/logging.hh"
#include "sim/thread_pool.hh"

namespace tpv {

namespace {

/**
 * Crew-thread identity. A pointer-tagged pair instead of a bare index
 * so concurrent *grid* runs (several Simulators on pool workers,
 * some partitioned) can never read another engine's domain index.
 */
struct TlsCrew
{
    const PartitionedEngine *engine = nullptr;
    int domain = 0;
};

thread_local TlsCrew tlsCrew;

} // namespace

PartitionedEngine::PartitionedEngine(int domains, Time lookahead,
                                     int threads)
    : domains_(static_cast<std::size_t>(domains)), lookahead_(lookahead),
      threads_(threads), barrier_(static_cast<std::uint32_t>(threads)),
      stall_(static_cast<std::size_t>(threads))
{
    TPV_ASSERT(domains >= 2, "partitioning needs >= 2 domains");
    TPV_ASSERT(domains < (1 << kDomainBits),
               "domain count exceeds the sequence-key field: ", domains);
    TPV_ASSERT(lookahead > 0, "partitioning needs positive lookahead");
    TPV_ASSERT(threads >= 2, "partitioning needs >= 2 crew threads");
}

int
PartitionedEngine::currentDomain() const
{
    return tlsCrew.engine == this ? tlsCrew.domain : 0;
}

std::uint64_t
PartitionedEngine::makeSeq(Domain &d, int index)
{
    const Time instant = d.now;
    if (instant != d.lastInstant) {
        d.lastInstant = instant;
        d.counter = 0;
    }
    const std::uint32_t count = d.counter++;
    // Overflow of either field would break the total order silently;
    // flag it and let the caller fall back to the serial engine.
    if (instant < 0 ||
        static_cast<std::uint64_t>(instant) >= (1ULL << (64 - kInstantShift)) ||
        count >= (1U << kCounterBits)) {
        violated_.store(true, std::memory_order_release);
    }
    return (static_cast<std::uint64_t>(instant) << kInstantShift) |
           (static_cast<std::uint64_t>(index) << kCounterBits) |
           static_cast<std::uint64_t>(count);
}

EventHandle
PartitionedEngine::schedule(Time delay, Callback cb)
{
    TPV_ASSERT(delay >= 0, "negative delay ", delay);
    const int index = currentDomain();
    Domain &d = domains_[static_cast<std::size_t>(index)];
    EventHandle h = d.queue.scheduleSeq(d.now + delay, makeSeq(d, index),
                                        std::move(cb));
    TPV_ASSERT(h.slot < (1U << kSlotBits),
               "domain event-queue slot table grew past the handle tag");
    h.slot |= static_cast<std::uint32_t>(index) << kSlotBits;
    return h;
}

EventHandle
PartitionedEngine::at(Time when, Callback cb)
{
    const int index = currentDomain();
    Domain &d = domains_[static_cast<std::size_t>(index)];
    TPV_ASSERT(when >= d.now, "scheduling into the past: when=", when,
               " now=", d.now);
    EventHandle h =
        d.queue.scheduleSeq(when, makeSeq(d, index), std::move(cb));
    TPV_ASSERT(h.slot < (1U << kSlotBits),
               "domain event-queue slot table grew past the handle tag");
    h.slot |= static_cast<std::uint32_t>(index) << kSlotBits;
    return h;
}

EventHandle
PartitionedEngine::atDomain(int domain, Time when, Callback cb)
{
    TPV_ASSERT(domain >= 0 && domain < domainCount(),
               "atDomain() into unknown domain ", domain);
    TPV_ASSERT(tlsCrew.engine != this,
               "atDomain() from a crew thread (use schedule/at)");
    Domain &d = domains_[static_cast<std::size_t>(domain)];
    TPV_ASSERT(when >= d.now, "scheduling into the past: when=", when,
               " now=", d.now);
    EventHandle h =
        d.queue.scheduleSeq(when, makeSeq(d, domain), std::move(cb));
    TPV_ASSERT(h.slot < (1U << kSlotBits),
               "domain event-queue slot table grew past the handle tag");
    h.slot |= static_cast<std::uint32_t>(domain) << kSlotBits;
    return h;
}

bool
PartitionedEngine::cancel(EventHandle h)
{
    if (!h.valid())
        return false;
    const auto index = h.slot >> kSlotBits;
    EventHandle local{h.slot & ((1U << kSlotBits) - 1), h.gen};
    return domains_[index].queue.cancel(local);
}

bool
PartitionedEngine::pending(EventHandle h) const
{
    if (!h.valid())
        return false;
    const auto index = h.slot >> kSlotBits;
    EventHandle local{h.slot & ((1U << kSlotBits) - 1), h.gen};
    // pending() is const but EventQueue::pending is non-mutating.
    return const_cast<EventQueue &>(domains_[index].queue).pending(local);
}

std::size_t
PartitionedEngine::pendingEvents() const
{
    std::size_t n = 0;
    for (const Domain &d : domains_)
        n += d.queue.size();
    return n;
}

std::uint64_t
PartitionedEngine::executedEvents() const
{
    std::uint64_t n = 0;
    for (const Domain &d : domains_)
        n += d.queue.executed();
    return n;
}

void
PartitionedEngine::stageCross(int target, Time when, net::Message msg,
                              net::Endpoint *dst)
{
    const int index = currentDomain();
    Domain &d = domains_[static_cast<std::size_t>(index)];
    // The sequence key is drawn from the *sender's* instant counter,
    // exactly as if the delivery had been scheduled locally — so a
    // domain's deliveries sort identically to the serial engine's
    // insertion order regardless of which window carries them over.
    d.outbox.push_back(
        Staged{when, makeSeq(d, index), target, dst, msg});
}

void
PartitionedEngine::mergeAndPrepare()
{
    // Deliver every staged cross-domain message. Deterministic: the
    // outbox scan order is (domain, staging order), and the heap
    // position a delivery lands in is irrelevant — (when, seq) is a
    // total order fixed at staging time.
    for (Domain &from : domains_) {
        for (Staged &s : from.outbox) {
            if (s.when < wend_) {
                // The message lands inside the window it was sent in:
                // its target may already have run past it. The
                // lookahead bound was wrong — abort the run.
                violated_.store(true, std::memory_order_release);
            }
            Domain &to = domains_[static_cast<std::size_t>(s.target)];
            const std::uint32_t idx = to.arrivals.acquire(s.msg);
            SlotPool<net::Message> *pool = &to.arrivals;
            net::Endpoint *dst = s.dst;
            to.queue.scheduleSeq(s.when, s.seq, [pool, idx, dst] {
                const net::Message m = pool->take(idx);
                dst->onMessage(m);
            });
        }
        from.outbox.clear();
    }

    if (violated_.load(std::memory_order_acquire)) {
        done_ = true;
        return;
    }

    // Next window: [min next-event time, +lookahead), clamped so the
    // final window executes events at the deadline itself (runUntil
    // executes every event with time <= deadline).
    Time wstart = kTimeNever;
    for (Domain &d : domains_) {
        if (!d.queue.empty())
            wstart = std::min(wstart, d.queue.nextTime());
    }
    if (wstart == kTimeNever || wstart > deadline_) {
        done_ = true;
        return;
    }
    wend_ = std::min(wstart + lookahead_, deadline_ + 1);
}

void
PartitionedEngine::runDomains(int self)
{
    // Static round-robin ownership: domain d belongs to crew member
    // d % threads, so the caller (crew 0) owns domain 0 — the client
    // domain — and the mapping never changes within a run (a domain's
    // events all run on one thread per run).
    const int n = domainCount();
    for (int i = self; i < n; i += threads_) {
        Domain &d = domains_[static_cast<std::size_t>(i)];
        tlsCrew.domain = i;
        while (!d.queue.empty()) {
            const Time t = d.queue.nextTime();
            if (t >= wend_)
                break;
            TPV_ASSERT(t >= d.now, "domain clock went backwards");
            d.now = t;
            d.queue.runNext();
        }
    }
}

void
PartitionedEngine::barrierWait(int self)
{
    if (!trackStall_) {
        barrier_.arriveAndWait();
        return;
    }
    const auto t0 = std::chrono::steady_clock::now();
    barrier_.arriveAndWait();
    const auto waited = std::chrono::steady_clock::now() - t0;
    stall_[static_cast<std::size_t>(self)].ns +=
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(waited)
                .count());
}

void
PartitionedEngine::crewLoop(int self)
{
    tlsCrew.engine = this;
    tlsCrew.domain = 0;
    for (;;) {
        if (self == 0)
            mergeAndPrepare();
        // Release barrier: the leader published wend_/done_ (and all
        // merged deliveries) to the crew.
        barrierWait(self);
        if (done_)
            break;
        runDomains(self);
        // Window barrier: every domain finished [*, wend_); outboxes
        // are quiescent for the leader's next merge.
        barrierWait(self);
    }
    tlsCrew.engine = nullptr;
}

Time
PartitionedEngine::runUntil(Time deadline)
{
    deadline_ = deadline;
    done_ = false;

    ThreadPool::instance().run(threads_,
                               [this](int self) { crewLoop(self); });

    // Serial runUntil semantics: the clock lands on the deadline even
    // when the queues drained early.
    for (Domain &d : domains_)
        d.now = deadline;
    return deadline;
}

} // namespace tpv
