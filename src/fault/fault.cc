#include "fault/fault.hh"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "obs/trace.hh"
#include "sim/logging.hh"
#include "sim/rate_schedule.hh"

namespace tpv {
namespace fault {

namespace {

/** Compact duration tag for labels: "30ms", "250us", "1500ns". */
std::string
compactTime(Time t)
{
    if (t % kMillisecond == 0)
        return std::to_string(t / kMillisecond) + "ms";
    if (t % kMicrosecond == 0)
        return std::to_string(t / kMicrosecond) + "us";
    return std::to_string(t) + "ns";
}

} // namespace

const char *
toString(FaultKind k)
{
    switch (k) {
      case FaultKind::ReplicaCrash:
        return "kill";
      case FaultKind::ReplicaSlowdown:
        return "slow";
      case FaultKind::LinkDegrade:
        return "link";
      case FaultKind::Pause:
        return "pause";
      case FaultKind::CacheFlush:
        return "flush";
    }
    return "?";
}

std::string
FaultSpec::label() const
{
    std::string out = toString(kind);
    if (kind == FaultKind::ReplicaSlowdown) {
        char factor[32];
        std::snprintf(factor, sizeof factor, "%g", slowFactor);
        out += factor;
        out += 'x';
    }
    if (kind != FaultKind::LinkDegrade) {
        out += '-';
        if (replica < 0) {
            out += "all";
        } else {
            out += 'r';
            out += std::to_string(replica);
        }
    }
    if (mttf > 0) {
        out += "~";
        out += compactTime(mttf);
        out += '/';
        out += compactTime(mttr);
        return out;
    }
    out += '@';
    out += compactTime(start);
    // A flush is instantaneous — its token duration is not a window.
    if (duration > 0 && kind != FaultKind::CacheFlush) {
        out += '+';
        out += compactTime(duration);
    }
    return out;
}

std::string
FaultPlan::label() const
{
    if (faults.empty())
        return "none";
    std::string out;
    for (const FaultSpec &f : faults) {
        if (!out.empty())
            out += '+';
        out += f.label();
    }
    return out;
}

FaultPlan &
FaultPlan::add(FaultSpec spec)
{
    faults.push_back(std::move(spec));
    return *this;
}

FaultPlan
FaultPlan::replicaKill(std::string tier, int replica, Time start,
                       Time duration, Time detectDelay)
{
    FaultSpec s;
    s.kind = FaultKind::ReplicaCrash;
    s.tier = std::move(tier);
    s.replica = replica;
    s.start = start;
    s.duration = duration;
    s.detectDelay = detectDelay;
    return FaultPlan{}.add(std::move(s));
}

FaultPlan
FaultPlan::replicaSlowdown(std::string tier, int replica, double factor,
                           Time start, Time duration)
{
    FaultSpec s;
    s.kind = FaultKind::ReplicaSlowdown;
    s.tier = std::move(tier);
    s.replica = replica;
    s.slowFactor = factor;
    s.start = start;
    s.duration = duration;
    return FaultPlan{}.add(std::move(s));
}

FaultPlan
FaultPlan::linkDegrade(Time addedLatency, double lossFraction, Time start,
                       Time duration)
{
    FaultSpec s;
    s.kind = FaultKind::LinkDegrade;
    s.addedLatency = addedLatency;
    s.lossFraction = lossFraction;
    s.start = start;
    s.duration = duration;
    return FaultPlan{}.add(std::move(s));
}

FaultPlan
FaultPlan::pause(std::string tier, int replica, Time start, Time duration)
{
    FaultSpec s;
    s.kind = FaultKind::Pause;
    s.tier = std::move(tier);
    s.replica = replica;
    s.start = start;
    s.duration = duration;
    return FaultPlan{}.add(std::move(s));
}

FaultPlan
FaultPlan::cacheFlush(std::string tier, int replica, Time at)
{
    FaultSpec s;
    s.kind = FaultKind::CacheFlush;
    s.tier = std::move(tier);
    s.replica = replica;
    s.start = at;
    // Instantaneous: materialise() needs a non-empty window, the
    // sweep emits only its begin.
    s.duration = 1;
    return FaultPlan{}.add(std::move(s));
}

FaultPlan
FaultPlan::flaky(std::string tier, int replica, Time mttf, Time mttr)
{
    FaultSpec s;
    s.kind = FaultKind::ReplicaCrash;
    s.tier = std::move(tier);
    s.replica = replica;
    s.mttf = mttf;
    s.mttr = mttr;
    return FaultPlan{}.add(std::move(s));
}

Injector::Injector(Simulator &sim, svc::ServiceGraph &graph,
                   FaultPlan plan, Rng rng)
    : sim_(sim), graph_(graph), plan_(std::move(plan)), rng_(rng)
{
}

std::vector<FaultWindow>
Injector::materialise(const FaultSpec &spec, Time horizon, Rng &rng)
{
    std::vector<FaultWindow> out;
    if (spec.mttf <= 0) {
        const Time end = spec.duration > 0
                             ? spec.start + spec.duration
                             : horizon;
        if (spec.start < end)
            out.push_back(FaultWindow{spec.start, end});
        return out;
    }
    TPV_ASSERT(spec.mttr > 0, "stochastic fault needs mttr > 0");
    // Reuse the MMPP machinery: a two-level trajectory alternating
    // healthy (0) and faulty (1) with exponential dwells, sampled
    // deterministically from the run seed. Level-1 segments are the
    // fault windows.
    const RateSchedule traj = RateSchedule::markovModulated(
        0.0, 1.0, spec.mttf, spec.mttr, horizon, rng);
    const auto &segments = traj.segments();
    for (std::size_t i = 0; i < segments.size(); ++i) {
        if (segments[i].value < 0.5)
            continue;
        const Time start = segments[i].start;
        const Time end =
            i + 1 < segments.size() ? segments[i + 1].start : horizon;
        if (start < end)
            out.push_back(FaultWindow{start, end});
    }
    return out;
}

std::vector<int>
Injector::targetReplicas(const FaultSpec &spec, svc::Tier &tier) const
{
    std::vector<int> out;
    if (spec.replica >= 0) {
        TPV_ASSERT(spec.replica < tier.replicaCount(),
                   "fault targets replica ", spec.replica, " but tier '",
                   spec.tier, "' has ", tier.replicaCount());
        out.push_back(spec.replica);
        return out;
    }
    for (int r = 0; r < tier.replicaCount(); ++r)
        out.push_back(r);
    return out;
}

svc::Tier &
Injector::targetTier(const FaultSpec &spec)
{
    svc::Tier *tier = graph_.findTier(spec.tier);
    TPV_ASSERT(tier != nullptr, "fault targets unknown tier '",
               spec.tier, "'");
    return *tier;
}

void
Injector::arm(Time horizon)
{
    TPV_ASSERT(!armed_, "injector armed twice");
    armed_ = true;
    const Time now = sim_.now();

    // Materialise every spec's windows (rng draws in spec order, as
    // always) and lay their begin/detect/end out exactly as the
    // serial engine would execute them: by time, ties in arm order
    // (the serial queue pops same-instant events in insertion order).
    std::vector<SweepEntry> sweep;
    std::uint64_t order = 0;
    for (const FaultSpec &spec : plan_.faults) {
        for (const FaultWindow &w : materialise(spec, horizon, rng_)) {
            FaultWindow clamped = w;
            clamped.start = std::max(clamped.start, now);
            // An explicit window may outlast the run: clamp so the
            // end event fires (and pauseTime reflects the pause the
            // run actually experienced).
            clamped.end = std::min(w.end, horizon);
            if (clamped.start >= clamped.end)
                continue;
            ++windowsArmed_;
            if (obs::TraceRecorder *tr = graph_.trace()) {
                // The window as a global marker (obs::kGlobalRoot),
                // recorded offline into domain 0, the only domain of
                // the serial engine fault plans run on.
                obs::SpanRecord rec;
                rec.start = clamped.start;
                rec.end = clamped.end;
                rec.arg = static_cast<std::uint32_t>(spec.kind);
                rec.kind = obs::SpanKind::Fault;
                if (spec.kind == FaultKind::LinkDegrade) {
                    rec.shard = static_cast<std::int16_t>(spec.link);
                } else {
                    rec.tier = static_cast<std::uint8_t>(
                        targetTier(spec).tierIndex());
                    rec.replica =
                        static_cast<std::int16_t>(spec.replica);
                }
                tr->record(0, rec);
            }
            sweep.push_back(SweepEntry{clamped.start, order++,
                                       SweepEntry::Begin, &spec});
            if (spec.kind == FaultKind::ReplicaCrash) {
                // Failure detection is a separate event: only once it
                // fires do senders suspect the replica and re-issue
                // outstanding sub-requests. A crash that heals before
                // detection was a blip nobody ever acted on.
                const Time detectAt = clamped.start + spec.detectDelay;
                if (detectAt < clamped.end) {
                    sweep.push_back(SweepEntry{detectAt, order++,
                                               SweepEntry::Detect,
                                               &spec});
                }
            }
            if (spec.kind != FaultKind::CacheFlush) {
                sweep.push_back(SweepEntry{clamped.end, order++,
                                           SweepEntry::End, &spec});
            }
        }
    }
    std::stable_sort(sweep.begin(), sweep.end(),
                     [](const SweepEntry &a, const SweepEntry &b) {
                         return a.when < b.when;
                     });

    // Replay the timeline through the engage state machine and
    // schedule the concrete flips it implies. Everything the replay
    // decides (who flips, when, with what pause length) is settled
    // here, offline; the scheduled ops just apply the flips, in the
    // pinned serial order.
    for (const SweepEntry &e : sweep) {
        switch (e.type) {
          case SweepEntry::Begin:
            replayBegin(e);
            break;
          case SweepEntry::Detect:
            replayDetect(e);
            break;
          case SweepEntry::End:
            replayEnd(e);
            break;
        }
    }
}

void
Injector::replayBegin(const SweepEntry &e)
{
    const FaultSpec &spec = *e.spec;

    if (spec.kind == FaultKind::LinkDegrade) {
        sim_.at(e.when, [this] { ++graph_.mutableStats().faultsInjected; });
        for (std::size_t i = 0; i < graph_.linkCount(); ++i) {
            if (spec.link >= 0 &&
                i != static_cast<std::size_t>(spec.link))
                continue;
            net::Link *link = &graph_.link(i);
            if (!engage(link, 0, spec.kind, true))
                continue; // another window already holds the fault
            const Time added = spec.addedLatency;
            const double loss = spec.lossFraction;
            sim_.at(e.when, [this, link, added, loss] {
                link->degrade(added, loss,
                              &graph_.mutableStats().requestsLost);
            });
        }
        return;
    }

    svc::Tier &tier = targetTier(spec);
    const int ti = tier.tierIndex();
    sim_.at(e.when, [this, ti] {
        svc::ServiceStats &stats = graph_.mutableStats();
        ++stats.faultsInjected;
        ++stats.tiers[static_cast<std::size_t>(ti)].faultsInjected;
    });

    svc::Tier *t = &tier;
    for (int r : targetReplicas(spec, tier)) {
        if (spec.kind == FaultKind::CacheFlush) {
            // Instantaneous, engage-free: every window flushes.
            sim_.at(e.when, [this, t, r] { graph_.flushCaches(*t, r); });
            continue;
        }
        // Overlapping windows of the same kind on one replica
        // compose: engage on the first begin, revert on the last
        // end. (Overlapping slowdowns keep the first factor.)
        if (!engage(t, r, spec.kind, true))
            continue;
        switch (spec.kind) {
          case FaultKind::ReplicaCrash:
            // The crash itself; detection (suspicion + re-issue of
            // outstanding subs) is the separate Detect entry,
            // detectDelay later.
            sim_.at(e.when, [t, r] { t->setReplicaUp(r, false); });
            break;
          case FaultKind::ReplicaSlowdown: {
            const double factor = spec.slowFactor;
            sim_.at(e.when,
                    [t, r, factor] { t->setReplicaSlowdown(r, factor); });
            break;
          }
          case FaultKind::Pause: {
            // Freeze start recorded offline, so the flip-off op can
            // bill the exact interval; overlapping windows bill the
            // freeze the machine actually experienced (once), and
            // replica=-1 over N machines bills N machine-pauses —
            // same as N specs.
            hw::Machine *m = &t->machine(r);
            frozenSince_[m] = e.when;
            sim_.at(e.when, [m] { m->setFrozen(true); });
            break;
          }
          case FaultKind::LinkDegrade:
          case FaultKind::CacheFlush:
            break; // handled above
        }
    }
}

void
Injector::replayDetect(const SweepEntry &e)
{
    // One event: suspect every targeted replica, then let the fan-outs
    // feeding the tier re-issue their outstanding sub-requests.
    const FaultSpec *s = e.spec;
    sim_.at(e.when, [this, s] {
        svc::Tier &t = targetTier(*s);
        for (int r : targetReplicas(*s, t)) {
            t.setReplicaSuspected(r, true);
            graph_.notifyReplicaDown(t, r);
        }
    });
}

void
Injector::replayEnd(const SweepEntry &e)
{
    const FaultSpec &spec = *e.spec;

    if (spec.kind == FaultKind::LinkDegrade) {
        for (std::size_t i = 0; i < graph_.linkCount(); ++i) {
            if (spec.link >= 0 &&
                i != static_cast<std::size_t>(spec.link))
                continue;
            net::Link *link = &graph_.link(i);
            if (!engage(link, 0, spec.kind, false))
                continue;
            sim_.at(e.when, [link] { link->clearDegrade(); });
        }
        return;
    }

    svc::Tier &tier = targetTier(spec);
    svc::Tier *t = &tier;
    for (int r : targetReplicas(spec, tier)) {
        if (!engage(t, r, spec.kind, false))
            continue;
        switch (spec.kind) {
          case FaultKind::ReplicaCrash: {
            // Restart: the replica comes back up, then stops being
            // suspected.
            sim_.at(e.when, [t, r] { t->setReplicaUp(r, true); });
            sim_.at(e.when, [t, r] { t->setReplicaSuspected(r, false); });
            break;
          }
          case FaultKind::ReplicaSlowdown:
            sim_.at(e.when, [t, r] { t->setReplicaSlowdown(r, 1.0); });
            break;
          case FaultKind::Pause: {
            hw::Machine *m = &t->machine(r);
            const Time len = e.when - frozenSince_[m];
            sim_.at(e.when, [this, m, len] {
                graph_.mutableStats().pauseTime += len;
                m->setFrozen(false);
            });
            break;
          }
          case FaultKind::LinkDegrade:
          case FaultKind::CacheFlush:
            break; // link handled above; flush has no end
        }
    }
}

bool
Injector::engage(const void *target, int sub, FaultKind kind,
                 bool active)
{
    const auto key =
        std::make_tuple(target, sub, static_cast<int>(kind));
    int &count = active_[key];
    if (active)
        return ++count == 1;
    TPV_ASSERT(count > 0, "fault window end without a begin");
    return --count == 0;
}

} // namespace fault
} // namespace tpv
