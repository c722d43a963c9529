#include "loadgen/recorder.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace tpv {
namespace loadgen {

void
LatencyRecorder::setWindow(Time start, Time end)
{
    TPV_ASSERT(start < end, "empty measurement window");
    start_ = start;
    end_ = end;
}

void
LatencyRecorder::reserveFor(double perSecond, Time window)
{
    if (perSecond <= 0 || window <= 0)
        return;
    // 25% headroom over the expectation: bursts (and non-stationary
    // profiles) overshoot the mean; one slightly generous block beats
    // a realloc + copy mid-measurement. Capped, because the estimate
    // can be far above what a run can physically record (an
    // overloaded service answers at its service rate, whatever the
    // offered rate) and sweeps run many recorders concurrently —
    // beyond the cap a few amortised doublings are the lesser evil.
    constexpr std::size_t kMaxReserve = std::size_t(1) << 22;
    const auto expected = static_cast<std::size_t>(
        perSecond * toSec(window) * 1.25 + 64);
    const std::size_t n = std::min(expected, kMaxReserve);
    latencies_.reserve(n);
    lateness_.reserve(n);
    interarrivals_.reserve(n);
}

void
LatencyRecorder::recordLatency(Time sentAt, double usecLatency)
{
    if (inWindow(sentAt)) {
        latencies_.push_back(usecLatency);
        sortedDirty_ = true;
    }
}

void
LatencyRecorder::recordLateness(Time sentAt, double usecLate)
{
    if (inWindow(sentAt))
        lateness_.push_back(usecLate);
}

void
LatencyRecorder::recordInterarrival(Time sentAt, double usecGap)
{
    if (inWindow(sentAt))
        interarrivals_.push_back(usecGap);
}

const std::vector<double> &
LatencyRecorder::sortedLatencies() const
{
    if (sortedDirty_) {
        sortedLatencies_ = latencies_;
        std::sort(sortedLatencies_.begin(), sortedLatencies_.end());
        sortedDirty_ = false;
    }
    return sortedLatencies_;
}

} // namespace loadgen
} // namespace tpv
