/**
 * @file
 * Workload-generator taxonomy (paper Section II): generator type
 * (open loop; the paper's closed-loop type is not modelled),
 * inter-arrival time implementation
 * (time-sensitive block-wait vs time-insensitive busy-wait), response
 * completion path, and point of measurement.
 */

#ifndef TPV_LOADGEN_PARAMS_HH
#define TPV_LOADGEN_PARAMS_HH

#include <cstdint>
#include <functional>

#include "loadgen/load_profile.hh"
#include "net/message.hh"
#include "sim/random.hh"
#include "sim/time.hh"

namespace tpv {
namespace loadgen {

/**
 * How the generator waits for the next inter-arrival instant.
 * BlockWait (mutilate, wrk2): the event loop sleeps; timing is
 * *sensitive* to wake-up latency. BusyWait (MicroSuite clients): the
 * loop polls for elapsed time; timing is *insensitive* but burns a
 * core.
 */
enum class SendMode { BlockWait, BusyWait };

/** @return "block-wait" / "busy-wait". */
const char *toString(SendMode m);

/**
 * How responses reach the generator. Blocking: epoll-style — the NIC
 * interrupt wakes the (possibly sleeping) thread and a context switch
 * precedes the timestamp. Polling: the app polls the socket; no wake,
 * no context switch.
 */
enum class CompletionMode { Blocking, Polling };

/** @return "blocking" / "polling". */
const char *toString(CompletionMode m);

/**
 * Where the response timestamp is taken (paper Section II / Lancet):
 * inside the generator application (typical), at the kernel softirq,
 * or at the NIC (hardware timestamping).
 */
enum class MeasurePoint { InApp, Kernel, Nic };

/** @return "in-app" / "kernel" / "nic". */
const char *toString(MeasurePoint p);

/** Inter-arrival time distribution of the open-loop schedule. */
enum class InterarrivalKind { Exponential, Fixed, Lognormal };

/** @return distribution name. */
const char *toString(InterarrivalKind k);

/**
 * Fills application fields (kind, bytes) of an outgoing request;
 * lets a service-specific workload model plug into the generator.
 */
using RequestModel = std::function<void(Rng &, net::Message &)>;

/** Open-loop generator configuration. */
struct OpenLoopParams
{
    /** Aggregate offered load across all generator threads. */
    double qps = 10000;
    /** Generator threads, one per client core. */
    int threads = 10;
    SendMode sendMode = SendMode::BlockWait;
    CompletionMode completion = CompletionMode::Blocking;
    MeasurePoint measure = MeasurePoint::InApp;
    InterarrivalKind interarrival = InterarrivalKind::Exponential;
    /** cv of the lognormal inter-arrival option. */
    double lognormalCv = 0.5;
    /** Samples sent before this offset are warmup and not recorded. */
    Time warmup = msec(100);
    /** Length of the measured window. */
    Time duration = seconds(1);
    /** CPU cost of building + writing one request. */
    Time sendWork = usec(1);
    /** CPU cost of reading + parsing + timestamping one response. */
    Time parseWork = usec(1);
    /** Request bytes when no RequestModel is given. */
    std::uint32_t requestBytes = 100;
    /** Optional service-specific request filler. */
    RequestModel requestModel;
    /**
     * Offered-load schedule: the base qps is modulated by this
     * profile's time-varying multiplier (diurnal swing, flash crowd,
     * MMPP bursts). The default Constant profile reproduces the
     * stationary arrival process bit-for-bit.
     */
    LoadProfileParams profile;
    /**
     * wrk2-style coordinated-omission correction: measure latency
     * from the *intended* send time instead of the actual one, so a
     * generator that falls behind schedule (e.g. an LP client paying
     * wake latency before sending) charges its own delay to the
     * measurement instead of silently dropping it.
     */
    bool correctCoordinatedOmission = false;

    /** End of the recording window relative to start(). */
    Time windowEnd() const { return warmup + duration; }
};

} // namespace loadgen
} // namespace tpv

#endif // TPV_LOADGEN_PARAMS_HH
