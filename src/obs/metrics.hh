/**
 * @file
 * Timeline metrics: named probes sampled on a periodic simulated-time
 * tick and dumped as one CSV time series per run.
 *
 * A probe is a (name, domain, sampling function) triple. Ticks are
 * per event-queue domain — every domain fires at the same simulated
 * instants, and each domain's tick samples only the probes homed in
 * it, reading state that domain owns. That is what makes the series
 * TSan-clean under the partitioned engine (a probe never reads
 * another crew thread's state) and deterministic (the CSV is a pure
 * function of simulated behaviour: same columns, same rows, same
 * bytes, serial or parallel).
 *
 * The one intentionally wall-clock series — per-domain barrier stall
 * time of the partitioned crew — is kept out of the deterministic CSV
 * and exported separately by stallCsv().
 */

#ifndef TPV_OBS_METRICS_HH
#define TPV_OBS_METRICS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/time.hh"

namespace tpv {

class Simulator;

namespace obs {

/**
 * Per-run probe registry + sample store. Register probes after the
 * run's partition plan is final (domain indices must be the ones the
 * run will execute with), arm() before the run starts, read the CSV
 * after it ends.
 */
class MetricsRegistry
{
  public:
    using Probe = std::function<double()>;

    /**
     * Register a probe: @p name becomes a CSV column (registration
     * order = column order), @p domain the event-queue domain whose
     * tick samples it (0 in serial runs), @p fn the sampler — it
     * must only read state owned by that domain.
     */
    void add(std::string name, int domain, Probe fn);

    /**
     * Schedule the first tick in every domain at @p period and keep
     * ticking every @p period until @p until. Call from the main
     * thread after enablePartition() (each domain's first tick is
     * placed with Simulator::atDomain) and before the run starts.
     */
    void arm(Simulator &sim, Time period, Time until);

    std::size_t probeCount() const { return probes_.size(); }

    /** Rows sampled (ticks fired per domain). */
    std::size_t ticks() const { return tickTimes_.size(); }

    /**
     * The deterministic time series: header "time_ns,<col>,..."
     * then one row per tick, values formatted "%.6g".
     */
    std::string csv() const;

    /**
     * Wall-clock series (partitioned runs with stall tracking only;
     * empty otherwise): cumulative barrier-stall nanoseconds of each
     * domain's crew thread at each tick. Real time, so NOT
     * deterministic — kept out of csv() on purpose.
     */
    std::string stallCsv() const;

  private:
    struct ProbeEntry
    {
        std::string name;
        int domain = 0;
        /** Index of this probe among its domain's probes (sample
         *  layout within the domain's row). */
        int slot = 0;
        Probe fn;
    };

    /** One domain's sample store, cache-line padded: written only by
     *  the crew thread that owns the domain. */
    struct alignas(64) DomainSamples
    {
        /** probeCount values per tick, appended tickwise. */
        std::vector<double> values;
        /** Cumulative barrier stall at each tick (partitioned). */
        std::vector<std::uint64_t> stallNs;
        int probeCount = 0;
        std::uint64_t ticksFired = 0;
    };

    /** One tick of @p domain: sample its probes, re-arm. */
    void tick(Simulator &sim, int domain, Time period, Time until);

    std::vector<ProbeEntry> probes_;
    std::vector<DomainSamples> perDomain_;
    /** Tick instants, recorded by domain 0 (same instants in every
     *  domain by construction). */
    std::vector<Time> tickTimes_;
    bool stall_ = false;
    bool armed_ = false;
};

} // namespace obs
} // namespace tpv

#endif // TPV_OBS_METRICS_HH
