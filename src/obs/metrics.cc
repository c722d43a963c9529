#include "obs/metrics.hh"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "sim/logging.hh"
#include "sim/partition.hh"
#include "sim/simulator.hh"

namespace tpv {
namespace obs {

void
MetricsRegistry::add(std::string name, int domain, Probe fn)
{
    TPV_ASSERT(!armed_, "metrics probe added after arm()");
    TPV_ASSERT(domain >= 0, "negative metrics domain");
    ProbeEntry entry;
    entry.name = std::move(name);
    entry.domain = domain;
    entry.fn = std::move(fn);
    for (const ProbeEntry &p : probes_) {
        if (p.domain == domain)
            ++entry.slot;
    }
    probes_.push_back(std::move(entry));
}

void
MetricsRegistry::arm(Simulator &sim, Time period, Time until)
{
    TPV_ASSERT(period > 0, "metrics period must be positive");
    TPV_ASSERT(!armed_, "metrics armed twice");
    armed_ = true;
    const int domains =
        sim.partitioned() ? sim.partition()->domainCount() : 1;
    perDomain_.resize(static_cast<std::size_t>(domains));
    for (const ProbeEntry &p : probes_) {
        TPV_ASSERT(p.domain < domains, "probe '", p.name,
                   "' homed in unknown domain ", p.domain);
        ++perDomain_[static_cast<std::size_t>(p.domain)].probeCount;
    }
    // Pre-size the stores for the whole run: ticks then append into
    // reserved slabs.
    const std::size_t rows =
        static_cast<std::size_t>(until / period + 2);
    tickTimes_.reserve(rows);
    for (std::size_t d = 0; d < perDomain_.size(); ++d) {
        DomainSamples &ds = perDomain_[d];
        ds.values.reserve(rows *
                          static_cast<std::size_t>(ds.probeCount));
        if (sim.partitioned())
            ds.stallNs.reserve(rows);
    }
    stall_ = sim.partitioned();
    if (stall_)
        sim.partition()->setStallTracking(true);
    for (int d = 0; d < domains; ++d) {
        sim.atDomain(d, period, [this, &sim, d, period, until] {
            tick(sim, d, period, until);
        });
    }
}

void
MetricsRegistry::tick(Simulator &sim, int domain, Time period,
                      Time until)
{
    DomainSamples &ds = perDomain_[static_cast<std::size_t>(domain)];
    if (domain == 0)
        tickTimes_.push_back(sim.now());
    for (const ProbeEntry &p : probes_) {
        if (p.domain == domain)
            ds.values.push_back(p.fn());
    }
    if (stall_) {
        ds.stallNs.push_back(
            sim.partition()->barrierStallNs(domain));
    }
    ++ds.ticksFired;
    const Time next = sim.now() + period;
    if (next <= until) {
        // Re-armed from inside the tick, so the event lands in the
        // calling domain: each domain's loop stays on its timeline.
        sim.at(next, [this, &sim, domain, period, until] {
            tick(sim, domain, period, until);
        });
    }
}

std::string
MetricsRegistry::csv() const
{
    std::string out = "time_ns";
    for (const ProbeEntry &p : probes_) {
        out += ',';
        out += p.name;
    }
    out += '\n';

    std::size_t rows = tickTimes_.size();
    for (const DomainSamples &ds : perDomain_) {
        if (ds.probeCount > 0) {
            rows = std::min(
                rows, static_cast<std::size_t>(ds.ticksFired));
        }
    }
    char buf[64];
    for (std::size_t r = 0; r < rows; ++r) {
        std::snprintf(buf, sizeof buf, "%lld",
                      static_cast<long long>(tickTimes_[r]));
        out += buf;
        for (const ProbeEntry &p : probes_) {
            const DomainSamples &ds =
                perDomain_[static_cast<std::size_t>(p.domain)];
            const double v =
                ds.values[r * static_cast<std::size_t>(ds.probeCount) +
                          static_cast<std::size_t>(p.slot)];
            std::snprintf(buf, sizeof buf, ",%.6g", v);
            out += buf;
        }
        out += '\n';
    }
    return out;
}

std::string
MetricsRegistry::stallCsv() const
{
    if (!stall_)
        return std::string();
    std::string out = "time_ns";
    char buf[64];
    for (std::size_t d = 0; d < perDomain_.size(); ++d) {
        std::snprintf(buf, sizeof buf, ",stall_cum_ns.d%zu", d);
        out += buf;
    }
    out += '\n';
    std::size_t rows = tickTimes_.size();
    for (const DomainSamples &ds : perDomain_)
        rows = std::min(rows, ds.stallNs.size());
    for (std::size_t r = 0; r < rows; ++r) {
        std::snprintf(buf, sizeof buf, "%lld",
                      static_cast<long long>(tickTimes_[r]));
        out += buf;
        for (const DomainSamples &ds : perDomain_) {
            std::snprintf(buf, sizeof buf, ",%llu",
                          static_cast<unsigned long long>(
                              ds.stallNs[r]));
            out += buf;
        }
        out += '\n';
    }
    return out;
}

} // namespace obs
} // namespace tpv
