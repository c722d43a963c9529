#include "svc/synthetic.hh"

#include <utility>

namespace tpv {
namespace svc {

SyntheticServer::SyntheticServer(Simulator &sim, hw::Machine &machine,
                                 net::Link &replyLink,
                                 net::Endpoint &client, Rng rng,
                                 SyntheticParams params)
    : ServiceGraph(sim, replyLink, client, rng, params.runVariability),
      params_(params)
{
    TierParams t = serverTierParams(params_.workers);
    t.work = [p = params_](const net::Message &, Rng &r) {
        // Busy-wait extension: accounted as service time on the
        // worker, never as idle time (paper Section IV-B).
        return static_cast<Time>(r.lognormalMeanSd(
                   static_cast<double>(p.baseServiceTime),
                   static_cast<double>(p.serviceTimeSd))) +
               p.addedDelay;
    };
    t.responseBytes = params_.responseBytes;
    setEntry(addTier(machine, std::move(t)));
}

} // namespace svc
} // namespace tpv
