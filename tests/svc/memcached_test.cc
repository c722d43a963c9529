/** @file Tests for the Memcached service model and the ETC workload. */

#include "svc/memcached.hh"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.hh"
#include "stats/descriptive.hh"

namespace tpv {
namespace svc {
namespace {

hw::HwConfig
serverCfg()
{
    hw::HwConfig c = hw::HwConfig::serverBaseline();
    c.cstates = {hw::CState::C0};
    return c;
}

struct ClientSink : net::Endpoint
{
    std::vector<net::Message> responses;

    void
    onMessage(const net::Message &m) override
    {
        responses.push_back(m);
    }
};

TEST(EtcModel, ValueSizesMatchGpdMean)
{
    // GPD(15, 214.476, 0.348) has mean mu + sigma/(1-xi) ~ 344B
    // (clamping trims the far tail slightly).
    KeyspaceModel etc;
    Rng rng(3);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += etc.sampleValueBytes(rng);
    EXPECT_NEAR(sum / n, 330.0, 25.0);
}

TEST(EtcModel, KeySizesNearGevLocation)
{
    KeyspaceModel etc;
    Rng rng(5);
    double sum = 0;
    const int n = 100000;
    std::uint32_t mn = UINT32_MAX, mx = 0;
    for (int i = 0; i < n; ++i) {
        const std::uint32_t k = etc.sampleKeyBytes(rng);
        sum += k;
        mn = std::min(mn, k);
        mx = std::max(mx, k);
    }
    EXPECT_NEAR(sum / n, 36.0, 4.0); // GEV mean = mu + sigma*g ~ 36B
    EXPECT_GE(mn, 1u);
    EXPECT_LE(mx, 250u); // memcached's protocol key limit
}

TEST(EtcModel, GetFractionRespected)
{
    KeyspaceModel etc;
    Rng rng(7);
    int gets = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        gets += (etc.sampleOp(rng) == MemcachedOp::Get);
    EXPECT_NEAR(static_cast<double>(gets) / n, etc.getFraction, 0.005);
}

TEST(EtcModel, SetRequestsCarryTheValue)
{
    KeyspaceModel etc;
    EXPECT_GT(etc.requestBytes(MemcachedOp::Set, 30, 300),
              etc.requestBytes(MemcachedOp::Get, 30, 300));
}

struct Rig
{
    Simulator sim;
    hw::Machine machine;
    net::Link link;
    ClientSink client;
    MemcachedServer server;

    explicit Rig(MemcachedParams params = {})
        : machine(sim, serverCfg()),
          link(sim, Rng(1), net::Link::Params{0, 0.0, 10.0}),
          server(sim, machine, link, client, Rng(2), params)
    {
    }
};

TEST(MemcachedServer, ServiceTimeAroundTenMicroseconds)
{
    // The paper cites ~10us average server-side processing time.
    MemcachedParams p;
    p.runVariability = 0; // isolate the service-time model
    Rig rig(p);
    const int n = 2000;
    for (int i = 0; i < n; ++i) {
        net::Message req;
        req.id = static_cast<std::uint64_t>(i);
        req.conn = static_cast<std::uint32_t>(i);
        req.kind = static_cast<std::uint8_t>(MemcachedOp::Get);
        rig.server.onMessage(req);
        rig.sim.run();
    }
    const double meanUs =
        toUsec(rig.server.stats().serviceWorkDispatched) / n;
    EXPECT_GT(meanUs, 7.0);
    EXPECT_LT(meanUs, 13.0);
}

TEST(MemcachedServer, GetResponsesCarryValues)
{
    Rig rig;
    net::Message req;
    req.kind = static_cast<std::uint8_t>(MemcachedOp::Get);
    rig.server.onMessage(req);
    rig.sim.run();
    ASSERT_EQ(rig.client.responses.size(), 1u);
    EXPECT_GT(rig.client.responses[0].bytes,
              rig.server.params().responseOverhead);
}

TEST(MemcachedServer, SetResponsesAreSmall)
{
    Rig rig;
    net::Message req;
    req.kind = static_cast<std::uint8_t>(MemcachedOp::Set);
    rig.server.onMessage(req);
    rig.sim.run();
    ASSERT_EQ(rig.client.responses.size(), 1u);
    EXPECT_EQ(rig.client.responses[0].bytes,
              rig.server.params().responseOverhead);
}

TEST(MemcachedServer, SetsCostMoreThanGets)
{
    MemcachedParams p;
    p.runVariability = 0;
    p.serviceTimeSd = 0;           // deterministic base
    p.etc.valueSigma = 1e-9;       // pin value size
    p.etc.valueXi = 0;
    Rig rig(p);

    net::Message get;
    get.kind = static_cast<std::uint8_t>(MemcachedOp::Get);
    rig.server.onMessage(get);
    rig.sim.run();
    const Time afterGet = rig.server.stats().serviceWorkDispatched;

    net::Message set;
    set.kind = static_cast<std::uint8_t>(MemcachedOp::Set);
    rig.server.onMessage(set);
    rig.sim.run();
    const Time setWork =
        rig.server.stats().serviceWorkDispatched - afterGet;
    EXPECT_NEAR(static_cast<double>(setWork - afterGet),
                static_cast<double>(p.setExtraTime), 100.0);
}

TEST(MemcachedServer, TenWorkersByDefault)
{
    Rig rig;
    EXPECT_EQ(rig.server.tier(0).pool().workers(), 10);
}

} // namespace
} // namespace svc
} // namespace tpv
