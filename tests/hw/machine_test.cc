/** @file Tests for the machine-level model (topology, IRQ, uncore). */

#include "hw/machine.hh"

#include <gtest/gtest.h>

#include "sim/simulator.hh"

namespace tpv {
namespace hw {
namespace {

HwConfig
basicConfig()
{
    HwConfig c;
    c.name = "basic";
    c.cores = 4;
    c.smt = false;
    c.cstates = {CState::C0};
    c.governor = FreqGovernor::Userspace;
    c.tickless = true;
    return c;
}

TEST(Machine, TopologyWithoutSmt)
{
    Simulator sim;
    Machine m(sim, basicConfig());
    EXPECT_EQ(m.coreCount(), 4u);
    EXPECT_EQ(m.threadCount(), 4u);
}

TEST(Machine, TopologyWithSmt)
{
    Simulator sim;
    HwConfig cfg = basicConfig();
    cfg.smt = true;
    Machine m(sim, cfg);
    EXPECT_EQ(m.coreCount(), 4u);
    EXPECT_EQ(m.threadCount(), 8u);
}

TEST(Machine, GlobalThreadIndexingMatchesLinuxSiblingOrder)
{
    Simulator sim;
    HwConfig cfg = basicConfig();
    cfg.smt = true;
    Machine m(sim, cfg);
    // 0..3 are thread 0 of cores 0..3; 4..7 are the siblings.
    EXPECT_EQ(&m.thread(0), &m.core(0).thread(0));
    EXPECT_EQ(&m.thread(3), &m.core(3).thread(0));
    EXPECT_EQ(&m.thread(4), &m.core(0).thread(1));
    EXPECT_EQ(&m.thread(7), &m.core(3).thread(1));
}

TEST(Machine, ActiveCoresSettleToZero)
{
    Simulator sim;
    Machine m(sim, basicConfig());
    EXPECT_EQ(m.activeCores(), 0);
}

TEST(Machine, ActiveCoresTrackBusyWork)
{
    Simulator sim;
    Machine m(sim, basicConfig());
    m.thread(0).submit(usec(50), nullptr);
    m.thread(1).submit(usec(100), nullptr);
    sim.runUntil(usec(10));
    EXPECT_EQ(m.activeCores(), 2);
    sim.runUntil(usec(60));
    EXPECT_EQ(m.activeCores(), 1);
    sim.run();
    EXPECT_EQ(m.activeCores(), 0);
}

TEST(Machine, DeliverIrqRunsHandlerAfterIrqWork)
{
    Simulator sim;
    Machine m(sim, basicConfig());
    Time handled = -1;
    m.deliverIrq(2, usec(2), [&] { handled = sim.now(); });
    sim.run();
    EXPECT_EQ(handled, usec(2));
    EXPECT_EQ(m.stats().irqsDelivered, 1u);
}

TEST(Machine, UncoreDynamicPenalisesIdlePackage)
{
    Simulator sim;
    HwConfig cfg = basicConfig();
    cfg.uncoreDynamic = true;
    cfg.uncoreWake = usec(5);
    cfg.uncoreIdleThreshold = usec(100);
    Machine m(sim, cfg);

    // Package idle since t=0; first IRQ after 1ms pays the penalty.
    Time handled = -1;
    sim.at(msec(1), [&] { m.deliverIrq(0, usec(2), [&] { handled = sim.now(); }); });
    sim.run();
    EXPECT_EQ(handled, msec(1) + usec(5) + usec(2));
    EXPECT_EQ(m.stats().uncoreWakePenalties, 1u);
}

TEST(Machine, UncoreFixedNeverPenalises)
{
    Simulator sim;
    Machine m(sim, basicConfig()); // uncoreDynamic = false
    Time handled = -1;
    sim.at(msec(1), [&] { m.deliverIrq(0, usec(2), [&] { handled = sim.now(); }); });
    sim.run();
    EXPECT_EQ(handled, msec(1) + usec(2));
    EXPECT_EQ(m.stats().uncoreWakePenalties, 0u);
}

TEST(Machine, UncoreStaysWarmUnderSteadyTraffic)
{
    Simulator sim;
    HwConfig cfg = basicConfig();
    cfg.uncoreDynamic = true;
    cfg.uncoreIdleThreshold = usec(100);
    Machine m(sim, cfg);
    // IRQs every 50us keep the package active: only the first pays.
    for (int i = 0; i < 20; ++i)
        sim.at(msec(1) + usec(50) * i,
               [&] { m.deliverIrq(0, usec(1), nullptr); });
    sim.run();
    EXPECT_EQ(m.stats().uncoreWakePenalties, 1u);
}

TEST(Machine, StatsAggregateAcrossCores)
{
    Simulator sim;
    HwConfig cfg = basicConfig();
    cfg.cstates = {CState::C0, CState::C1};
    Machine m(sim, cfg);
    // Build up idle history, then wake two cores a few times.
    for (int i = 1; i <= 6; ++i) {
        sim.at(usec(100) * i, [&] {
            m.thread(0).submit(usec(1), nullptr);
            m.thread(1).submit(usec(1), nullptr);
        });
    }
    sim.run();
    const MachineStats s = m.stats();
    EXPECT_EQ(s.wakes,
              m.core(0).stats().wakes + m.core(1).stats().wakes +
                  m.core(2).stats().wakes + m.core(3).stats().wakes);
    EXPECT_GT(s.wakes, 0u);
}

TEST(Machine, NamePropagates)
{
    Simulator sim;
    Machine m(sim, basicConfig(), "client-0");
    EXPECT_EQ(m.name(), "client-0");
}

TEST(Machine, TurboBinsRespondToLoad)
{
    Simulator sim;
    HwConfig cfg = basicConfig();
    cfg.governor = FreqGovernor::Performance;
    cfg.turbo = true; // 4 cores: 1 active -> turbo bin
    Machine m(sim, cfg);

    m.thread(0).submit(usec(50), nullptr);
    sim.runUntil(usec(10));
    EXPECT_DOUBLE_EQ(m.core(0).freq().currentGhz(), cfg.turboGhz);

    // Load three more cores: bins drop to nominal.
    m.thread(1).submit(usec(50), nullptr);
    m.thread(2).submit(usec(50), nullptr);
    m.thread(3).submit(usec(50), nullptr);
    sim.runUntil(usec(20));
    EXPECT_DOUBLE_EQ(m.core(0).freq().currentGhz(), cfg.nominalGhz);
}

TEST(Machine, TurboRetargetsEveryCoreOnBinChanges)
{
    // The HP client's Performance+turbo setup: 10 cores, so the bins
    // move at 3 busy cores (half-way bin) and at 6 (nominal).
    Simulator sim;
    const HwConfig cfg = HwConfig::clientHP();
    Machine m(sim, cfg);
    const auto expectAll = [&m](double ghz, std::uint64_t transitions,
                                const char *when) {
        SCOPED_TRACE(when);
        for (std::size_t i = 0; i < m.coreCount(); ++i) {
            EXPECT_DOUBLE_EQ(m.core(i).freq().currentGhz(), ghz)
                << "core " << i;
            EXPECT_EQ(m.core(i).freq().transitions(), transitions)
                << "core " << i;
        }
        EXPECT_EQ(m.stats().freqTransitions, transitions * m.coreCount());
    };

    // Every FreqDomain starts at full turbo (built before any core is
    // counted active), then follows the settling count down through
    // nominal and the half-way bin back to turbo: 3 transitions each.
    EXPECT_EQ(m.activeCores(), 0);
    expectAll(3.0, 3, "after construction");

    for (std::size_t i = 0; i < 3; ++i)
        m.thread(i).submit(usec(50), nullptr);
    sim.runUntil(usec(10));
    EXPECT_EQ(m.activeCores(), 3);
    expectAll(2.6, 4, "3 cores busy");

    for (std::size_t i = 3; i < 6; ++i)
        m.thread(i).submit(usec(50), nullptr);
    sim.runUntil(usec(20));
    EXPECT_EQ(m.activeCores(), 6);
    expectAll(2.2, 5, "6 cores busy");

    // Drain before the first scheduling-clock tick (1 ms).
    sim.runUntil(usec(200));
    EXPECT_EQ(m.activeCores(), 0);
    expectAll(3.0, 7, "drained");
}

} // namespace
} // namespace hw
} // namespace tpv
