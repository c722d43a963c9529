/** @file Tests for the C-state table and menu governor. */

#include "hw/cstate.hh"
#include "hw/idle_governor.hh"

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <random>

namespace tpv {
namespace hw {
namespace {

CStateTable
lpTable()
{
    return CStateTable(HwConfig::clientLP());
}

TEST(CStateTable, EnabledSubsetOnly)
{
    CStateTable t(HwConfig::serverBaseline()); // C0 + C1
    EXPECT_EQ(t.states().size(), 2u);
    EXPECT_EQ(t.deepest().state, CState::C1);
}

TEST(CStateTable, IdlePollKeepsOnlyC0)
{
    CStateTable t(HwConfig::clientHP());
    EXPECT_EQ(t.states().size(), 1u);
    EXPECT_EQ(t.deepest().state, CState::C0);
    EXPECT_EQ(t.deepestFor(seconds(10)).state, CState::C0);
}

TEST(CStateTable, DeepestForRespectsResidency)
{
    CStateTable t = lpTable();
    EXPECT_EQ(t.deepestFor(0).state, CState::C0);
    EXPECT_EQ(t.deepestFor(usec(2)).state, CState::C1);
    EXPECT_EQ(t.deepestFor(usec(19)).state, CState::C1);
    EXPECT_EQ(t.deepestFor(usec(20)).state, CState::C1E);
    EXPECT_EQ(t.deepestFor(usec(599)).state, CState::C1E);
    EXPECT_EQ(t.deepestFor(usec(600)).state, CState::C6);
    EXPECT_EQ(t.deepestFor(seconds(1)).state, CState::C6);
}

TEST(CStateTable, ExitLatencyLookup)
{
    CStateTable t = lpTable();
    EXPECT_EQ(t.exitLatency(CState::C0), 0);
    EXPECT_EQ(t.exitLatency(CState::C1), usec(2));
    EXPECT_EQ(t.exitLatency(CState::C1E), usec(10));
    EXPECT_EQ(t.exitLatency(CState::C6), usec(133));
}

TEST(MenuGovernor, NoHistoryUsesTimerHint)
{
    CStateTable t = lpTable();
    MenuGovernor g(t);
    EXPECT_EQ(g.choose(msec(1)).state, CState::C6);
    EXPECT_EQ(g.lastPrediction(), msec(1));
}

TEST(MenuGovernor, NoHintNoHistoryStaysShallow)
{
    CStateTable t = lpTable();
    MenuGovernor g(t);
    EXPECT_EQ(g.choose(kTimeNever).state, CState::C0);
}

TEST(MenuGovernor, HistoryCapsTimerHint)
{
    // The paper's LP-client pattern: the next-send timer is ~1ms out,
    // but responses keep arriving after ~40us. After a few interrupted
    // idles the governor must stop choosing C6.
    CStateTable t = lpTable();
    MenuGovernor g(t);
    EXPECT_EQ(g.choose(msec(1)).state, CState::C6);
    for (int i = 0; i < 8; ++i)
        g.recordIdle(usec(40));
    EXPECT_EQ(g.choose(msec(1)).state, CState::C1E);
    EXPECT_EQ(g.lastPrediction(), usec(40));
}

TEST(MenuGovernor, LongIdleHistoryAllowsDeepState)
{
    CStateTable t = lpTable();
    MenuGovernor g(t);
    for (int i = 0; i < 8; ++i)
        g.recordIdle(msec(2));
    EXPECT_EQ(g.choose(msec(5)).state, CState::C6);
}

TEST(MenuGovernor, MedianIsRobustToOneOutlier)
{
    CStateTable t = lpTable();
    MenuGovernor g(t);
    for (int i = 0; i < 7; ++i)
        g.recordIdle(usec(30));
    g.recordIdle(seconds(1)); // one long gap must not flip the estimate
    EXPECT_EQ(g.choose(kTimeNever).state, CState::C1E);
}

TEST(MenuGovernor, TimerHintStillCapsAfterHistory)
{
    CStateTable t = lpTable();
    MenuGovernor g(t);
    for (int i = 0; i < 8; ++i)
        g.recordIdle(msec(10));
    // History says "long", but a timer 5us out caps the prediction.
    EXPECT_EQ(g.choose(usec(5)).state, CState::C1);
}

TEST(MenuGovernor, MixedHistoryTracksTypicalInterval)
{
    CStateTable t = lpTable();
    MenuGovernor g(t);
    // Bimodal history (short response waits interleaved with longer
    // inter-send gaps): the outlier-discarding estimator converges on
    // the short cluster, hedging away from the deepest state — the
    // behaviour of Linux menu's get_typical_interval().
    for (int i = 0; i < 4; ++i) {
        g.recordIdle(usec(40));
        g.recordIdle(usec(500));
    }
    auto &chosen = g.choose(msec(1));
    EXPECT_EQ(chosen.state, CState::C1E);
    EXPECT_EQ(g.lastPrediction(), usec(40));
}

/**
 * The two-pass formulation of the governor's window estimate (a fresh
 * double sum, a variance pass and an arg-max pass per round), kept
 * verbatim as the reference the one-pass governor must match bit for
 * bit. @p history is the governor's ring as recordIdle() fills it.
 */
Time
referenceTypicalInterval(const std::array<Time, 8> &history,
                         std::size_t histCount)
{
    constexpr std::size_t kWindow = 8;
    std::array<double, kWindow> vals{};
    std::size_t n = histCount;
    for (std::size_t i = 0; i < n; ++i)
        vals[i] = static_cast<double>(history[i]);

    for (int pass = 0; pass < 8 && n >= 2; ++pass) {
        double sum = 0;
        for (std::size_t i = 0; i < n; ++i)
            sum += vals[i];
        const double avg = sum / static_cast<double>(n);
        double var = 0;
        for (std::size_t i = 0; i < n; ++i)
            var += (vals[i] - avg) * (vals[i] - avg);
        var /= static_cast<double>(n);
        // Consistent enough: stddev within a third of the average
        // (menu uses avg > 6 * stddev^2 heuristics; this captures the
        // same "accept when unimodal" intent).
        if (var <= (avg / 3.0) * (avg / 3.0))
            return static_cast<Time>(avg);
        // Drop the largest value and retry.
        std::size_t maxIdx = 0;
        for (std::size_t i = 1; i < n; ++i) {
            if (vals[i] > vals[maxIdx])
                maxIdx = i;
        }
        vals[maxIdx] = vals[n - 1];
        --n;
    }
    double sum = 0;
    for (std::size_t i = 0; i < n; ++i)
        sum += vals[i];
    return static_cast<Time>(sum / static_cast<double>(n ? n : 1));
}

TEST(MenuGovernor, OnePassEstimateMatchesTwoPassReference)
{
    CStateTable t = lpTable();
    std::mt19937_64 rng(20240917);
    const auto below = [&rng](std::uint64_t bound) {
        return static_cast<Time>(rng() % bound);
    };
    // History shapes: uniform, bimodal 20 us / 1 ms (half of them with
    // a few ns of jitter), all-equal, and few distinct values so the
    // maximum is duplicated.
    const auto draw = [&](int shape, Time equal) -> Time {
        switch (shape) {
          case 0:
            return below(static_cast<std::uint64_t>(msec(2)) + 1);
          case 1: {
            const Time base = rng() % 2 ? usec(20) : msec(1);
            return rng() % 2 ? base : base + below(64);
          }
          case 2:
            return equal;
          default: {
            static constexpr Time kLevels[] = {usec(5), usec(20),
                                               usec(300), msec(1)};
            return kLevels[rng() % 4];
          }
        }
    };

    constexpr int kPerShape = 30000;
    int checked = 0;
    for (int shape = 0; shape < 4; ++shape) {
        for (int rep = 0; rep < kPerShape; ++rep) {
            MenuGovernor g(t);
            std::array<Time, 8> ring{};
            // 1-8 samples fill the window partway or exactly; 9-12
            // wrap the ring so its oldest slots are overwritten.
            const std::size_t records = 1 + rep % 12;
            const Time equal = 1 + below(static_cast<std::uint64_t>(msec(2)));
            for (std::size_t r = 0; r < records; ++r) {
                const Time v = draw(shape, equal);
                ring[r % 8] = v;
                g.recordIdle(v);
            }
            const std::size_t fill = records < 8 ? records : 8;
            g.choose(kTimeNever);
            ASSERT_EQ(g.lastPrediction(),
                      referenceTypicalInterval(ring, fill))
                << "shape " << shape << " rep " << rep;
            ++checked;
        }
    }
    EXPECT_GE(checked, 100000);
}

} // namespace
} // namespace hw
} // namespace tpv
