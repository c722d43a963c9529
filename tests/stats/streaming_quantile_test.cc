/** @file Tests for the P^2 streaming quantile estimator. */

#include "stats/streaming_quantile.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/random.hh"

namespace tpv {
namespace stats {
namespace {

double
exactQuantile(std::vector<double> xs, double q)
{
    std::sort(xs.begin(), xs.end());
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(xs.size() - 1));
    return xs[idx];
}

TEST(StreamingQuantile, EmptyAndBootstrap)
{
    StreamingQuantile est(0.95);
    EXPECT_EQ(est.count(), 0u);
    EXPECT_EQ(est.estimate(), 0.0);

    // Fewer than five observations: the estimate is the max so far
    // (a conservative stand-in for an upper quantile).
    est.observe(3.0);
    EXPECT_EQ(est.estimate(), 3.0);
    est.observe(1.0);
    EXPECT_EQ(est.estimate(), 3.0);
    est.observe(7.0);
    EXPECT_EQ(est.estimate(), 7.0);
    EXPECT_EQ(est.count(), 3u);
}

TEST(StreamingQuantile, ConvergesOnUniformStream)
{
    // Uniform [0, 1000): p95 should land near 950.
    StreamingQuantile est(0.95);
    Rng rng(7);
    for (int i = 0; i < 20000; ++i)
        est.observe(1000.0 * rng.uniform01());
    EXPECT_NEAR(est.estimate(), 950.0, 15.0);
}

TEST(StreamingQuantile, TracksLognormalTail)
{
    // The shape service times actually have. Compare against the
    // exact sample quantile of the same stream.
    StreamingQuantile est(0.95);
    Rng rng(42);
    std::vector<double> xs;
    for (int i = 0; i < 20000; ++i) {
        const double x = rng.lognormalMeanSd(300.0, 300.0);
        xs.push_back(x);
        est.observe(x);
    }
    const double exact = exactQuantile(xs, 0.95);
    EXPECT_NEAR(est.estimate() / exact, 1.0, 0.1);
}

TEST(StreamingQuantile, MedianToo)
{
    StreamingQuantile est(0.5);
    Rng rng(3);
    for (int i = 0; i < 10000; ++i)
        est.observe(100.0 * rng.uniform01());
    EXPECT_NEAR(est.estimate(), 50.0, 3.0);
}

TEST(StreamingQuantile, DeterministicForSameStream)
{
    auto run = [] {
        StreamingQuantile est(0.95);
        Rng rng(11);
        for (int i = 0; i < 5000; ++i)
            est.observe(rng.lognormalMeanSd(100.0, 50.0));
        return est.estimate();
    };
    EXPECT_EQ(run(), run());
}

TEST(StreamingQuantile, ReactsToARegimeShift)
{
    // The adaptive-hedging scenario: a healthy stream, then a fault
    // makes everything slower. The estimate must climb toward the
    // new regime instead of staying anchored on stale history.
    StreamingQuantile est(0.95);
    Rng rng(5);
    for (int i = 0; i < 2000; ++i)
        est.observe(rng.lognormalMeanSd(100.0, 30.0));
    const double healthy = est.estimate();
    for (int i = 0; i < 8000; ++i)
        est.observe(rng.lognormalMeanSd(1000.0, 300.0));
    EXPECT_GT(est.estimate(), 3.0 * healthy);
}

} // namespace
} // namespace stats
} // namespace tpv
