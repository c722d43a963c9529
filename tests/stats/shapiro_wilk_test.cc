/** @file Tests for the Shapiro-Wilk normality test (Royston AS R94). */

#include "stats/shapiro_wilk.hh"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/random.hh"
#include "stats/normal.hh"

namespace tpv {
namespace stats {
namespace {

TEST(ShapiroWilk, N3PerfectlyLinearDataHasWOne)
{
    // For n=3 the statistic reduces to a closed form; {1,2,3} gives
    // W = 1 exactly and hence p = 1.
    auto r = shapiroWilk({1, 2, 3});
    EXPECT_NEAR(r.w, 1.0, 1e-12);
    EXPECT_NEAR(r.pValue, 1.0, 1e-9);
}

TEST(ShapiroWilk, N3HandComputedAnchor)
{
    // Hand computation: W = 4.5 / (42/9) = 0.9642857...;
    // p = 6/pi * (asin(sqrt(W)) - asin(sqrt(3/4))) per Royston's exact
    // n=3 formula.
    auto r = shapiroWilk({1, 2, 4});
    EXPECT_NEAR(r.w, 0.9642857142857143, 1e-10);
    const double expectedP =
        (6.0 / M_PI) *
        (std::asin(std::sqrt(0.9642857142857143)) - std::asin(std::sqrt(0.75)));
    EXPECT_NEAR(r.pValue, expectedP, 1e-9);
}

TEST(ShapiroWilk, ConstantDataFailsNormality)
{
    auto r = shapiroWilk({5, 5, 5, 5, 5, 5, 5, 5});
    EXPECT_FALSE(r.normalAt(0.05));
}

TEST(ShapiroWilk, NormalQuantileDataScoresNearOne)
{
    // Feeding the expected normal order statistics themselves should
    // give W extremely close to 1 and a large p-value.
    const int n = 50;
    std::vector<double> xs;
    for (int i = 1; i <= n; ++i)
        xs.push_back(normalQuantile((i - 0.375) / (n + 0.25)));
    auto r = shapiroWilk(xs);
    EXPECT_GT(r.w, 0.995);
    EXPECT_TRUE(r.normalAt(0.05));
}

TEST(ShapiroWilk, AffineInvariance)
{
    Rng rng(1234);
    std::vector<double> xs;
    for (int i = 0; i < 40; ++i)
        xs.push_back(rng.normal(0, 1));
    std::vector<double> ys;
    for (double x : xs)
        ys.push_back(1000.0 + 42.0 * x);
    auto rx = shapiroWilk(xs);
    auto ry = shapiroWilk(ys);
    EXPECT_NEAR(rx.w, ry.w, 1e-10);
    EXPECT_NEAR(rx.pValue, ry.pValue, 1e-8);
}

TEST(ShapiroWilk, OrderInvariance)
{
    std::vector<double> xs{9, 2, 7, 1, 8, 3, 6, 4, 5, 10, 2.5, 7.5};
    std::vector<double> ys(xs.rbegin(), xs.rend());
    EXPECT_NEAR(shapiroWilk(xs).w, shapiroWilk(ys).w, 1e-12);
}

TEST(ShapiroWilk, RejectsExponentialData)
{
    // Strongly skewed data must be detected with near-certainty at
    // n = 50 (the paper's per-configuration run count).
    Rng rng(777);
    int rejected = 0;
    const int trials = 100;
    for (int t = 0; t < trials; ++t) {
        std::vector<double> xs;
        for (int i = 0; i < 50; ++i)
            xs.push_back(rng.exponential(10.0));
        if (!shapiroWilk(xs).normalAt(0.05))
            ++rejected;
    }
    EXPECT_GE(rejected, 90);
}

TEST(ShapiroWilk, FalsePositiveRateNearAlpha)
{
    // For true normal samples the rejection rate at alpha=0.05 should
    // be ~5%. 400 trials gives a binomial sd of ~1.1%, so accept 1%-10%.
    Rng rng(4242);
    int rejected = 0;
    const int trials = 400;
    for (int t = 0; t < trials; ++t) {
        std::vector<double> xs;
        for (int i = 0; i < 50; ++i)
            xs.push_back(rng.normal(100, 15));
        if (!shapiroWilk(xs).normalAt(0.05))
            ++rejected;
    }
    const double rate = static_cast<double>(rejected) / trials;
    EXPECT_GT(rate, 0.01);
    EXPECT_LT(rate, 0.10);
}

TEST(ShapiroWilk, RejectsBimodalData)
{
    Rng rng(31337);
    std::vector<double> xs;
    for (int i = 0; i < 60; ++i)
        xs.push_back(i % 2 == 0 ? rng.normal(0, 1) : rng.normal(20, 1));
    EXPECT_FALSE(shapiroWilk(xs).normalAt(0.05));
}

TEST(ShapiroWilk, SkewedQueueLikeDataRejected)
{
    // Figure 9's shape: most samples just below the median, a thin
    // scatter far above. Build that shape deterministically.
    std::vector<double> xs;
    for (int i = 0; i < 45; ++i)
        xs.push_back(93.0 + 0.1 * i);
    for (int i = 0; i < 5; ++i)
        xs.push_back(104.0 + 12.0 * i);
    EXPECT_FALSE(shapiroWilk(xs).normalAt(0.05));
}

/** Small-n path (4 <= n <= 11) sanity across sizes. */
class ShapiroSmallN : public ::testing::TestWithParam<int>
{
};

TEST_P(ShapiroSmallN, NormalDataUsuallyPasses)
{
    const int n = GetParam();
    Rng rng(static_cast<std::uint64_t>(n) * 7919);
    int passes = 0;
    const int trials = 200;
    for (int t = 0; t < trials; ++t) {
        std::vector<double> xs;
        for (int i = 0; i < n; ++i)
            xs.push_back(rng.normal(50, 5));
        if (shapiroWilk(xs).normalAt(0.05))
            ++passes;
    }
    // Expected pass rate 95%; allow generous slack for small n.
    EXPECT_GE(passes, trials * 85 / 100);
}

INSTANTIATE_TEST_SUITE_P(SmallSizes, ShapiroSmallN,
                         ::testing::Values(4, 5, 6, 8, 11, 12, 20));

TEST(ShapiroWilk, WStatisticWithinUnitInterval)
{
    Rng rng(5150);
    for (int t = 0; t < 50; ++t) {
        std::vector<double> xs;
        const int n = 3 + static_cast<int>(rng.uniformInt(0, 97));
        for (int i = 0; i < n; ++i)
            xs.push_back(100 * rng.uniform01());
        auto r = shapiroWilk(xs);
        EXPECT_GT(r.w, 0.0);
        EXPECT_LE(r.w, 1.0);
        EXPECT_GE(r.pValue, 0.0);
        EXPECT_LE(r.pValue, 1.0);
    }
}

} // namespace
} // namespace stats
} // namespace tpv
