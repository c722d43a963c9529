/** @file Tests for the normal-distribution special functions. */

#include "stats/normal.hh"

#include <gtest/gtest.h>

#include <cmath>

namespace tpv {
namespace stats {
namespace {

TEST(Normal, CdfKnownValues)
{
    EXPECT_NEAR(normalCdf(0), 0.5, 1e-15);
    EXPECT_NEAR(normalCdf(1.959963984540054), 0.975, 1e-12);
    EXPECT_NEAR(normalCdf(-1.959963984540054), 0.025, 1e-12);
    EXPECT_NEAR(normalCdf(3), 0.9986501019683699, 1e-12);
}

TEST(Normal, SfComplementsCdf)
{
    for (double x : {-3.0, -1.0, 0.0, 0.5, 2.0, 4.0})
        EXPECT_NEAR(normalSf(x), 1.0 - normalCdf(x), 1e-12);
}

TEST(Normal, SfDeepTailAccuracy)
{
    // 1 - Phi(6) ~ 9.866e-10; naive subtraction would lose precision.
    EXPECT_NEAR(normalSf(6) / 9.865876450377018e-10, 1.0, 1e-9);
}

TEST(Normal, QuantileInvertsCdf)
{
    for (double p : {0.001, 0.01, 0.025, 0.1, 0.5, 0.9, 0.975, 0.99, 0.999})
        EXPECT_NEAR(normalCdf(normalQuantile(p)), p, 1e-12) << "p=" << p;
}

TEST(Normal, QuantileKnownValues)
{
    EXPECT_NEAR(normalQuantile(0.975), 1.959963984540054, 1e-10);
    EXPECT_NEAR(normalQuantile(0.5), 0.0, 1e-12);
    EXPECT_NEAR(normalQuantile(0.025), -1.959963984540054, 1e-10);
}

TEST(Normal, ZForConfidencePaperValue)
{
    // The paper uses z = 1.96 for 95% confidence.
    EXPECT_NEAR(zForConfidence(0.95), 1.96, 0.001);
    EXPECT_NEAR(zForConfidence(0.99), 2.5758, 0.001);
}

TEST(Normal, IncompleteBetaBoundaries)
{
    EXPECT_DOUBLE_EQ(incompleteBeta(2, 3, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(incompleteBeta(2, 3, 1.0), 1.0);
}

TEST(Normal, IncompleteBetaSymmetry)
{
    // I_x(a,b) = 1 - I_{1-x}(b,a)
    for (double x : {0.1, 0.3, 0.5, 0.7})
        EXPECT_NEAR(incompleteBeta(2.5, 1.5, x),
                    1.0 - incompleteBeta(1.5, 2.5, 1.0 - x), 1e-12);
}

TEST(Normal, IncompleteBetaUniformCase)
{
    // I_x(1,1) = x.
    for (double x : {0.2, 0.5, 0.8})
        EXPECT_NEAR(incompleteBeta(1, 1, x), x, 1e-12);
}

TEST(Normal, StudentTCdfSymmetry)
{
    for (double t : {0.5, 1.0, 2.0})
        EXPECT_NEAR(studentTCdf(t, 7) + studentTCdf(-t, 7), 1.0, 1e-12);
}

TEST(Normal, StudentTCdfKnownValue)
{
    // With df=1 (Cauchy): F(1) = 0.75.
    EXPECT_NEAR(studentTCdf(1.0, 1), 0.75, 1e-10);
    // Large df approaches the normal.
    EXPECT_NEAR(studentTCdf(1.96, 100000), normalCdf(1.96), 1e-4);
}

TEST(Normal, StudentTTwoSidedP)
{
    // Two-sided p at t=0 is 1.
    EXPECT_NEAR(studentTTwoSidedP(0, 10), 1.0, 1e-12);
    // Matches 2 * upper tail.
    EXPECT_NEAR(studentTTwoSidedP(2.0, 10),
                2.0 * (1.0 - studentTCdf(2.0, 10)), 1e-10);
}

} // namespace
} // namespace stats
} // namespace tpv
