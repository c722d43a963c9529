#include "stats/normal.hh"

#include <cmath>
#include <limits>

#include "sim/logging.hh"

namespace tpv {
namespace stats {

double
normalCdf(double x)
{
    return 0.5 * std::erfc(-x / std::sqrt(2.0));
}

double
normalSf(double x)
{
    return 0.5 * std::erfc(x / std::sqrt(2.0));
}

double
normalQuantile(double p)
{
    TPV_ASSERT(p > 0.0 && p < 1.0, "normalQuantile needs p in (0,1): ", p);

    // Acklam's rational approximation.
    static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                               -2.759285104469687e+02, 1.383577518672690e+02,
                               -3.066479806614716e+01, 2.506628277459239e+00};
    static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                               -1.556989798598866e+02, 6.680131188771972e+01,
                               -1.328068155288572e+01};
    static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                               -2.400758277161838e+00, -2.549732539343734e+00,
                               4.374664141464968e+00,  2.938163982698783e+00};
    static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                               2.445134137142996e+00, 3.754408661907416e+00};

    const double plow = 0.02425;
    const double phigh = 1 - plow;
    double x;

    if (p < plow) {
        const double q = std::sqrt(-2 * std::log(p));
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
    } else if (p <= phigh) {
        const double q = p - 0.5;
        const double r = q * q;
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
             a[5]) *
            q /
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1);
    } else {
        const double q = std::sqrt(-2 * std::log(1 - p));
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
              c[5]) /
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
    }

    // One Halley refinement step pushes the error to machine precision.
    const double e = normalCdf(x) - p;
    const double u = e * std::sqrt(2.0 * M_PI) * std::exp(0.5 * x * x);
    x = x - u / (1 + 0.5 * x * u);
    return x;
}

namespace {

/** Continued-fraction kernel for the incomplete beta function. */
double
betacf(double a, double b, double x)
{
    const int kMaxIter = 200;
    const double kEps = 3.0e-14;
    const double kFpMin = 1.0e-300;

    const double qab = a + b;
    const double qap = a + 1.0;
    const double qam = a - 1.0;
    double c = 1.0;
    double d = 1.0 - qab * x / qap;
    if (std::abs(d) < kFpMin)
        d = kFpMin;
    d = 1.0 / d;
    double h = d;
    for (int m = 1; m <= kMaxIter; ++m) {
        const int m2 = 2 * m;
        double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if (std::abs(d) < kFpMin)
            d = kFpMin;
        c = 1.0 + aa / c;
        if (std::abs(c) < kFpMin)
            c = kFpMin;
        d = 1.0 / d;
        h *= d * c;
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if (std::abs(d) < kFpMin)
            d = kFpMin;
        c = 1.0 + aa / c;
        if (std::abs(c) < kFpMin)
            c = kFpMin;
        d = 1.0 / d;
        const double del = d * c;
        h *= del;
        if (std::abs(del - 1.0) < kEps)
            break;
    }
    return h;
}

} // namespace

double
incompleteBeta(double a, double b, double x)
{
    TPV_ASSERT(a > 0 && b > 0, "incompleteBeta needs positive a, b");
    if (x <= 0.0)
        return 0.0;
    if (x >= 1.0)
        return 1.0;

    const double lnBeta =
        std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b);
    const double front =
        std::exp(lnBeta + a * std::log(x) + b * std::log(1.0 - x));

    if (x < (a + 1.0) / (a + b + 2.0))
        return front * betacf(a, b, x) / a;
    return 1.0 - front * betacf(b, a, 1.0 - x) / b;
}

double
studentTCdf(double t, double df)
{
    TPV_ASSERT(df > 0, "studentTCdf needs positive df");
    const double x = df / (df + t * t);
    const double p = 0.5 * incompleteBeta(df / 2.0, 0.5, x);
    return t > 0 ? 1.0 - p : p;
}

double
studentTTwoSidedP(double t, double df)
{
    const double x = df / (df + t * t);
    return incompleteBeta(df / 2.0, 0.5, x);
}

double
zForConfidence(double level)
{
    TPV_ASSERT(level > 0.0 && level < 1.0,
               "confidence level must be in (0,1): ", level);
    return normalQuantile(0.5 + level / 2.0);
}

} // namespace stats
} // namespace tpv
