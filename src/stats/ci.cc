#include "stats/ci.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"
#include "stats/descriptive.hh"
#include "stats/normal.hh"

namespace tpv {
namespace stats {

bool
ConfInterval::overlaps(const ConfInterval &other) const
{
    return lower <= other.upper && other.lower <= upper;
}

bool
ConfInterval::contains(double v) const
{
    return v >= lower && v <= upper;
}

ConfInterval
nonparametricMedianCI(const std::vector<double> &xs, double level)
{
    TPV_ASSERT(xs.size() >= 2, "nonparametric CI needs >= 2 samples");
    const std::vector<double> ys = sorted(xs);
    const auto n = static_cast<double>(ys.size());
    const double z = zForConfidence(level);

    // Paper Eq. 1-2 (1-based ranks).
    auto lowRank = static_cast<long>(std::floor((n - z * std::sqrt(n)) / 2.0));
    auto highRank =
        static_cast<long>(std::ceil(1.0 + (n + z * std::sqrt(n)) / 2.0));
    lowRank = std::clamp<long>(lowRank, 1, static_cast<long>(ys.size()));
    highRank = std::clamp<long>(highRank, 1, static_cast<long>(ys.size()));

    ConfInterval ci;
    ci.lower = ys[static_cast<std::size_t>(lowRank - 1)];
    ci.upper = ys[static_cast<std::size_t>(highRank - 1)];
    ci.center = median(ys);
    ci.level = level;
    TPV_ASSERT(ci.lower <= ci.center && ci.center <= ci.upper,
               "median escaped its own CI");
    return ci;
}

int
confidentOrdering(const ConfInterval &a, const ConfInterval &b)
{
    if (a.overlaps(b))
        return 0;
    return a.lower > b.upper ? +1 : -1;
}

} // namespace stats
} // namespace tpv
