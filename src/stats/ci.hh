/**
 * @file
 * Confidence intervals: the paper's non-parametric median CI
 * (Section III, Eq. 1-2) and the non-overlap ordering rule.
 */

#ifndef TPV_STATS_CI_HH
#define TPV_STATS_CI_HH

#include <cstddef>
#include <vector>

namespace tpv {
namespace stats {

/** A two-sided confidence interval around a point estimate. */
struct ConfInterval
{
    double lower = 0;
    double upper = 0;
    /** Point estimate the interval is built around (median or mean). */
    double center = 0;
    /** Confidence level used, e.g. 0.95. */
    double level = 0;

    /** @return true if the two intervals share any point. */
    bool overlaps(const ConfInterval &other) const;

    /** @return true if @p v lies within [lower, upper]. */
    bool contains(double v) const;
};

/**
 * Non-parametric CI for the median (paper Eq. 1-2):
 *   lower index = floor((n - z*sqrt(n)) / 2)
 *   upper index = ceil(1 + (n + z*sqrt(n)) / 2)
 * with 1-based indices into the sorted sample, clamped to [1, n].
 *
 * @param xs samples (any order).
 * @param level confidence level in (0,1); 0.95 uses z = 1.96.
 * @pre xs.size() >= 2
 */
ConfInterval nonparametricMedianCI(const std::vector<double> &xs,
                                   double level = 0.95);

/**
 * The paper's decision rule: "In order to be confident that a mean is
 * higher than another, their CI should not overlap."
 * @return +1 if a is confidently above b, -1 if confidently below,
 *         0 if the intervals overlap (no confident ordering).
 */
int confidentOrdering(const ConfInterval &a, const ConfInterval &b);

} // namespace stats
} // namespace tpv

#endif // TPV_STATS_CI_HH
