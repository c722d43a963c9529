/**
 * @file
 * Streaming quantile estimation for adaptive policies.
 *
 * Hedging "at the observed p95" needs a per-tier tail estimate that
 * updates per reply with O(1) work and O(1) memory — sorting the
 * sample history per query would put an O(n log n) step on the
 * scatter-gather hot path. The P² algorithm (Jain & Chlamtac, CACM
 * 1985) keeps five markers that track the target quantile and its
 * neighbourhood, adjusting marker heights by a piecewise-parabolic
 * fit as observations stream in. It is deterministic — same
 * observation sequence, same estimate — which keeps adaptive hedging
 * inside the repo's bit-identical-grids guarantee.
 */

#ifndef TPV_STATS_STREAMING_QUANTILE_HH
#define TPV_STATS_STREAMING_QUANTILE_HH

#include <cstdint>

namespace tpv {
namespace stats {

/**
 * P^2 estimator of a single quantile over a stream of observations.
 * Exact for the first five observations; afterwards the classic
 * five-marker update. No allocation, no history.
 */
class StreamingQuantile
{
  public:
    /** @param q target quantile in (0, 1), e.g. 0.95. */
    explicit StreamingQuantile(double q);

    /** Fold one observation into the estimate. */
    void observe(double x);

    /**
     * Current estimate of the target quantile. With fewer than five
     * observations, the max seen so far (a conservative stand-in for
     * an upper quantile).
     */
    double estimate() const;

    /** Observations folded in so far. */
    std::uint64_t count() const { return count_; }


  private:
    double q_;
    std::uint64_t count_ = 0;
    /** Marker heights (sorted observations while count_ < 5). */
    double heights_[5] = {0, 0, 0, 0, 0};
    /** Actual marker positions (1-based ranks). */
    double positions_[5] = {1, 2, 3, 4, 5};
    /** Desired marker positions. */
    double desired_[5] = {1, 2, 3, 4, 5};
    /** Desired-position increments per observation. */
    double increments_[5] = {0, 0, 0, 0, 0};
};

} // namespace stats
} // namespace tpv

#endif // TPV_STATS_STREAMING_QUANTILE_HH
