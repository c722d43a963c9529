/**
 * @file
 * Descriptive statistics over sample vectors.
 *
 * These helpers operate on plain std::vector<double> sample sets. The
 * experiments gather one sample per run (paper Section III, "IID
 * samples") and summarise with the functions here.
 */

#ifndef TPV_STATS_DESCRIPTIVE_HH
#define TPV_STATS_DESCRIPTIVE_HH

#include <cstddef>
#include <vector>

namespace tpv {
namespace stats {

/** Arithmetic mean. @pre !xs.empty() */
double mean(const std::vector<double> &xs);

/**
 * Sample standard deviation (n-1 denominator, Bessel-corrected),
 * matching what Jain's iteration formula (paper Eq. 3) expects.
 * @pre xs.size() >= 2
 */
double stdev(const std::vector<double> &xs);

/** Minimum value. @pre !xs.empty() */
double minValue(const std::vector<double> &xs);

/** Maximum value. @pre !xs.empty() */
double maxValue(const std::vector<double> &xs);

/**
 * Median (average of the two central order statistics for even n).
 * @pre !xs.empty()
 */
double median(const std::vector<double> &xs);

/**
 * Percentile via linear interpolation between closest ranks
 * (the "linear" / type-7 definition used by numpy.percentile, which
 * is what the paper's tooling reports for p99).
 * @param p percentile in [0, 100].
 * @pre !xs.empty()
 */
double percentile(const std::vector<double> &xs, double p);

/** Sorted copy of the input. */
std::vector<double> sorted(const std::vector<double> &xs);

/**
 * Non-owning view over an ALREADY SORTED sample vector: order
 * statistics without re-sorting. This is the sorted-once hot path —
 * a run's recorder sorts its samples one time and every percentile
 * and median reads from the same view, where the free functions
 * above each pay a copy + sort per call.
 *
 * The view keeps one definition of the interpolation rule: every
 * percentile in the tree, sorted-once or not, lands here.
 */
class SortedView
{
  public:
    /** @param sortedXs sample vector, ascending (asserted). Must
     *  outlive the view. */
    explicit SortedView(const std::vector<double> &sortedXs);

    std::size_t size() const { return xs_->size(); }
    bool empty() const { return xs_->empty(); }

    /** @pre !empty() */
    double min() const;
    /** @pre !empty() */
    double max() const;

    /** Linear-interpolation percentile, p in [0,100]. @pre !empty() */
    double percentile(double p) const;

    /** Median via the same interpolation rule. @pre !empty() */
    double median() const { return percentile(50.0); }

  private:
    const std::vector<double> *xs_;
};

/**
 * One-pass summary of a sample set. Convenient for run results where
 * we repeatedly need mean / p99 / stdev of the same vector.
 */
struct Summary
{
    std::size_t count = 0;
    double mean = 0;
    double stdev = 0;
    double min = 0;
    double max = 0;
    double median = 0;
    double p90 = 0;
    double p95 = 0;
    double p99 = 0;

    /** Build a summary from raw samples (empty input -> all zeros). */
    static Summary of(const std::vector<double> &xs);

    /**
     * Build a summary from samples that are ALREADY SORTED ascending
     * (e.g. a recorder's sorted-once cache) — no copy, no re-sort.
     */
    static Summary ofSorted(const std::vector<double> &sortedXs);
};

} // namespace stats
} // namespace tpv

#endif // TPV_STATS_DESCRIPTIVE_HH
