/**
 * @file
 * Bag-of-tasks execution for studies on the process-wide ThreadPool.
 *
 * The paper's methodology multiplies work three ways — configurations
 * x load points x 50 iid repetitions — and every task is an
 * independent simulation. Instead of fanning out per cell (which
 * serialises across cells and leaves workers idle at each cell's
 * tail), the scheduler executes one flat bag of (config, qps,
 * repetition) tasks: every worker claims the next unclaimed task
 * index from one shared counter until the bag is empty. Results are
 * written to pre-sized slots keyed by task index, so the outcome is
 * bit-identical at any parallelism level.
 *
 * Workers come from sim/thread_pool.hh, whose threads park between
 * batches, so studies made of many small cells (Table IV-style
 * iteration sweeps) pay no thread-spawn cost per forEach() call.
 * Constructing a Scheduler is free: it only records the requested
 * width.
 */

#ifndef TPV_CORE_SCHEDULER_HH
#define TPV_CORE_SCHEDULER_HH

#include <cstddef>
#include <cstdint>
#include <functional>

namespace tpv {
namespace core {

/**
 * Seed for repetition @p rep of a study with base seed @p baseSeed.
 * Widely spaced (golden-ratio stride); SplitMix scrambling in Rng
 * makes adjacent seeds independent anyway. Every execution path —
 * per-cell runMany() and full-grid sweepAxis() — derives seeds through
 * this single function, so results depend only on (baseSeed, rep),
 * never on which worker ran the task or how wide the pool was.
 */
inline std::uint64_t
deriveRunSeed(std::uint64_t baseSeed, int rep)
{
    return baseSeed +
           0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(rep + 1);
}

/**
 * A bag-of-tasks executor over the shared ThreadPool.
 *
 * Usage: construct with the desired width, then forEach(n, body)
 * executes body(0..n-1) on min(width, n) workers and blocks until
 * every task finished. The calling thread participates as worker 0,
 * so parallelism 1 runs inline, in index order, without touching the
 * pool.
 *
 * Exceptions: the first exception thrown by any task is captured,
 * remaining tasks are abandoned, and the exception is rethrown to the
 * caller of forEach() once every worker has stopped.
 */
class Scheduler
{
  public:
    /** @param parallelism worker count; 0 = hardware concurrency. */
    explicit Scheduler(int parallelism = 0);

    /** Resolved worker count (>= 1). */
    int workers() const { return workers_; }

    /**
     * Run body(i) for every i in [0, n), distributed over the pool.
     * Blocks until all tasks completed (or one threw). A forEach()
     * called from inside a task runs its bag inline-serially.
     */
    void forEach(std::size_t n,
                 const std::function<void(std::size_t)> &body) const;

  private:
    int workers_;
};

} // namespace core
} // namespace tpv

#endif // TPV_CORE_SCHEDULER_HH
