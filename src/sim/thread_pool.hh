/**
 * @file
 * The process-wide pool of parked worker threads: the one place tpv
 * starts threads. Study grids (core::Scheduler::forEach) and the
 * window crew of a partitioned run (PartitionedEngine::runUntil) both
 * fork-join on it.
 */

#ifndef TPV_SIM_THREAD_POOL_HH
#define TPV_SIM_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <vector>

namespace tpv {

/**
 * Workers are spawned lazily, park on a condition variable between
 * jobs and live for the rest of the process. A posted job never waits
 * in a queue: posting spawns workers until the workers not executing a
 * job cover every queued job. Crew members rendezvous at window
 * barriers, so a member queued behind a running job while its
 * crewmates spin would deadlock the run; the same rule gives a crew
 * started inside a grid task, and batches submitted by different
 * threads at once, their own workers. The pool therefore grows to the
 * widest concurrent demand, grid workers and crew members together,
 * and never shrinks.
 */
class ThreadPool
{
  public:
    /** The shared process-wide instance. */
    static ThreadPool &instance();

    /**
     * Run job(1) ... job(members - 1) on pool workers and job(0) on
     * the calling thread; return once every member has returned.
     * members <= 1 runs job(0) inline without touching the pool.
     * @p job must not throw.
     */
    void run(int members, const std::function<void(int)> &job);

    /** Workers spawned so far, process-wide (grows to the widest
     *  concurrent demand, then stays flat: the no-churn tests and
     *  bench/hotpath's exit gate pin this across warm batches). */
    std::size_t threadsSpawned() const;

  private:
    struct Job
    {
        const std::function<void(int)> *fn;
        int member;
        /** The posting run()'s count of members still on workers. */
        int *remaining;
    };

    ThreadPool() = default;

    void workerLoop();

    mutable std::mutex mutex_;
    std::condition_variable workCv_;
    std::condition_variable doneCv_;
    /** Queued jobs; taken in any order, since each has its own
     *  worker by the idle_ invariant. */
    std::vector<Job> jobs_;
    /** Workers not executing a job (parked or on their way to park);
     *  run() keeps idle_ >= jobs_.size(). */
    std::size_t idle_ = 0;
    std::size_t spawned_ = 0;
};

} // namespace tpv

#endif // TPV_SIM_THREAD_POOL_HH
