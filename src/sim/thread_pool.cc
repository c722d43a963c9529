#include "sim/thread_pool.hh"

#include <thread>

namespace tpv {

ThreadPool &
ThreadPool::instance()
{
    // Intentionally leaked: workers are detached, so a static
    // destructor would tear the mutex/condvars down under threads
    // still parked on them and wedge process exit.
    static ThreadPool *pool = new ThreadPool;
    return *pool;
}

void
ThreadPool::run(int members, const std::function<void(int)> &job)
{
    if (members <= 1) {
        job(0);
        return;
    }
    // All access to remaining is under mutex_, so the caller never
    // sees 0 while a worker still touches it.
    int remaining = members - 1;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (int m = 1; m < members; ++m)
            jobs_.push_back(Job{&job, m, &remaining});
        while (idle_ < jobs_.size()) {
            ++spawned_;
            ++idle_; // counts as idle until it takes its first job
            std::thread([this] { workerLoop(); }).detach();
        }
    }
    for (int m = 1; m < members; ++m)
        workCv_.notify_one();

    job(0);

    std::unique_lock<std::mutex> lock(mutex_);
    doneCv_.wait(lock, [&remaining] { return remaining == 0; });
}

std::size_t
ThreadPool::threadsSpawned() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spawned_;
}

void
ThreadPool::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        workCv_.wait(lock, [this] { return !jobs_.empty(); });
        const Job job = jobs_.back();
        jobs_.pop_back();
        --idle_;
        lock.unlock();
        (*job.fn)(job.member);
        lock.lock();
        ++idle_;
        if (--*job.remaining == 0)
            doneCv_.notify_all();
    }
}

} // namespace tpv
