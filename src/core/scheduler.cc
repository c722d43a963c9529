#include "core/scheduler.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "sim/logging.hh"
#include "sim/thread_pool.hh"

namespace tpv {
namespace core {

namespace {

/**
 * True while this thread is executing a task body. A nested forEach()
 * from inside a task runs inline-serial instead of taking more pool
 * workers, which keeps the nested results deterministic. Only forEach
 * applies this rule: a partitioned run inside a task still gets its
 * crew from the pool.
 */
thread_local bool insideTask = false;

} // namespace

Scheduler::Scheduler(int parallelism) : workers_(parallelism)
{
    if (workers_ <= 0)
        workers_ = static_cast<int>(std::thread::hardware_concurrency());
    if (workers_ < 1)
        workers_ = 1;
}

void
Scheduler::forEach(std::size_t n,
                   const std::function<void(std::size_t)> &body) const
{
    TPV_ASSERT(body != nullptr, "scheduler needs a task body");
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex errorMutex;
    std::exception_ptr error;
    const auto work = [&](int) {
        const bool outer = insideTask;
        insideTask = true;
        for (std::size_t task = next++;
             task < n && !failed.load(std::memory_order_relaxed);
             task = next++) {
            try {
                body(task);
            } catch (...) {
                std::lock_guard<std::mutex> lock(errorMutex);
                if (!error)
                    error = std::current_exception();
                failed.store(true, std::memory_order_relaxed);
            }
        }
        insideTask = outer;
    };
    const std::size_t width =
        insideTask ? 1
                   : std::min(n, static_cast<std::size_t>(workers_));
    ThreadPool::instance().run(static_cast<int>(width), work);
    if (error)
        std::rethrow_exception(error);
}

} // namespace core
} // namespace tpv
