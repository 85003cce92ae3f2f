#include "runtime/thread_pool.h"

#include "common/env.h"
#include "common/logging.h"

namespace effact {

ThreadPool::ThreadPool(size_t threads)
{
    const size_t n = threads == 0 ? 1 : threads;
    workers_.reserve(n);
    for (size_t w = 0; w < n; ++w)
        workers_.emplace_back([this, w] { workerLoop(w); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mu_);
        stopping_ = true;
    }
    work_ready_.notify_all();
    // Workers drain the queue before exiting (workerLoop's
    // drain-before-stop check), so every submitted task has run by the
    // time the joins return.
    for (std::thread &worker : workers_)
        worker.join();
}

void
ThreadPool::submit(Task task)
{
    EFFACT_ASSERT(task != nullptr, "null task submitted to thread pool");
    {
        std::unique_lock<std::mutex> lock(mu_);
        EFFACT_ASSERT(!stopping_, "submit after thread pool shutdown");
        queue_.push_back(std::move(task));
    }
    work_ready_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mu_);
    all_done_.wait(lock,
                   [this] { return queue_.empty() && running_ == 0; });
}

void
ThreadPool::workerLoop(size_t worker)
{
    for (;;) {
        Task task;
        {
            std::unique_lock<std::mutex> lock(mu_);
            work_ready_.wait(
                lock, [this] { return stopping_ || !queue_.empty(); });
            // Drain-before-stop: shutdown only once the queue is empty.
            if (queue_.empty())
                return;
            task = std::move(queue_.front());
            queue_.pop_front();
            ++running_;
        }
        task(worker);
        {
            std::unique_lock<std::mutex> lock(mu_);
            if (--running_ == 0 && queue_.empty())
                all_done_.notify_all();
        }
    }
}

size_t
defaultThreadCount()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return envSize("EFFACT_THREADS", hw == 0 ? 1 : static_cast<size_t>(hw));
}

} // namespace effact
