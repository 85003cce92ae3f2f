#include "runtime/thread_pool.h"

#include <cstdlib>
#include <string>

#include "common/logging.h"

namespace effact {

ThreadPool::ThreadPool(size_t threads, size_t maxQueued)
    : max_queued_(maxQueued)
{
    const size_t n = threads == 0 ? 1 : threads;
    workers_.reserve(n);
    for (size_t w = 0; w < n; ++w)
        workers_.emplace_back([this, w] { workerLoop(w); });
}

ThreadPool::~ThreadPool() { shutdown(); }

void
ThreadPool::shutdown()
{
    {
        std::unique_lock<std::mutex> lock(mu_);
        stopping_ = true;
        if (joined_)
            return;
        joined_ = true;
    }
    work_ready_.notify_all();
    // Workers drain the queue before exiting (workerLoop's
    // drain-before-stop check), so every accepted task has run by the
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
        queue_.push_back(Entry{std::move(task), nullptr});
    }
    work_ready_.notify_one();
}

bool
ThreadPool::trySubmit(Task task)
{
    EFFACT_ASSERT(task != nullptr, "null task submitted to thread pool");
    {
        std::unique_lock<std::mutex> lock(mu_);
        if (stopping_)
            return false;
        if (max_queued_ > 0 && queue_.size() >= max_queued_)
            return false;
        queue_.push_back(Entry{std::move(task), nullptr});
    }
    work_ready_.notify_one();
    return true;
}

size_t
ThreadPool::queueDepth() const
{
    std::unique_lock<std::mutex> lock(mu_);
    return queue_.size();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mu_);
    all_done_.wait(lock,
                   [this] { return queue_.empty() && running_ == 0; });
}

void
ThreadPool::finishTask(Group *group)
{
    --running_;
    if (group != nullptr) {
        EFFACT_ASSERT(group->pending_ > 0, "group task count underflow");
        if (--group->pending_ == 0)
            group_done_.notify_all();
    }
    if (queue_.empty() && running_ == 0)
        all_done_.notify_all();
}

void
ThreadPool::workerLoop(size_t worker)
{
    for (;;) {
        Entry entry;
        {
            std::unique_lock<std::mutex> lock(mu_);
            work_ready_.wait(
                lock, [this] { return stopping_ || !queue_.empty(); });
            // Drain-before-stop: shutdown only once the queue is empty.
            if (queue_.empty())
                return;
            entry = std::move(queue_.front());
            queue_.pop_front();
            ++running_;
        }
        entry.task(worker);
        {
            std::unique_lock<std::mutex> lock(mu_);
            finishTask(entry.group);
        }
    }
}

void
ThreadPool::Group::submit(Task task)
{
    EFFACT_ASSERT(task != nullptr, "null task submitted to task group");
    {
        std::unique_lock<std::mutex> lock(pool_.mu_);
        EFFACT_ASSERT(!pool_.stopping_, "submit after thread pool shutdown");
        pool_.queue_.push_back(Entry{std::move(task), this});
        ++pending_;
    }
    pool_.work_ready_.notify_one();
    // A waiter of this same group (possible when a group task fans out
    // further work into its own group) must notice the new queue entry.
    pool_.group_done_.notify_all();
}

void
ThreadPool::Group::wait()
{
    const size_t inline_index = pool_.threadCount();
    std::unique_lock<std::mutex> lock(pool_.mu_);
    while (pending_ > 0) {
        // Help: steal one of our own queued tasks and run it inline.
        auto it = pool_.queue_.begin();
        for (; it != pool_.queue_.end(); ++it)
            if (it->group == this)
                break;
        if (it != pool_.queue_.end()) {
            Entry entry = std::move(*it);
            pool_.queue_.erase(it);
            ++pool_.running_;
            lock.unlock();
            entry.task(inline_index);
            lock.lock();
            pool_.finishTask(this);
            continue;
        }
        // Every remaining task of this group is running on another
        // thread; sleep until one finishes (or new group work appears).
        pool_.group_done_.wait(lock, [this] {
            if (pending_ == 0)
                return true;
            for (const Entry &e : pool_.queue_)
                if (e.group == this)
                    return true;
            return false;
        });
    }
}

namespace {

size_t
envThreadCount(const char *name, size_t fallback)
{
    if (const char *env = std::getenv(name)) {
        char *end = nullptr;
        const long v = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && v > 0)
            return static_cast<size_t>(v);
        warn("ignoring invalid %s='%s' (want a positive integer)", name,
             env);
    }
    return fallback;
}

} // namespace

size_t
defaultThreadCount()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return envThreadCount("EFFACT_THREADS",
                          hw == 0 ? 1 : static_cast<size_t>(hw));
}

} // namespace effact
