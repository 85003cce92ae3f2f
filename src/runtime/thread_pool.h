/**
 * @file
 * Fixed-size worker thread pool for the batch-execution runtime. Tasks
 * are plain callables invoked with the executing worker's index, so a
 * submitter can give each worker its own unlocked context (the
 * `SweepEngine` hands every worker a private `AnalysisManager`).
 *
 * `ThreadPool::Group` is a batch of tasks that can be waited on apart
 * from the rest of the pool's work: the `SweepEngine` runs each batch
 * as one group, so a long-lived pool (the service daemon's) can serve
 * many batches. A waiter helps execute its own queued tasks and never
 * sleeps while one of them is still queued, so groups also nest
 * without deadlock.
 */
#ifndef EFFACT_RUNTIME_THREAD_POOL_H
#define EFFACT_RUNTIME_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace effact {

/**
 * A fixed set of worker threads draining a FIFO task queue. Tasks must
 * not throw (the codebase reports errors through `panic`/`fatal`, which
 * abort the process from any thread). The destructor drains the queue
 * before joining, so a submitted task always runs.
 */
class ThreadPool
{
  public:
    /** Task signature: `worker` is the executing worker's index in
     *  `[0, threadCount())`, stable for that worker's lifetime. Tasks
     *  executed inline by a thread blocked in `Group::wait()` receive
     *  `threadCount()`, the same index for every waiting thread. */
    using Task = std::function<void(size_t worker)>;

    /**
     * Spawns `threads` workers (at least one). `maxQueued` bounds the
     * *queued* (not yet running) task count seen by `trySubmit`:
     * 0 = unbounded (the batch default), > 0 = admission control for
     * service owners. Plain `submit` ignores the bound — a group's
     * tasks must never be refused, or a half-submitted batch would
     * deadlock its own barrier.
     */
    explicit ThreadPool(size_t threads, size_t maxQueued = 0);

    /** Drains outstanding tasks, then joins every worker. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    size_t threadCount() const { return workers_.size(); }

    /** The `maxQueued` admission bound (0 = unbounded). */
    size_t maxQueued() const { return max_queued_; }

    /** Enqueues one task; runnable immediately by any idle worker. */
    void submit(Task task);

    /**
     * Bounded-admission enqueue: refuses (returns false, task not
     * enqueued) when the queue already holds `maxQueued()` tasks
     * (given a nonzero bound) or the pool is shutting down; otherwise
     * behaves exactly like `submit` and returns true. An accepted task
     * always runs, exactly once — `shutdown()` drains before joining.
     */
    bool trySubmit(Task task);

    /** Tasks currently queued (excluding running ones): the admission
     *  pressure `trySubmit` checks. A point-in-time reading. */
    size_t queueDepth() const;

    /**
     * Stops accepting new work, drains every already-accepted task,
     * and joins the workers. Idempotent; the destructor calls it.
     * After shutdown, `trySubmit` returns false (and `submit`
     * asserts). Safe to race with concurrent `trySubmit` calls: each
     * task is either refused or runs exactly once.
     */
    void shutdown();

    /** Blocks until every submitted task has finished executing
     *  (including tasks submitted through groups). Intended for the
     *  top-level owner; nested tasks use `Group::wait()`. */
    void wait();

    /**
     * A batch of related tasks that can be waited on independently of
     * the rest of the pool. Sub-tasks share the pool's queue and
     * workers; `wait()` *helps*: while its own tasks sit in the queue it
     * dequeues and runs them on the calling thread, and it only sleeps
     * when every remaining task of the group is already running on some
     * other thread. Safe to use from inside a pool task (nested
     * groups) and from external threads alike. Not thread-safe
     * itself: one thread drives a given group.
     */
    class Group
    {
      public:
        explicit Group(ThreadPool &pool) : pool_(pool) {}
        /** Waits for any stragglers (a submitted task always runs). */
        ~Group() { wait(); }

        Group(const Group &) = delete;
        Group &operator=(const Group &) = delete;

        /** Enqueues one task belonging to this group. */
        void submit(Task task);

        /**
         * Blocks until every task submitted to this group has finished,
         * executing queued group tasks inline while it waits. Tasks run
         * inline receive `threadCount()` as their worker index.
         */
        void wait();

      private:
        friend class ThreadPool;
        ThreadPool &pool_;
        size_t pending_ = 0; ///< queued + running, guarded by pool mu_
    };

  private:
    /** Queue entry: the task plus its owning group (null = top level) */
    struct Entry
    {
        Task task;
        Group *group = nullptr;
    };

    void workerLoop(size_t worker);
    /** Marks one task of `group` finished; wakes waiters. Caller holds
     *  `mu_`. */
    void finishTask(Group *group);

    std::vector<std::thread> workers_;
    std::deque<Entry> queue_;
    mutable std::mutex mu_;
    std::condition_variable work_ready_;
    std::condition_variable all_done_;
    std::condition_variable group_done_;
    size_t running_ = 0; ///< tasks currently executing
    size_t max_queued_ = 0; ///< `trySubmit` admission bound (0 = none)
    bool stopping_ = false;
    bool joined_ = false; ///< workers joined (shutdown ran to the end)
};

/**
 * Worker-count default for batch runs: the `EFFACT_THREADS` environment
 * variable when set to a positive integer, otherwise the hardware
 * concurrency (at least 1). `EFFACT_THREADS=1` selects the serial path.
 */
size_t defaultThreadCount();

} // namespace effact

#endif // EFFACT_RUNTIME_THREAD_POOL_H
