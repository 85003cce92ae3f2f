/**
 * @file
 * Fixed-size worker thread pool for the batch-execution runtime. Tasks
 * are plain callables invoked with the executing worker's index.
 * `runSweep` sizes a private pool to each parallel batch and runs one
 * task per job.
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
     *  `[0, threadCount())`, stable for that worker's lifetime. */
    using Task = std::function<void(size_t worker)>;

    /** Spawns `threads` workers (at least one). */
    explicit ThreadPool(size_t threads);

    /** Drains outstanding tasks, then joins every worker. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    size_t threadCount() const { return workers_.size(); }

    /** Enqueues one task; runnable immediately by any idle worker. */
    void submit(Task task);

    /** Blocks until every submitted task has finished executing. */
    void wait();

  private:
    void workerLoop(size_t worker);

    std::vector<std::thread> workers_;
    std::deque<Task> queue_;
    std::mutex mu_;
    std::condition_variable work_ready_;
    std::condition_variable all_done_;
    size_t running_ = 0; ///< tasks currently executing
    bool stopping_ = false;
};

/**
 * Worker-count default for batch runs: the `EFFACT_THREADS` environment
 * variable when set to a positive integer (anything else warns and is
 * ignored), otherwise the hardware concurrency (at least 1).
 * `EFFACT_THREADS=1` selects the serial path.
 */
size_t defaultThreadCount();

} // namespace effact

#endif // EFFACT_RUNTIME_THREAD_POOL_H
