/**
 * @file
 * Fixed-size worker pool with a FIFO work queue, used by the sweep
 * engine to run independent simulations in parallel. Deliberately
 * minimal: no futures, no work stealing — callers own their result
 * slots and synchronise via wait(). A caller with nothing else to do
 * may drain the queue beside the workers (runOne()).
 */

#ifndef VSIM_BASE_THREAD_POOL_HH
#define VSIM_BASE_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vsim
{

class ThreadPool
{
  public:
    /** Spawn @p threads workers; values < 1 are clamped to 1. */
    explicit ThreadPool(int threads);

    /** Drains the queue, then joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Enqueue @p task for execution on some worker. Tasks must not
     * throw: exceptions have no thread to propagate to, so callers
     * capture errors into their own result slots.
     */
    void submit(std::function<void()> task);

    /** Block until every submitted task has finished running. */
    void wait();

    /**
     * Run the oldest queued task on the calling thread, as a worker
     * would. Returns false, running nothing, when no task is queued.
     */
    bool runOne();

    int threadCount() const { return static_cast<int>(workers.size()); }

    /** Hardware concurrency, with a floor of 1 when unknown. */
    static int defaultThreadCount();

    /**
     * 0-based index of the pool worker executing the caller, or -1
     * when called from a thread that is not a pool worker. Used by
     * the sweep engine to attribute trace spans to worker tracks.
     */
    static int currentWorkerIndex();

  private:
    void workerLoop(int index);
    /** Run @p task, taken off the queue, and account for its end. */
    void execute(std::function<void()> &task);

    std::vector<std::thread> workers;
    std::deque<std::function<void()>> queue;
    std::mutex mtx;
    std::condition_variable workReady; //!< queue non-empty or stopping
    std::condition_variable allIdle;   //!< queue empty and none running
    std::size_t running = 0;           //!< tasks currently executing
    bool stopping = false;
};

/**
 * Run task(0) .. task(n - 1) at once and return when every one has
 * finished: task(0) on the caller, each other task on a thread of its
 * own, so n == 1 starts no thread (and n < 1 runs nothing). Tasks may
 * throw: once all have finished, the exception of the lowest-numbered
 * task that threw is rethrown.
 */
void runConcurrently(int n, const std::function<void(int)> &task);

/**
 * Threads runConcurrently() has started in this process so far.
 * Read-only; tests use it to check that serial paths start none.
 */
std::uint64_t concurrentThreadsStarted();

} // namespace vsim

#endif // VSIM_BASE_THREAD_POOL_HH
