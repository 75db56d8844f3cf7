#include "thread_pool.hh"

#include <atomic>
#include <exception>

#include "logging.hh"

namespace vsim
{

namespace
{

thread_local int tlsWorkerIndex = -1;

std::atomic<std::uint64_t> threadsStarted{0};

} // namespace

ThreadPool::ThreadPool(int threads)
{
    const int n = threads < 1 ? 1 : threads;
    workers.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        workers.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mtx);
        stopping = true;
    }
    workReady.notify_all();
    for (std::thread &w : workers)
        w.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    VSIM_ASSERT(task, "submitting an empty task");
    {
        std::unique_lock<std::mutex> lock(mtx);
        VSIM_ASSERT(!stopping, "submit on a stopping pool");
        queue.push_back(std::move(task));
    }
    workReady.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mtx);
    allIdle.wait(lock, [this] { return queue.empty() && running == 0; });
}

bool
ThreadPool::runOne()
{
    std::function<void()> task;
    {
        std::unique_lock<std::mutex> lock(mtx);
        if (queue.empty())
            return false;
        task = std::move(queue.front());
        queue.pop_front();
        ++running;
    }
    execute(task);
    return true;
}

void
ThreadPool::execute(std::function<void()> &task)
{
    task();
    std::unique_lock<std::mutex> lock(mtx);
    --running;
    if (queue.empty() && running == 0)
        allIdle.notify_all();
}

int
ThreadPool::defaultThreadCount()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

int
ThreadPool::currentWorkerIndex()
{
    return tlsWorkerIndex;
}

void
ThreadPool::workerLoop(int index)
{
    tlsWorkerIndex = index;
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mtx);
            workReady.wait(
                lock, [this] { return stopping || !queue.empty(); });
            // Drain remaining work even when stopping so ~ThreadPool
            // leaves no submitted task unexecuted.
            if (queue.empty())
                return;
            task = std::move(queue.front());
            queue.pop_front();
            ++running;
        }
        execute(task);
    }
}

void
runConcurrently(int n, const std::function<void(int)> &task)
{
    if (n < 1)
        return;
    const std::size_t count = static_cast<std::size_t>(n);
    std::vector<std::exception_ptr> errors(count);
    auto guarded = [&](std::size_t i) {
        try {
            task(static_cast<int>(i));
        } catch (...) {
            errors[i] = std::current_exception();
        }
    };
    std::vector<std::thread> threads;
    threads.reserve(count - 1);
    try {
        for (std::size_t i = 1; i < count; ++i) {
            threads.emplace_back(guarded, i);
            threadsStarted.fetch_add(1, std::memory_order_relaxed);
        }
    } catch (...) {
        // Could not start them all: join the ones that did start.
        for (std::thread &t : threads)
            t.join();
        throw;
    }
    guarded(0);
    for (std::thread &t : threads)
        t.join();
    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);
}

std::uint64_t
concurrentThreadsStarted()
{
    return threadsStarted.load(std::memory_order_relaxed);
}

} // namespace vsim
