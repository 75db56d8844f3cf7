#include "sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <sstream>
#include <utility>

#include "disk_cache.hh"
#include "shard.hh"
#include "vsim/base/logging.hh"
#include "vsim/base/thread_pool.hh"
#include "vsim/trace/trace_io.hh"

namespace vsim::sim
{

namespace
{

void
keyCache(std::ostringstream &os, const mem::CacheConfig &c)
{
    os << c.sizeBytes << '/' << c.assoc << '/' << c.blockBytes << ';';
}

} // namespace

std::string
jobKey(const SweepJob &job)
{
    const core::CoreConfig &c = job.cfg;
    const core::SpecModel &m = c.model;
    std::ostringstream os;
    // Workload identity. A trace workload's identity is its content,
    // not its path: the same path can hold a different recording
    // across tool invocations, so the key carries the file's hash
    // (memoised per path and file identity, so a file re-recorded in
    // place while the process lives is hashed again), digested on the
    // workers the run loads it on.
    os << job.workload << '@' << job.scale;
    if (isTraceWorkload(job.workload)) {
        os << '#' << std::hex
           << trace::traceFileHash(traceWorkloadPath(job.workload),
                                   shardWorkers(c))
           << std::dec;
    }
    os << ';';
    // Machine.
    os << c.issueWidth << '/' << c.windowSize << '/' << c.fetchWidth
       << '/' << c.retireWidth << '/' << c.dcachePorts << ';';
    // Value speculation. The model's cosmetic name is excluded: two
    // models with equal variables produce bit-identical runs.
    os << c.useValuePrediction << ';' << c.valuePredictor << ';'
       << static_cast<int>(c.confidence) << '/' << c.confidenceBits
       << '/' << c.confidenceTableBits << '/' << c.confidenceThreshold
       << ';'
       << static_cast<int>(c.updateTiming) << ';';
    os << m.execToEquality << ',' << m.equalityToInvalidate << ','
       << m.equalityToVerify << ',' << m.verifyToFreeResource << ','
       << m.invalidateToReissue << ',' << m.verifyToBranch << ','
       << m.verifyAddrToMem << ',' << static_cast<int>(m.verifyScheme)
       << ',' << static_cast<int>(m.invalScheme) << ','
       << static_cast<int>(m.selectPolicy) << ','
       << m.branchNeedsValidOps << ',' << m.memNeedsValidOps << ';';
    // Front end and memory hierarchy.
    os << c.branchPredictor << ';';
    keyCache(os, c.icache);
    keyCache(os, c.dcache);
    keyCache(os, c.l2cache);
    os << c.icacheHitLat << ',' << c.dcacheHitLat << ',' << c.l2HitLat
       << ',' << c.l2MissLat << ',' << c.storeForwardLat << ';';
    // Functional units and run control.
    os << c.aluLat << ',' << c.mulLat << ',' << c.divLat << ';'
       << c.maxCycles << ';';
    // Observability settings that shape the RunResult (the interval
    // series is part of the memoized value). traceRetain and
    // tracePipeline stay out: they never reach a cached result.
    // sweepKind (like scheduler) stays out too: sparse and dense
    // sweeps produce bit-identical stats, so either may serve a
    // cached result for the other.
    os << c.metricsInterval << ',' << c.specLedger;
    // Sharding: interval partition and warmup depth change the merged
    // statistics (exactly reproducible only at full warmup), so they
    // are part of the key; shardJobs (an execution resource, like
    // scheduler) stays out.
    os << ';' << c.shards << ',' << c.intervalInsts << ','
       << c.warmupInsts;
    // Sampled replay: the phase budget and interval length define the
    // clustering, so both are part of the key (sampled statistics
    // approximate the monolithic run and must never serve it).
    os << ',' << c.sampleK << ',' << c.sampleIntervalInsts;
    return os.str();
}

RunCache &
RunCache::process()
{
    static RunCache cache;
    return cache;
}

RunResult
RunCache::getOrRun(const SweepJob &job, bool *cache_hit)
{
    const std::string key = jobKey(job);
    std::promise<RunResult> promise;
    std::shared_future<RunResult> future;
    std::shared_ptr<DiskRunCache> dsk;
    bool owner = false;
    {
        std::unique_lock<std::mutex> lock(mtx);
        auto it = entries.find(key);
        if (it != entries.end()) {
            ++nHits;
            future = it->second;
        } else {
            future = promise.get_future().share();
            entries.emplace(key, future);
            owner = true;
            dsk = diskCache;
        }
    }
    bool from_disk = false;
    if (owner) {
        try {
            RunResult result;
            from_disk = dsk && dsk->load(key, result);
            if (!from_disk)
                result = runWorkload(job.workload, job.scale, job.cfg);
            promise.set_value(std::move(result));
            {
                std::unique_lock<std::mutex> lock(mtx);
                if (from_disk)
                    ++nDiskHits;
                else
                    ++nMisses;
            }
            if (!from_disk && dsk)
                dsk->store(key, future.get());
        } catch (...) {
            // Release every waiter with the error, then drop the
            // entry: a failure is never memoized, so a retried key
            // simulates again instead of replaying the exception.
            promise.set_exception(std::current_exception());
            std::unique_lock<std::mutex> lock(mtx);
            ++nMisses;
            entries.erase(key);
        }
    }
    if (cache_hit)
        *cache_hit = !owner || from_disk;
    return future.get(); // rethrows the run's error, if any
}

bool
RunCache::probe(const std::string &key) const
{
    std::shared_ptr<DiskRunCache> dsk;
    {
        std::unique_lock<std::mutex> lock(mtx);
        if (entries.count(key))
            return true;
        dsk = diskCache;
    }
    return dsk && dsk->contains(key);
}

void
RunCache::attachDisk(std::shared_ptr<DiskRunCache> disk)
{
    std::unique_lock<std::mutex> lock(mtx);
    diskCache = std::move(disk);
}

std::shared_ptr<DiskRunCache>
RunCache::disk() const
{
    std::unique_lock<std::mutex> lock(mtx);
    return diskCache;
}

std::uint64_t
RunCache::hits() const
{
    std::unique_lock<std::mutex> lock(mtx);
    return nHits;
}

std::uint64_t
RunCache::misses() const
{
    std::unique_lock<std::mutex> lock(mtx);
    return nMisses;
}

std::uint64_t
RunCache::diskHits() const
{
    std::unique_lock<std::mutex> lock(mtx);
    return nDiskHits;
}

std::size_t
RunCache::size() const
{
    std::unique_lock<std::mutex> lock(mtx);
    return entries.size();
}

void
RunCache::clear()
{
    std::unique_lock<std::mutex> lock(mtx);
    entries.clear();
    nHits = 0;
    nMisses = 0;
    nDiskHits = 0;
}

SweepRunner::SweepRunner(int jobs, RunCache *cache)
    : nJobs(jobs < 1 ? 1 : jobs), cache(cache)
{
}

int
SweepRunner::defaultJobs()
{
    return ThreadPool::defaultThreadCount();
}

RunResult
SweepRunner::runOne(const SweepJob &job, bool *cache_hit)
{
    if (cache)
        return cache->getOrRun(job, cache_hit);
    if (cache_hit)
        *cache_hit = false;
    return runWorkload(job.workload, job.scale, job.cfg);
}

namespace
{

/** Completion-order progress line: "[k/N] label (workload)". */
void
progressLine(std::atomic<std::size_t> &done, std::size_t total,
             const SweepJob &job, bool cached)
{
    std::ostringstream os;
    os << "[" << done.fetch_add(1) + 1 << "/" << total << "] "
       << job.label << " (" << job.workload << ")";
    if (cached)
        os << " [cached]";
    logLine(os.str());
}

/**
 * A built-in kernel shared by the unanswered cells of one sweep: the
 * sweep's strong reference to it, and how many of those cells have
 * yet to finish.
 */
struct KernelPin
{
    std::shared_ptr<const BuiltKernel> kernel; //!< null if the build failed
    std::size_t cellsLeft = 0;
};

} // namespace

std::vector<RunResult>
SweepRunner::run(const std::vector<SweepJob> &jobs)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point epoch = Clock::now();
    const auto now_ns = [epoch] {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - epoch)
                .count());
    };

    std::vector<RunResult> results(jobs.size());
    std::vector<std::exception_ptr> errors(jobs.size());
    if (spans) {
        spans->clear();
        spans->resize(jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            JobSpan &sp = (*spans)[i];
            sp.index = i;
            sp.label = jobs[i].label;
            sp.workload = jobs[i].workload;
        }
    }
    std::atomic<std::size_t> done{0};

    // Probe. Trace cells and the cells a cache tier already answers
    // start first, in list order. A trace cell loads its own .vst, so
    // it is neither probed (its key hashes the file) nor pinned; every
    // other cell pins its (workload, scale) kernel.
    std::vector<std::size_t> order, rest;
    std::map<std::pair<std::string, int>, KernelPin> pins;
    std::vector<KernelPin *> pinOf(jobs.size(), nullptr);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const SweepJob &job = jobs[i];
        if (isTraceWorkload(job.workload)
            || (cache && cache->probe(jobKey(job)))) {
            order.push_back(i);
            continue;
        }
        pinOf[i] = &pins[{job.workload, job.scale}];
        ++pinOf[i]->cellsLeft;
        rest.push_back(i);
    }

    std::mutex pinMutex;
    auto runCell = [&](std::size_t i) {
        JobSpan *sp = spans ? &(*spans)[i] : nullptr;
        if (sp) {
            sp->worker = ThreadPool::currentWorkerIndex();
            sp->startNs = now_ns();
        }
        bool cached = false;
        try {
            results[i] = runOne(jobs[i], &cached);
        } catch (...) {
            errors[i] = std::current_exception();
        }
        if (sp) {
            sp->endNs = now_ns();
            sp->cacheHit = cached;
        }
        if (progress)
            progressLine(done, jobs.size(), jobs[i], cached);
        if (!pinOf[i])
            return;
        // The kernel's last cell drops the sweep's pin (outside the
        // lock); the kernel itself goes with its last holder.
        std::shared_ptr<const BuiltKernel> unpinned;
        std::lock_guard<std::mutex> lock(pinMutex);
        if (--pinOf[i]->cellsLeft == 0)
            unpinned = std::move(pinOf[i]->kernel);
    };

    // Declared after everything its tasks use, so that an exception
    // on the caller drains and joins it before those go away.
    std::optional<ThreadPool> pool;
    if (nJobs > 1 && jobs.size() > 1)
        pool.emplace(std::min<int>(nJobs, static_cast<int>(jobs.size())));
    auto spawn = [&pool](std::function<void()> task) {
        if (pool)
            pool->submit(std::move(task));
        else
            task();
    };

    // Build each pinned kernel once, through the shared memo. A failed
    // build leaves its pin empty: each of its cells meets the error
    // again through getOrRun, which stays the authority, and fails on
    // its own.
    for (auto &[key, pin] : pins) {
        spawn([&key, &pin] {
            try {
                pin.kernel = sharedKernel(key.first, key.second);
            } catch (...) {
            }
        });
    }
    if (pool)
        pool->wait();

    // Dispatch the pinned cells heaviest first, by kernel dynamic
    // length x window size; the stable sort keeps ties in list order.
    std::vector<std::uint64_t> cost(jobs.size(), 0);
    for (std::size_t i : rest) {
        if (const auto &k = pinOf[i]->kernel)
            cost[i] = k->trace.entries.size()
                      * static_cast<std::uint64_t>(jobs[i].cfg.windowSize);
    }
    std::stable_sort(rest.begin(), rest.end(),
                     [&cost](std::size_t a, std::size_t b) {
                         return cost[a] > cost[b];
                     });
    order.insert(order.end(), rest.begin(), rest.end());
    for (std::size_t i : order) {
        if (spans)
            (*spans)[i].submitNs = now_ns();
        spawn([&runCell, i] { runCell(i); });
    }
    if (pool)
        pool->wait();

    for (const std::exception_ptr &err : errors) {
        if (err)
            std::rethrow_exception(err);
    }
    return results;
}

} // namespace vsim::sim
