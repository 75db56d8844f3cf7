/**
 * @file
 * Parallel sweep engine. Every figure and ablation in the
 * reproduction is a cross-product of (workload × machine × model ×
 * confidence/timing) whose cells are completely independent
 * simulations; the SweepRunner executes such a declarative job list
 * on a fixed-size worker pool and returns results in job order, so
 * callers get the throughput of the hardware with the output of the
 * serial loop.
 *
 * Determinism: each simulation owns all of its state (core, caches,
 * predictors, RNG), so an N-thread sweep is bit-identical to the
 * serial sweep — results depend only on the job, never on scheduling.
 * That leaves the runner free to choose the order of starts: it builds
 * each kernel once per sweep and starts the heaviest cells first (see
 * SweepRunner::run).
 *
 * The process-wide RunCache memoises finished runs by a canonical
 * fingerprint of (workload, scale, full CoreConfig); it also dedupes
 * *in-flight* runs, so two workers asking for the same cell simulate
 * it once and share the result.
 */

#ifndef VSIM_SIM_SWEEP_HH
#define VSIM_SIM_SWEEP_HH

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "simulator.hh"

namespace vsim::sim
{

class DiskRunCache; // disk_cache.hh

/** One cell of a sweep: a workload run under one configuration. */
struct SweepJob
{
    std::string label; //!< caller tag, carried into tables/JSON/CSV
    std::string workload;
    int scale = -1; //!< -1 = per-workload default
    core::CoreConfig cfg;
};

/**
 * Canonical fingerprint of the *simulation inputs* of a job (workload,
 * scale, every timing-relevant CoreConfig field, plus the
 * metrics-interval setting, whose time series rides in the
 * RunResult). Two jobs with equal keys produce bit-identical
 * RunResults; the label is excluded.
 */
std::string jobKey(const SweepJob &job);

/**
 * Execution record of one sweep cell: which worker ran it, when it
 * was submitted / started / finished (nanoseconds relative to the
 * start of SweepRunner::run), and whether the run cache satisfied it
 * without simulating. Feeds the Perfetto trace export
 * (sweepTraceJson in report.hh).
 */
struct JobSpan
{
    std::size_t index = 0; //!< position in the job list
    std::string label;
    std::string workload;
    int worker = 0; //!< 0-based pool worker; -1 = caller thread
    std::uint64_t submitNs = 0;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    bool cacheHit = false;
};

/** Thread-safe memoizing cache of finished (and in-flight) runs. */
class RunCache
{
  public:
    RunCache() = default;
    RunCache(const RunCache &) = delete;
    RunCache &operator=(const RunCache &) = delete;

    /** The process-wide instance shared by every driver. */
    static RunCache &process();

    /**
     * Return the cached result for @p job, or simulate it (running at
     * most once per key even under concurrent callers — late arrivals
     * block on the in-flight run). Lookup order is memory → attached
     * disk store → simulate. Errors are rethrown to every caller
     * blocked on the failing key, and the key itself is released —
     * a failure is never memoized, so a later retry simulates again.
     * When @p cache_hit is non-null it is set to whether the run was
     * satisfied without simulating (a blocking wait on an in-flight
     * run and a disk-store hit both count).
     */
    RunResult getOrRun(const SweepJob &job, bool *cache_hit = nullptr);

    /**
     * True when the memory tier (a run in flight included) or the
     * attached disk store holds @p key. A planning hint, not a lookup:
     * a disk entry that load() would reject still answers true, and
     * getOrRun stays the authority on hits.
     */
    bool probe(const std::string &key) const;

    /**
     * Attach a persistent disk store (nullptr detaches). Subsequent
     * misses consult the store before simulating and write their
     * results back to it.
     */
    void attachDisk(std::shared_ptr<DiskRunCache> disk);
    std::shared_ptr<DiskRunCache> disk() const;

    std::uint64_t hits() const;
    std::uint64_t misses() const;
    /** Misses satisfied from the attached disk store. */
    std::uint64_t diskHits() const;
    std::size_t size() const;
    void clear();

  private:
    mutable std::mutex mtx;
    std::map<std::string, std::shared_future<RunResult>> entries;
    std::shared_ptr<DiskRunCache> diskCache;
    std::uint64_t nHits = 0;
    std::uint64_t nMisses = 0;
    std::uint64_t nDiskHits = 0;
};

/** Executes job lists on a worker pool, memoizing through a RunCache. */
class SweepRunner
{
  public:
    /**
     * @param jobs   worker threads; <= 1 runs serially on the caller's
     *               thread. The default is one per hardware thread.
     * @param cache  run cache to memoize through (default: the
     *               process-wide cache); nullptr disables memoization.
     */
    explicit SweepRunner(int jobs = defaultJobs(),
                         RunCache *cache = &RunCache::process());

    /**
     * Run every job, in parallel up to the worker count, and return
     * results indexed exactly like @p jobs whatever the order of
     * starts and completions. One plan serves the serial and the
     * pooled runner:
     *
     *  1. probe each job's key against the cache's memory and disk
     *     tiers (RunCache::probe; "trace:" jobs are not probed);
     *  2. build each distinct built-in kernel of the unanswered jobs
     *     once through sharedKernel, as pool tasks, and pin it;
     *  3. start trace and answered jobs first, in list order, then the
     *     rest heaviest first by kernel dynamic length x window size
     *     (a stable sort: ties keep list order);
     *  4. drop a kernel's pin when its last job finishes.
     *
     * Every unanswered kernel is live at once from step 2 on. If any
     * job fails, every other job still runs, and the error of the
     * earliest-listed failing job is rethrown at the end.
     */
    std::vector<RunResult> run(const std::vector<SweepJob> &jobs);

    int jobCount() const { return nJobs; }

    /**
     * Emit one atomic "[k/N] label (workload)" stderr line per
     * finished job (completion order, "[cached]" suffix on cache
     * hits). Off by default; simulation results are unaffected.
     */
    void setProgress(bool on) { progress = on; }

    /**
     * Record one JobSpan per job into @p sink (cleared and resized by
     * run()). nullptr (the default) disables span collection and its
     * clock reads.
     */
    void setSpanSink(std::vector<JobSpan> *sink) { spans = sink; }

    /** Default worker count: one per hardware thread. */
    static int defaultJobs();

  private:
    RunResult runOne(const SweepJob &job, bool *cache_hit);

    int nJobs;
    RunCache *cache;
    bool progress = false;
    std::vector<JobSpan> *spans = nullptr;
};

// ---- shared sweep vocabulary ------------------------------------------

/** The suite (8 workloads), or the 3-workload smoke set if @p quick. */
std::vector<std::string> sweepWorkloads(bool quick);

struct SweepOptions; // below

/**
 * The workload list a named sweep should iterate: the explicit
 * override list (e.g. "trace:<path>" entries from --trace) when
 * non-empty, else the built-in suite per @p opt.quick.
 */
std::vector<std::string> sweepWorkloads(const SweepOptions &opt);

/** The paper's machine grid, or just the 8/48 machine if @p quick. */
std::vector<MachineConfig> sweepMachines(bool quick);

/** Human-readable configuration tag: "base" or "<model> <D/R>". */
std::string configLabel(const core::CoreConfig &cfg);

// ---- named sweeps: the paper's figures (figures.cc) -------------------

struct SweepOptions
{
    bool quick = false;
    int scale = -1;
    /**
     * When non-empty, replaces the built-in workload suite in every
     * named sweep — the vehicle for sweeping recorded traces
     * ("trace:<path>" names) through any figure's configuration grid.
     */
    std::vector<std::string> workloads;
};

/**
 * A named, reusable job list (one per figure/ablation) and the table
 * the paper shows for it.
 */
struct NamedSweep
{
    std::string name;
    std::string description;
    std::function<std::vector<SweepJob>(const SweepOptions &)> build;
    /**
     * The figure's table from the jobs of build(opt) as they ran (a
     * tool may have overridden their configurations) and their
     * results, both in job order; empty for a sweep with no figure
     * (base). Every machine and model the table names is read from the
     * configuration its jobs ran.
     */
    std::function<std::string(const SweepOptions &,
                              const std::vector<SweepJob> &,
                              const std::vector<RunResult> &)>
        render;
};

/** Registry of the built-in sweeps. */
const std::vector<NamedSweep> &namedSweeps();

/** Look up a named sweep; VSIM_FATAL on unknown names. */
const NamedSweep &sweepByName(const std::string &name);

} // namespace vsim::sim

#endif // VSIM_SIM_SWEEP_HH
