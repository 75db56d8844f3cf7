/**
 * @file
 * Tests for the parallel sweep engine: thread-pool behaviour, job
 * fingerprinting, serial-vs-parallel bit-identical results,
 * deterministic ordering under many workers, the sweep plan (cache
 * probe, one build per kernel, heaviest-first dispatch, pin release),
 * run-cache memoization (including in-flight dedupe), JSON/CSV
 * emission, and the named sweep registry and its figure renderers.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "vsim/base/logging.hh"
#include "vsim/base/random.hh"
#include "vsim/base/state_io.hh"
#include "vsim/base/thread_pool.hh"
#include "vsim/sim/disk_cache.hh"
#include "vsim/sim/report.hh"
#include "vsim/sim/simulator.hh"
#include "vsim/sim/sweep.hh"

namespace
{

using namespace vsim;
using core::ConfidenceKind;
using core::SpecModel;
using core::UpdateTiming;

// ---- thread pool ------------------------------------------------------

TEST(ThreadPool, RunsEveryTask)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIsReusable)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
    pool.submit([&count] { ++count; });
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, DestructorDrainsQueue)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(1);
        for (int i = 0; i < 50; ++i)
            pool.submit([&count] { ++count; });
        // No wait(): the destructor must still run everything.
    }
    EXPECT_EQ(count.load(), 50);
}

/**
 * runOne() takes the oldest queued task and runs it on the caller,
 * while the one worker is busy; with nothing queued it runs nothing.
 */
TEST(ThreadPool, RunOneRunsOldestQueuedTaskOnCaller)
{
    ThreadPool pool(1);
    std::atomic<bool> started{false}, release{false};
    pool.submit([&] {
        started = true;
        while (!release)
            std::this_thread::yield();
    });
    while (!started)
        std::this_thread::yield();
    std::vector<std::pair<int, int>> ran; // (task, worker index)
    for (int i = 0; i < 2; ++i)
        pool.submit([&ran, i] {
            ran.emplace_back(i, ThreadPool::currentWorkerIndex());
        });
    EXPECT_TRUE(pool.runOne());
    EXPECT_TRUE(pool.runOne());
    EXPECT_FALSE(pool.runOne());
    release = true;
    pool.wait();
    EXPECT_EQ(ran, (std::vector<std::pair<int, int>>{{0, -1}, {1, -1}}));
}

TEST(ThreadPool, ClampsToOneWorker)
{
    ThreadPool pool(-3);
    EXPECT_EQ(pool.threadCount(), 1);
    EXPECT_GE(ThreadPool::defaultThreadCount(), 1);
}

// ---- job fingerprint --------------------------------------------------

sim::SweepJob
quickJob(const std::string &workload = "queens",
         bool vp = false, int scale = 1)
{
    sim::SweepJob job;
    job.label = "test";
    job.workload = workload;
    job.scale = scale;
    job.cfg = vp ? sim::vpConfig({8, 48}, SpecModel::greatModel(),
                                 ConfidenceKind::Real,
                                 UpdateTiming::Delayed)
                 : sim::baseConfig({8, 48});
    return job;
}

TEST(JobKey, IgnoresLabelButNotConfig)
{
    sim::SweepJob a = quickJob(), b = quickJob();
    b.label = "different label";
    EXPECT_EQ(sim::jobKey(a), sim::jobKey(b));

    sim::SweepJob c = quickJob();
    c.cfg.windowSize = 24;
    EXPECT_NE(sim::jobKey(a), sim::jobKey(c));

    sim::SweepJob d = quickJob();
    d.scale = 2;
    EXPECT_NE(sim::jobKey(a), sim::jobKey(d));

    sim::SweepJob e = quickJob("m88k");
    EXPECT_NE(sim::jobKey(a), sim::jobKey(e));

    sim::SweepJob f = quickJob();
    f.cfg.model.invalidateToReissue += 1;
    EXPECT_NE(sim::jobKey(a), sim::jobKey(f));
}

TEST(JobKey, MemResolutionAndConfidenceTableAreIdentity)
{
    // Speculative vs valid-ops memory resolution produce different
    // runs and must never collide in the RunCache.
    sim::SweepJob a = quickJob("queens", true);
    sim::SweepJob b = quickJob("queens", true);
    b.cfg.model.memNeedsValidOps = false;
    EXPECT_NE(sim::jobKey(a), sim::jobKey(b));

    // Ditto for the confidence table size.
    sim::SweepJob c = quickJob("queens", true);
    c.cfg.confidenceTableBits = 10;
    EXPECT_NE(sim::jobKey(a), sim::jobKey(c));

    // The table-bits segment must not be confusable with the
    // threshold's (both live in the confidence section).
    sim::SweepJob d = quickJob("queens", true);
    d.cfg.confidenceThreshold = d.cfg.confidenceTableBits;
    d.cfg.confidenceTableBits = a.cfg.confidenceThreshold;
    EXPECT_NE(sim::jobKey(a), sim::jobKey(d));
}

TEST(JobKey, ModelNameIsCosmetic)
{
    sim::SweepJob a = quickJob(), b = quickJob();
    b.cfg.model.name = "renamed";
    EXPECT_EQ(sim::jobKey(a), sim::jobKey(b));
}

// With results now persisted across processes (disk_cache.hh), a
// CoreConfig field that jobKey forgets silently serves wrong cached
// results forever. The static_asserts trip whenever CoreConfig or
// SpecModel grows/shrinks; on a size change, audit jobKey() in
// sweep.cc, then update the sizes AND the mutation table below.
static_assert(sizeof(core::CoreConfig) == 464,
              "CoreConfig changed: audit jobKey()");
static_assert(sizeof(SpecModel) == 80,
              "SpecModel changed: audit jobKey()");

TEST(JobKey, EveryRelevantFieldChangesTheKey)
{
    using Mutator = void (*)(sim::SweepJob &);
    const struct
    {
        const char *name;
        bool identity; //!< true: key must CHANGE when mutated
        Mutator mutate;
    } fields[] = {
        // Machine.
        {"issueWidth", true, [](sim::SweepJob &j) { j.cfg.issueWidth = 4; }},
        {"fetchWidth", true, [](sim::SweepJob &j) { j.cfg.fetchWidth = 16; }},
        {"retireWidth", true, [](sim::SweepJob &j) { j.cfg.retireWidth = 4; }},
        {"dcachePorts", true, [](sim::SweepJob &j) { j.cfg.dcachePorts = 1; }},
        // Value speculation.
        {"valuePredictor", true,
         [](sim::SweepJob &j) { j.cfg.valuePredictor = "last"; }},
        {"confidence", true,
         [](sim::SweepJob &j) { j.cfg.confidence = ConfidenceKind::Always; }},
        {"confidenceBits", true,
         [](sim::SweepJob &j) { j.cfg.confidenceBits = 5; }},
        {"updateTiming", true,
         [](sim::SweepJob &j) { j.cfg.updateTiming = UpdateTiming::Immediate; }},
        {"model.verifyToBranch", true,
         [](sim::SweepJob &j) { j.cfg.model.verifyToBranch += 2; }},
        {"model.verifyAddrToMem", true,
         [](sim::SweepJob &j) { j.cfg.model.verifyAddrToMem += 2; }},
        {"model.branchNeedsValidOps", true,
         [](sim::SweepJob &j) {
             j.cfg.model.branchNeedsValidOps =
                 !j.cfg.model.branchNeedsValidOps;
         }},
        // Front end and memory hierarchy.
        {"branchPredictor", true,
         [](sim::SweepJob &j) { j.cfg.branchPredictor = "taken"; }},
        {"icache.sizeBytes", true,
         [](sim::SweepJob &j) { j.cfg.icache.sizeBytes /= 2; }},
        {"dcache.assoc", true,
         [](sim::SweepJob &j) { j.cfg.dcache.assoc *= 2; }},
        {"l2cache.blockBytes", true,
         [](sim::SweepJob &j) { j.cfg.l2cache.blockBytes *= 2; }},
        {"dcacheHitLat", true,
         [](sim::SweepJob &j) { j.cfg.dcacheHitLat += 1; }},
        {"l2MissLat", true, [](sim::SweepJob &j) { j.cfg.l2MissLat += 10; }},
        {"storeForwardLat", true,
         [](sim::SweepJob &j) { j.cfg.storeForwardLat += 1; }},
        // Functional units and run control.
        {"aluLat", true, [](sim::SweepJob &j) { j.cfg.aluLat += 1; }},
        {"mulLat", true, [](sim::SweepJob &j) { j.cfg.mulLat += 1; }},
        {"divLat", true, [](sim::SweepJob &j) { j.cfg.divLat += 1; }},
        {"maxCycles", true, [](sim::SweepJob &j) { j.cfg.maxCycles = 1000; }},
        // Observability that rides in the RunResult (PR 7).
        {"metricsInterval", true,
         [](sim::SweepJob &j) { j.cfg.metricsInterval = 500; }},
        {"specLedger", true,
         [](sim::SweepJob &j) { j.cfg.specLedger = true; }},
        // Sharded interval simulation (PR 8).
        {"shards", true, [](sim::SweepJob &j) { j.cfg.shards = 4; }},
        {"intervalInsts", true,
         [](sim::SweepJob &j) { j.cfg.intervalInsts = 100'000; }},
        {"warmupInsts", true,
         [](sim::SweepJob &j) { j.cfg.warmupInsts = 10'000; }},
        // Sampled replay (PR 10): the phase budget and interval
        // length define the clustering, and sampled statistics
        // approximate the monolithic run.
        {"sampleK", true, [](sim::SweepJob &j) { j.cfg.sampleK = 8; }},
        {"sampleIntervalInsts", true,
         [](sim::SweepJob &j) {
             j.cfg.sampleK = 8;
             j.cfg.sampleIntervalInsts = 50'000;
         }},
        // Execution resources and cosmetics: bit-identical results,
        // so they must NOT fracture the cache (PRs 6-8 audits).
        {"label", false, [](sim::SweepJob &j) { j.label = "renamed"; }},
        {"model.name", false,
         [](sim::SweepJob &j) { j.cfg.model.name = "renamed"; }},
        {"icache.name", false,
         [](sim::SweepJob &j) { j.cfg.icache.name = "renamed"; }},
        {"scheduler", false,
         [](sim::SweepJob &j) {
             j.cfg.scheduler = core::SchedulerKind::Scan;
         }},
        {"sweepKind", false,
         [](sim::SweepJob &j) { j.cfg.sweepKind = core::SweepKind::Dense; }},
        {"tracePipeline", false,
         [](sim::SweepJob &j) { j.cfg.tracePipeline = true; }},
        {"traceRetain", false,
         [](sim::SweepJob &j) { j.cfg.traceRetain = 64; }},
        {"shardJobs", false, [](sim::SweepJob &j) { j.cfg.shardJobs = 8; }},
    };

    const std::string base_key = sim::jobKey(quickJob("queens", true));
    for (const auto &f : fields) {
        sim::SweepJob mutated = quickJob("queens", true);
        f.mutate(mutated);
        if (f.identity)
            EXPECT_NE(sim::jobKey(mutated), base_key) << f.name;
        else
            EXPECT_EQ(sim::jobKey(mutated), base_key) << f.name;
    }
}

// ---- serial vs parallel determinism -----------------------------------

std::vector<sim::SweepJob>
smallGrid()
{
    std::vector<sim::SweepJob> jobs;
    const sim::MachineConfig m{8, 48};
    for (const std::string w : {"queens", "m88k", "compress"}) {
        sim::SweepJob base;
        base.label = "base " + w;
        base.workload = w;
        base.scale = 1;
        base.cfg = sim::baseConfig(m);
        jobs.push_back(base);

        sim::SweepJob vp;
        vp.label = "great " + w;
        vp.workload = w;
        vp.scale = 1;
        vp.cfg = sim::vpConfig(m, SpecModel::greatModel(),
                               ConfidenceKind::Real,
                               UpdateTiming::Delayed);
        jobs.push_back(vp);
    }
    return jobs;
}

TEST(SweepRunner, ParallelIsBitIdenticalToSerial)
{
    const auto jobs = smallGrid();

    sim::RunCache serial_cache, parallel_cache;
    sim::SweepRunner serial(1, &serial_cache);
    sim::SweepRunner parallel(8, &parallel_cache);

    const auto a = serial.run(jobs);
    const auto b = parallel.run(jobs);
    ASSERT_EQ(a.size(), jobs.size());
    ASSERT_EQ(b.size(), jobs.size());
    // Every counter of every run must match exactly; the serialized
    // form covers the full stats block including derived IPC.
    EXPECT_EQ(sim::toJson(jobs, a), sim::toJson(jobs, b));
}

TEST(SweepRunner, ResultsInJobOrderUnderManyWorkers)
{
    const auto jobs = smallGrid();
    sim::RunCache cache;
    sim::SweepRunner runner(8, &cache);
    const auto results = runner.run(jobs);
    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(results[i].workload, jobs[i].workload) << "slot " << i;
    // Base and VP runs of the same workload landed in their own slots.
    for (std::size_t i = 0; i + 1 < jobs.size(); i += 2)
        EXPECT_GE(results[i + 1].stats.vpEligible, 1u)
            << "VP slot " << i + 1;
    for (std::size_t i = 0; i < jobs.size(); i += 2)
        EXPECT_EQ(results[i].stats.vpEligible, 0u) << "base slot " << i;
}

TEST(SweepRunner, ErrorsPropagateFromWorkers)
{
    std::vector<sim::SweepJob> jobs = smallGrid();
    jobs[1].workload = "nonesuch";
    sim::RunCache cache;
    sim::SweepRunner runner(4, &cache);
    EXPECT_THROW(runner.run(jobs), FatalError);
}

// ---- shared kernels ---------------------------------------------------

TEST(SharedKernel, LiveHolderSharesOneTrace)
{
    const auto a = sim::sharedKernel("queens", 1);
    const auto b = sim::sharedKernel("queens", 1);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(&a->trace, &b->trace);
    EXPECT_FALSE(a->trace.entries.empty());
    // The scale is part of the key.
    const auto c = sim::sharedKernel("queens", 2);
    EXPECT_NE(&a->trace, &c->trace);
    EXPECT_GT(c->trace.entries.size(), a->trace.entries.size());
}

TEST(SharedKernel, ConcurrentFirstRequestsBuildOnce)
{
    // Every worker keeps what it got, so one build must serve all.
    std::vector<std::shared_ptr<const sim::BuiltKernel>> got(8);
    {
        ThreadPool pool(8);
        for (std::size_t i = 0; i < got.size(); ++i)
            pool.submit([&got, i] { got[i] = sim::sharedKernel("m88k", 1); });
        pool.wait();
    }
    for (const auto &k : got)
        EXPECT_EQ(k.get(), got[0].get());
}

TEST(SharedKernel, ExpiresWithLastHolderThenBuildsAfresh)
{
    auto a = sim::sharedKernel("compress", 1);
    auto b = sim::sharedKernel("compress", 1);
    const std::weak_ptr<const sim::BuiltKernel> first = a;
    const std::size_t length = a->trace.entries.size();
    a.reset();
    EXPECT_FALSE(first.expired()); // b still holds it
    b.reset();
    EXPECT_TRUE(first.expired());

    // The memo held no strong reference: this is a new build, and the
    // old object stays dead.
    const auto c = sim::sharedKernel("compress", 1);
    EXPECT_TRUE(first.expired());
    EXPECT_EQ(c->trace.entries.size(), length);
}

TEST(SharedKernel, GridIdenticalAcrossWorkerCounts)
{
    // 16 cells over two kernels: under 8 workers the cells of a kernel
    // overlap and share its trace; serially each builds its own.
    std::vector<sim::SweepJob> jobs;
    const sim::MachineConfig m{8, 48};
    for (const std::string w : {"compress", "vortex"}) {
        for (const char *model : {"good", "great", "super"}) {
            for (bool spec_mem : {false, true}) {
                sim::SweepJob job;
                job.label = std::string(model) + " " + w;
                job.workload = w;
                job.scale = 1;
                job.cfg = sim::vpConfig(m, SpecModel::byName(model),
                                        ConfidenceKind::Real,
                                        UpdateTiming::Delayed);
                job.cfg.model.memNeedsValidOps = !spec_mem;
                jobs.push_back(job);
            }
        }
        for (int window : {48, 96}) {
            sim::SweepJob job;
            job.label = "base " + w;
            job.workload = w;
            job.scale = 1;
            job.cfg = sim::baseConfig({8, window});
            jobs.push_back(job);
        }
    }
    ASSERT_EQ(jobs.size(), 16u);

    sim::RunCache serial_cache, parallel_cache;
    sim::SweepRunner serial(1, &serial_cache);
    sim::SweepRunner parallel(8, &parallel_cache);
    const auto a = serial.run(jobs);
    const auto b = parallel.run(jobs);
    EXPECT_EQ(sim::toJson(jobs, a), sim::toJson(jobs, b));
    EXPECT_EQ(sim::toCsv(jobs, a), sim::toCsv(jobs, b));
}

// ---- sweep plan: probe, build once, heaviest first --------------------

/** Cheap cells over three kernels and three windows, so the cost order
 *  (kernel length x window) differs from list order. */
std::vector<sim::SweepJob>
planGrid()
{
    std::vector<sim::SweepJob> jobs;
    const struct
    {
        const char *workload;
        int width, window;
        bool vp;
    } cells[] = {
        {"vortex", 4, 24, false}, {"compress", 8, 48, true},
        {"go", 16, 96, false},    {"compress", 16, 96, false},
        {"vortex", 8, 48, true},  {"go", 4, 24, true},
    };
    for (const auto &c : cells) {
        sim::SweepJob job;
        job.workload = c.workload;
        job.scale = 1;
        const sim::MachineConfig m{c.width, c.window};
        job.cfg = c.vp ? sim::vpConfig(m, SpecModel::greatModel(),
                                       ConfidenceKind::Real,
                                       UpdateTiming::Delayed)
                       : sim::baseConfig(m);
        job.label = m.label() + " " + sim::configLabel(job.cfg);
        jobs.push_back(job);
    }
    return jobs;
}

std::vector<std::uint8_t>
resultBytes(const sim::RunResult &r)
{
    StateWriter w;
    sim::saveRunResult(w, r);
    return w.data();
}

TEST(SweepPlan, ListOrderNeverShowsInResults)
{
    const std::vector<sim::SweepJob> jobs = planGrid();
    const std::size_t n = jobs.size();
    std::vector<std::size_t> forward(n);
    for (std::size_t i = 0; i < n; ++i)
        forward[i] = i;
    std::vector<std::size_t> reversed(forward.rbegin(), forward.rend());
    std::vector<std::size_t> permuted = forward;
    Xoshiro256 rng(19);
    for (std::size_t i = n - 1; i > 0; --i)
        std::swap(permuted[i], permuted[rng.nextBounded(i + 1)]);

    std::vector<std::vector<std::uint8_t>> want;
    for (int workers : {1, 4}) {
        for (const auto &order : {forward, reversed, permuted}) {
            std::vector<sim::SweepJob> listed;
            for (std::size_t i : order)
                listed.push_back(jobs[i]);
            sim::RunCache cache;
            sim::SweepRunner runner(workers, &cache);
            const auto got = runner.run(listed);
            ASSERT_EQ(got.size(), n);
            std::vector<std::vector<std::uint8_t>> bytes(n);
            for (std::size_t k = 0; k < n; ++k)
                bytes[order[k]] = resultBytes(got[k]);
            if (want.empty())
                want = bytes;
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(bytes[i], want[i])
                    << jobs[i].label << " " << jobs[i].workload
                    << " at " << workers << " worker(s)";
        }
    }
}

TEST(SweepPlan, Fig3QuickBuildsEachKernelOnce)
{
    const auto jobs = sim::sweepByName("fig3").build({true, 1, {}});
    std::set<std::pair<std::string, int>> kernels;
    for (const sim::SweepJob &j : jobs)
        kernels.insert({j.workload, j.scale});
    ASSERT_EQ(kernels.size(), 3u);
    for (int workers : {1, 4}) {
        sim::RunCache cache;
        sim::SweepRunner runner(workers, &cache);
        const std::uint64_t before = sim::sharedKernelBuilds();
        runner.run(jobs);
        EXPECT_EQ(sim::sharedKernelBuilds() - before, kernels.size())
            << workers << " worker(s)";
    }
}

TEST(SweepPlan, AnsweredSweepBuildsNothing)
{
    const std::vector<sim::SweepJob> jobs = planGrid();
    char dir[] = "/tmp/vsim_sweep_XXXXXX";
    ASSERT_NE(::mkdtemp(dir), nullptr);
    std::vector<sim::RunResult> cold;
    {
        sim::RunCache cache;
        cache.attachDisk(std::make_shared<sim::DiskRunCache>(dir));
        sim::SweepRunner runner(4, &cache);
        cold = runner.run(jobs);

        // Memory tier: the same cache answers every cell.
        const std::uint64_t before = sim::sharedKernelBuilds();
        const auto warm = runner.run(jobs);
        EXPECT_EQ(sim::sharedKernelBuilds(), before);
        for (std::size_t i = 0; i < jobs.size(); ++i)
            EXPECT_EQ(resultBytes(warm[i]), resultBytes(cold[i]));
    }
    for (int workers : {1, 4}) {
        // Disk tier: a fresh process-like cache over the same store.
        sim::RunCache cache;
        cache.attachDisk(std::make_shared<sim::DiskRunCache>(dir));
        sim::SweepRunner runner(workers, &cache);
        const std::uint64_t before = sim::sharedKernelBuilds();
        const auto warm = runner.run(jobs);
        EXPECT_EQ(sim::sharedKernelBuilds(), before)
            << workers << " worker(s)";
        EXPECT_EQ(cache.diskHits(), jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i)
            EXPECT_EQ(resultBytes(warm[i]), resultBytes(cold[i]));
    }
    std::filesystem::remove_all(dir);
}

TEST(SweepPlan, EarliestListedErrorWinsOverDispatchOrder)
{
    // Both cells fail in runWorkload's partition check, after the plan
    // has built their kernels. The later-listed one is far heavier
    // (queens at window 512 against compress at 24), so it starts
    // first; the earlier-listed one's error must still surface.
    sim::SweepJob light = quickJob("compress");
    light.cfg.windowSize = 24;
    light.cfg.warmupInsts = 1000;
    sim::SweepJob heavy = quickJob("queens");
    heavy.cfg.windowSize = 512;
    heavy.cfg.sampleIntervalInsts = 1000;
    const std::vector<sim::SweepJob> jobs = {light, heavy};

    for (int workers : {1, 4}) {
        sim::RunCache cache;
        sim::SweepRunner runner(workers, &cache);
        std::vector<sim::JobSpan> spans;
        runner.setSpanSink(&spans);
        std::string what;
        try {
            runner.run(jobs);
        } catch (const FatalError &err) {
            what = err.what();
        }
        EXPECT_NE(what.find("--warmup-insts needs"), std::string::npos)
            << workers << " worker(s): " << what;
        ASSERT_EQ(spans.size(), 2u);
        if (workers == 1) {
            EXPECT_LT(spans[1].startNs, spans[0].startNs)
                << "the heavier, later-listed cell must start first";
        }
    }
}

TEST(SweepPlan, FailedKernelFailsOnlyItsCells)
{
    std::vector<sim::SweepJob> jobs = planGrid();
    jobs.insert(jobs.begin() + 2, quickJob("nonesuch"));
    for (int workers : {1, 4}) {
        sim::RunCache cache;
        sim::SweepRunner runner(workers, &cache);
        EXPECT_THROW(runner.run(jobs), FatalError);
        // Every other cell ran and was memoized.
        EXPECT_EQ(cache.size(), jobs.size() - 1) << workers;
    }
}

TEST(SweepPlan, NothingPinnedAfterRun)
{
    for (int workers : {1, 4}) {
        std::vector<std::weak_ptr<const sim::BuiltKernel>> seen;
        {
            // Hold each kernel across the sweep, so the sweep pins the
            // very objects the weak_ptrs watch.
            std::vector<std::shared_ptr<const sim::BuiltKernel>> held;
            for (const char *w : {"vortex", "compress", "go"})
                held.push_back(sim::sharedKernel(w, 1));
            seen.assign(held.begin(), held.end());
            sim::RunCache cache;
            sim::SweepRunner runner(workers, &cache);
            runner.run(planGrid());
        }
        for (const auto &k : seen)
            EXPECT_TRUE(k.expired()) << workers << " worker(s)";
    }
}

// ---- run cache --------------------------------------------------------

TEST(RunCache, SecondSweepIsAllHits)
{
    const auto jobs = smallGrid();
    sim::RunCache cache;
    sim::SweepRunner runner(4, &cache);

    const auto first = runner.run(jobs);
    EXPECT_EQ(cache.misses(), jobs.size());
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.size(), jobs.size());

    const auto second = runner.run(jobs);
    EXPECT_EQ(cache.misses(), jobs.size());
    EXPECT_EQ(cache.hits(), jobs.size());
    EXPECT_EQ(sim::toJson(jobs, first), sim::toJson(jobs, second));

    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.hits(), 0u);
}

TEST(RunCache, DuplicateJobsSimulateOnce)
{
    // Eight copies of the same cell, run concurrently: in-flight
    // dedupe must collapse them to a single simulation.
    std::vector<sim::SweepJob> jobs(8, quickJob());
    sim::RunCache cache;
    sim::SweepRunner runner(8, &cache);
    const auto results = runner.run(jobs);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 7u);
    for (const auto &r : results)
        EXPECT_EQ(r.stats.cycles, results[0].stats.cycles);
}

TEST(RunCache, OwnerExceptionReleasesWaitersAndKey)
{
    // Eight copies of a failing cell under eight workers: the owner's
    // exception must release every waiter (no deadlock), propagate
    // out of run(), and un-memoize the key so a retry executes again
    // instead of replaying a stale error.
    std::vector<sim::SweepJob> jobs(8, quickJob("nonesuch"));
    sim::RunCache cache;
    sim::SweepRunner runner(8, &cache);
    EXPECT_THROW(runner.run(jobs), FatalError);
    EXPECT_EQ(cache.size(), 0u);
    const std::uint64_t misses_after_first = cache.misses();
    EXPECT_GE(misses_after_first, 1u);

    // The failing key was dropped: a second attempt re-executes (the
    // miss counter advances) rather than replaying a cached error.
    EXPECT_THROW(runner.run(jobs), FatalError);
    EXPECT_GT(cache.misses(), misses_after_first);
    EXPECT_EQ(cache.size(), 0u);

    // The cache stays usable for good cells afterwards.
    bool hit = true;
    cache.getOrRun(quickJob(), &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(cache.size(), 1u);
}

// ---- JSON round-trip --------------------------------------------------

/**
 * Minimal JSON reader covering exactly what the report writer emits:
 * arrays, flat objects, strings without escapes, and numbers. Returns
 * false on any syntax error; collects top-level-array object keys.
 */
class MiniJson
{
  public:
    explicit MiniJson(const std::string &text) : s(text) {}

    bool
    parse()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos == s.size();
    }

    int objects = 0;
    std::vector<std::string> keys;

  private:
    bool
    value()
    {
        if (pos >= s.size())
            return false;
        const char c = s[pos];
        if (c == '[')
            return array();
        if (c == '{')
            return object();
        if (c == '"')
            return string(nullptr);
        return number();
    }

    bool
    array()
    {
        ++pos; // [
        skipWs();
        if (peek() == ']') {
            ++pos;
            return true;
        }
        for (;;) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            if (peek() == ']') {
                ++pos;
                return true;
            }
            return false;
        }
    }

    bool
    object()
    {
        ++pos; // {
        ++objects;
        skipWs();
        if (peek() == '}') {
            ++pos;
            return true;
        }
        for (;;) {
            skipWs();
            std::string key;
            if (!string(&key))
                return false;
            keys.push_back(key);
            skipWs();
            if (peek() != ':')
                return false;
            ++pos;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            if (peek() == '}') {
                ++pos;
                return true;
            }
            return false;
        }
    }

    bool
    string(std::string *out)
    {
        if (peek() != '"')
            return false;
        ++pos;
        std::string v;
        while (pos < s.size() && s[pos] != '"') {
            if (s[pos] == '\\')
                return false; // writer never escapes
            v += s[pos++];
        }
        if (pos >= s.size())
            return false;
        ++pos; // closing quote
        if (out)
            *out = v;
        return true;
    }

    bool
    number()
    {
        const std::size_t start = pos;
        if (peek() == '-')
            ++pos;
        while (pos < s.size()
               && (std::isdigit(static_cast<unsigned char>(s[pos]))
                   || s[pos] == '.' || s[pos] == 'e' || s[pos] == '+'
                   || s[pos] == '-'))
            ++pos;
        return pos > start;
    }

    char peek() const { return pos < s.size() ? s[pos] : '\0'; }

    void
    skipWs()
    {
        while (pos < s.size()
               && std::isspace(static_cast<unsigned char>(s[pos])))
            ++pos;
    }

    std::string s;
    std::size_t pos = 0;
};

TEST(SweepReport, JsonRoundTripsThroughParser)
{
    const auto jobs = smallGrid();
    sim::RunCache cache;
    sim::SweepRunner runner(4, &cache);
    const auto results = runner.run(jobs);

    const std::string js = sim::toJson(jobs, results);
    MiniJson parser(js);
    ASSERT_TRUE(parser.parse()) << js;
    EXPECT_EQ(parser.objects, static_cast<int>(jobs.size()));
    // Every object carries the sweep fields and the stats block.
    for (const char *want : {"label", "workload", "scale", "machine",
                             "config", "cycles", "ipc", "vp_ch"}) {
        int seen = 0;
        for (const auto &k : parser.keys)
            seen += k == want;
        EXPECT_EQ(seen, static_cast<int>(jobs.size())) << want;
    }
}

TEST(SweepReport, CsvHasHeaderAndOneLinePerRun)
{
    const auto jobs = smallGrid();
    sim::RunCache cache;
    sim::SweepRunner runner(2, &cache);
    const auto results = runner.run(jobs);

    const std::string csv = sim::toCsv(jobs, results);
    std::size_t lines = 0;
    for (char c : csv)
        lines += c == '\n';
    EXPECT_EQ(lines, jobs.size() + 1);
    EXPECT_EQ(csv.rfind("label,workload,scale,machine,config", 0), 0u);
}

// ---- named sweeps -----------------------------------------------------

TEST(NamedSweeps, RegistryAndQuickSizes)
{
    const sim::SweepOptions quick{true, 1, {}};
    // A base block where the figure needs one, then one block of 3
    // workloads per configuration.
    const std::vector<std::pair<std::string, std::size_t>> sizes = {
        {"base", 3},
        {"fig3", 3 + 3 * 12},
        {"fig4", 3 * 2},
        {"confidence", 3 + 3 * 7},
        {"predictors", 3 + 3 * 4},
        {"verif-latency", 3 + 3 * 4},
        {"reissue-latency", 3 + 3 * 8},
        {"table1", 3},
        {"verif-scheme", 3 + 3 * 8},
        {"branch-resolution", 3 + 3 * 4},
        {"mem-resolution", 3 + 3 * 6},
        {"selection", 3 + 3 * 8},
    };
    EXPECT_EQ(sim::namedSweeps().size(), sizes.size());
    for (const auto &[name, size] : sizes)
        EXPECT_EQ(sim::sweepByName(name).build(quick).size(), size) << name;

    EXPECT_THROW(sim::sweepByName("nonesuch"), FatalError);
}

TEST(NamedSweeps, LabelsNameTheConfiguration)
{
    const sim::SweepOptions quick{true, 1, {}};
    const auto jobs = sim::sweepByName("fig3").build(quick);
    bool saw_base = false, saw_great = false;
    for (const auto &j : jobs) {
        saw_base |= j.label.find("base") != std::string::npos;
        saw_great |= j.label.find("great D/R") != std::string::npos;
    }
    EXPECT_TRUE(saw_base);
    EXPECT_TRUE(saw_great);
    // Label and workload name a cell in the per-cell table.
    for (const sim::NamedSweep &s : sim::namedSweeps()) {
        std::set<std::pair<std::string, std::string>> cells;
        for (const auto &j : s.build(quick))
            EXPECT_TRUE(cells.insert({j.label, j.workload}).second)
                << s.name << ": " << j.label << " (" << j.workload << ")";
    }
}

TEST(NamedSweeps, EveryFigureRendersBuiltinsAndTraces)
{
    // Stand-in results: the renderers only read them, so no cell is
    // simulated and the trace file need not exist.
    for (const std::vector<std::string> &suite :
         {std::vector<std::string>{},
          std::vector<std::string>{"trace:no-such.vst"}}) {
        const sim::SweepOptions opt{true, 1, suite};
        for (const sim::NamedSweep &s : sim::namedSweeps()) {
            const auto jobs = s.build(opt);
            std::vector<sim::RunResult> results(jobs.size());
            for (std::size_t i = 0; i < jobs.size(); ++i) {
                results[i].workload = jobs[i].workload;
                results[i].stats.cycles = 1000 + i;
                results[i].stats.retired = 4000;
            }
            const std::string table = s.render(opt, jobs, results);
            if (s.name == "base")
                EXPECT_EQ(table, "");
            else
                EXPECT_EQ(table.rfind("== ", 0), 0u) << s.name;
        }
    }
}

TEST(ConfigLabel, BaseAndVp)
{
    EXPECT_EQ(sim::configLabel(sim::baseConfig({8, 48})), "base");
    EXPECT_EQ(sim::configLabel(sim::vpConfig(
                  {8, 48}, SpecModel::superModel(),
                  ConfidenceKind::Oracle, UpdateTiming::Immediate)),
              "super I/O");
}

} // namespace
