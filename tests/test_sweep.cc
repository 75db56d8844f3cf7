/**
 * @file
 * Tests for the parallel sweep engine: thread-pool behaviour, job
 * fingerprinting, serial-vs-parallel bit-identical results,
 * deterministic ordering under many workers, run-cache memoization
 * (including in-flight dedupe), JSON/CSV emission, and the named
 * sweep registry.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "vsim/base/logging.hh"
#include "vsim/base/thread_pool.hh"
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
// sweep.cc (and the sweep-job codec in server.cc), then update the
// sizes AND the mutation table below.
static_assert(sizeof(core::CoreConfig) == 464,
              "CoreConfig changed: audit jobKey() + saveSweepJob()");
static_assert(sizeof(SpecModel) == 80,
              "SpecModel changed: audit jobKey() + saveSweepJob()");

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
    EXPECT_GE(sim::namedSweeps().size(), 5u);

    const sim::SweepOptions quick{true, 1};
    // fig3 quick: 3 base runs + 3 models x 4 combos x 3 workloads.
    EXPECT_EQ(sim::sweepByName("fig3").build(quick).size(), 3u + 36u);
    // fig4 quick: 2 timings x 3 workloads.
    EXPECT_EQ(sim::sweepByName("fig4").build(quick).size(), 6u);
    // base quick: 1 machine x 3 workloads.
    EXPECT_EQ(sim::sweepByName("base").build(quick).size(), 3u);

    EXPECT_THROW(sim::sweepByName("nonesuch"), FatalError);
}

TEST(NamedSweeps, LabelsNameTheConfiguration)
{
    const sim::SweepOptions quick{true, 1};
    const auto jobs = sim::sweepByName("fig3").build(quick);
    bool saw_base = false, saw_great = false;
    for (const auto &j : jobs) {
        saw_base |= j.label.find("base") != std::string::npos;
        saw_great |= j.label.find("great D/R") != std::string::npos;
    }
    EXPECT_TRUE(saw_base);
    EXPECT_TRUE(saw_great);
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
