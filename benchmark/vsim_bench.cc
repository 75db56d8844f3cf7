/**
 * @file
 * End-to-end benchmark harness for vsim (see benchmark/README.md).
 *
 * Every invocation does one step of a benchmark run in a fresh process
 * and prints one JSON object on stdout; benchmark/run.py drives the
 * steps, checks the outputs against benchmark/expected.json and takes
 * the medians.
 *
 *   vsim_bench setup --workload W --seed S --work DIR
 *       The untimed preparation a user pays before the timed run:
 *       the job list and an empty disk-cache directory for the sweeps,
 *       recording the queens trace to DIR for trace-sampled.
 *   vsim_bench unit --workload W --seed S --work DIR
 *                   [--traced --perfetto PATH] [--smoke]
 *       One timed unit of work: the fig3 grid, the spec-wide grid,
 *       or one sampled replay of the trace. Without
 *       --traced it goes through the top-level entry points users run
 *       (SweepRunner::run -> runWorkload); with --traced the harness
 *       drives the same work through each module's public calls and
 *       records a span around every call.
 *   vsim_bench reference --workload trace-sampled [--smoke]
 *       Monolithic (unsampled) cycles of the traced kernel: the
 *       reference for the sampled run's error.
 *
 * --smoke shrinks every workload to a few seconds for run.py --check.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "vsim/arch/bbv.hh"
#include "vsim/arch/functional_core.hh"
#include "vsim/base/logging.hh"
#include "vsim/base/state_io.hh"
#include "vsim/base/thread_pool.hh"
#include "vsim/core/ooo_core.hh"
#include "vsim/core/snapshot.hh"
#include "vsim/obs/trace_export.hh"
#include "vsim/sim/disk_cache.hh"
#include "vsim/sim/report.hh"
#include "vsim/sim/sample.hh"
#include "vsim/sim/shard.hh"
#include "vsim/sim/simulator.hh"
#include "vsim/sim/sweep.hh"
#include "vsim/trace/trace_format.hh"
#include "vsim/trace/trace_io.hh"
#include "vsim/workloads/workloads.hh"

namespace fs = std::filesystem;
using namespace vsim;

namespace
{

using Clock = std::chrono::steady_clock;

/** Worker threads of every workload: one per core of a 4-core host. */
constexpr int kWorkers = 4;
/** trace-sampled: queens work factor (8.9M instructions, 430 MB). */
constexpr int kQueensScale = 22;
constexpr int kSmokeQueensScale = 2;
/** trace-sampled: phase budget and interval length of the sampler.
 *  18 intervals (17 clustered, plus the tail) leave the clusterer room
 *  below its 8-phase budget; the 1M default would give 9, and 8 head
 *  intervals against 8 phases fall back to full detail. */
constexpr std::uint64_t kSampleK = 8;
constexpr std::uint64_t kSampleInterval = 500'000;
constexpr std::uint64_t kSmokeSampleInterval = 50'000;

enum class Workload
{
    Fig3Cold,
    SpecWide,
    TraceSampled,
};

struct Options
{
    std::string mode;
    Workload workload = Workload::Fig3Cold;
    std::uint64_t seed = 1;
    std::string work;
    std::string perfetto;
    bool traced = false;
    bool smoke = false;
};

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** User + system CPU seconds of this process so far (all threads). */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec)
               + static_cast<double>(tv.tv_usec) / 1e6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

std::uint64_t
fnv(const std::string &s, std::uint64_t seed = trace::kFnvOffset)
{
    return trace::fnv1a(s.data(), s.size(), seed);
}

std::vector<std::uint8_t>
codecBytes(const sim::RunResult &r)
{
    StateWriter w;
    sim::saveRunResult(w, r);
    return w.take();
}

/** Digest of one result: its report JSON plus its full codec bytes
 *  (histograms, interval series and ledger included). */
std::uint64_t
resultDigest(const std::string &reportJson, const sim::RunResult &r)
{
    const std::vector<std::uint8_t> bytes = codecBytes(r);
    return trace::fnv1a(bytes.data(), bytes.size(), fnv(reportJson));
}

/** Fisher-Yates permutation of [0, n) driven by SplitMix64(@p seed). */
std::vector<std::size_t>
permutation(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> p(n);
    for (std::size_t i = 0; i < n; ++i)
        p[i] = i;
    std::uint64_t state = seed;
    // SplitMix64 (Steele et al., OOPSLA 2014).
    auto next = [&state] {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    };
    for (std::size_t i = n; i > 1; --i)
        std::swap(p[i - 1], p[next() % i]);
    return p;
}

// ---- workloads ---------------------------------------------------------

/**
 * The paper's Fig. 3 grid at scale 1 on its three lightest kernels:
 * 3 machines x 13 configurations x 3 kernels = 117 cells of 0.04-0.17 s
 * each (13 cells of compress on one machine with --smoke). The whole
 * 8-kernel grid takes about 17 s on 4 workers, so a run would hold one
 * or two grids and its median would be one sample.
 */
std::vector<sim::SweepJob>
fig3Jobs(bool smoke)
{
    sim::SweepOptions opt;
    opt.quick = smoke;
    opt.scale = 1;
    opt.workloads = smoke ? std::vector<std::string>{"compress"}
                          : std::vector<std::string>{"compress", "perl",
                                                     "vortex"};
    return sim::sweepByName("fig3").build(opt);
}

/**
 * The widest speculation the simulator supports: 8-wide machines with
 * 512- and 256-entry windows, the good model, every prediction
 * speculated on and memory resolved on speculative operands. Listed
 * 512-first in suite order, which puts the longest cell first.
 */
std::vector<sim::SweepJob>
specWideJobs(bool smoke)
{
    const std::vector<std::string> kernels =
        smoke ? std::vector<std::string>{"go", "perl"}
              : sim::sweepWorkloads(false);
    std::vector<sim::SweepJob> jobs;
    for (int window : {512, 256}) {
        for (const std::string &w : kernels) {
            sim::SweepJob job;
            job.workload = w;
            job.scale = 1;
            job.cfg.windowSize = window;
            job.cfg.useValuePrediction = true;
            job.cfg.model = core::SpecModel::goodModel();
            job.cfg.model.memNeedsValidOps = false;
            job.cfg.confidence = core::ConfidenceKind::Always;
            job.label = "8/" + std::to_string(window) + " good always spec";
            jobs.push_back(job);
        }
    }
    return jobs;
}

std::vector<sim::SweepJob>
sweepJobs(const Options &o)
{
    return o.workload == Workload::Fig3Cold ? fig3Jobs(o.smoke)
                                            : specWideJobs(o.smoke);
}

/** Submission order: fig3 is permuted by the seed; spec-wide keeps its
 *  grid order, longest cell first (a permuted order would let the
 *  seed, not the code, set its tail-bound makespan). */
std::vector<std::size_t>
submissionOrder(const Options &o, std::size_t n)
{
    if (o.workload == Workload::Fig3Cold)
        return permutation(n, o.seed);
    std::vector<std::size_t> p(n);
    for (std::size_t i = 0; i < n; ++i)
        p[i] = i;
    return p;
}

int
queensScale(const Options &o)
{
    return o.smoke ? kSmokeQueensScale : kQueensScale;
}

/** `vspec_run --model great --sample 8 --jobs 4` (+ the interval). */
core::CoreConfig
sampledConfig(const Options &o)
{
    core::CoreConfig cfg;
    cfg.useValuePrediction = true;
    cfg.model = core::SpecModel::greatModel();
    cfg.sampleK = kSampleK;
    cfg.sampleIntervalInsts = o.smoke ? kSmokeSampleInterval
                                      : kSampleInterval;
    cfg.shardJobs = kWorkers;
    return cfg;
}

std::string
tracePath(const Options &o)
{
    return (fs::path(o.work) / "queens.vst").string();
}

/** Result with its path-dependent workload name made canonical, so the
 *  digest is the same in every checkout and work directory. */
sim::RunResult
canonicalTraceResult(sim::RunResult r)
{
    r.workload = "trace:queens.vst";
    return r;
}

// ---- spans -------------------------------------------------------------

/** One timed call into a layer: name, interval, parent and worker. */
struct Span
{
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;
    int worker = -1; //!< pool worker index; -1 = main thread
};

/** In-memory span store, written out once the unit has finished. */
class Tracer
{
  public:
    int
    open(const char *name, int parent)
    {
        const Clock::time_point now = Clock::now();
        std::lock_guard<std::mutex> lock(mtx);
        spans.push_back({name, now, now, parent,
                         ThreadPool::currentWorkerIndex()});
        return static_cast<int>(spans.size()) - 1;
    }

    void
    close(int id)
    {
        const Clock::time_point now = Clock::now();
        std::lock_guard<std::mutex> lock(mtx);
        spans[static_cast<std::size_t>(id)].end = now;
    }

    /** Spans recorded so far; call only once every worker has joined. */
    const std::vector<Span> &all() const { return spans; }

  private:
    std::mutex mtx;
    std::vector<Span> spans;
};

/** Closes its span on scope exit. */
class Scoped
{
  public:
    Scoped(Tracer &t, const char *name, int parent)
        : tracer(t), id(t.open(name, parent))
    {}
    ~Scoped() { tracer.close(id); }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

    int span() const { return id; }

  private:
    Tracer &tracer;
    int id;
};

double
duration(const Span &s)
{
    return secondsBetween(s.start, s.end);
}

std::vector<double>
durationsOf(const std::vector<Span> &spans, const std::string &name)
{
    std::vector<double> d;
    for (const Span &s : spans)
        if (s.name == name)
            d.push_back(duration(s));
    return d;
}

double
sumOf(const std::vector<Span> &spans, const std::string &name)
{
    double total = 0.0;
    for (double d : durationsOf(spans, name))
        total += d;
    return total;
}

/** Nearest-rank quantile of @p v (0 when empty). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t i = static_cast<std::size_t>(
        q * static_cast<double>(v.size() - 1) + 0.5);
    return v[std::min(i, v.size() - 1)];
}

using Layers = std::map<std::string, double>;

/** Wall, CPU, self time and worker-pool metrics of every workload;
 *  @p cpu is the process CPU time spent inside the root span. */
void
addRunAndPoolLayers(Layers &L, const std::vector<Span> &spans, int root,
                    int workers, double cpu)
{
    const double wall = duration(spans[static_cast<std::size_t>(root)]);
    double children = 0.0;
    for (const Span &s : spans)
        if (s.parent == root)
            children += duration(s);
    L["run.wall_s"] = wall;
    L["run.cpu_s"] = cpu;
    L["run.self_s"] = wall - children;
    L["run.self_frac"] = (wall - children) / wall;

    const std::vector<double> cells = durationsOf(spans, "cell");
    const double makespan = sumOf(spans, "pool");
    double busy = 0.0;
    for (double d : cells)
        busy += d;
    L["pool.makespan_s"] = makespan;
    L["pool.busy_frac"] = busy / (workers * makespan);
    L["pool.tail_s"] = makespan - busy / workers;
    L["core.cell_s_p50"] = quantile(cells, 0.5);
    L["core.cell_s_max"] = quantile(cells, 1.0);
    // A p90 needs at least ten samples beyond it.
    if (cells.size() >= 100)
        L["core.cell_s_p90"] = quantile(cells, 0.9);
}

/** Simulated work of the detailed cores, summed over cells/reps. */
struct CoreWork
{
    std::uint64_t insts = 0;  //!< instructions simulated in detail
    std::uint64_t cycles = 0; //!< cycles simulated in detail
    std::uint64_t verify = 0;
    std::uint64_t invalidate = 0;
    std::uint64_t reissues = 0;

    void
    add(std::uint64_t simulated_insts, std::uint64_t sim_cycles,
        const core::CoreStats &s)
    {
        insts += simulated_insts;
        cycles += sim_cycles;
        verify += s.verifyEvents;
        invalidate += s.invalidateEvents;
        reissues += s.reissues;
    }
};

void
addCoreLayers(Layers &L, const std::vector<Span> &spans, const CoreWork &w)
{
    const double detailed = sumOf(spans, "core.detailed");
    L["core.detailed_s"] = detailed;
    L["core.detailed_minst"] = static_cast<double>(w.insts) / 1e6;
    L["core.minst_per_s"] = static_cast<double>(w.insts) / 1e6 / detailed;
    L["core.host_ns_per_simcycle"] =
        detailed * 1e9 / static_cast<double>(w.cycles);
    const std::uint64_t events = w.verify + w.invalidate + w.reissues;
    if (events > 0)
        L["core.host_us_per_spec_event"] =
            detailed * 1e6 / static_cast<double>(events);
    L["core.verify_events"] = static_cast<double>(w.verify);
    L["core.invalidate_events"] = static_cast<double>(w.invalidate);
    L["core.reissues"] = static_cast<double>(w.reissues);
}

/** One Perfetto track per worker, one complete event per span. */
void
writePerfetto(const std::string &path, const std::string &workload,
              const std::vector<Span> &spans, int workers)
{
    obs::TraceWriter tw;
    tw.processName(1, "vsim_bench " + workload);
    tw.threadName(1, 0, "main");
    for (int w = 0; w < workers; ++w)
        tw.threadName(1, static_cast<std::uint64_t>(w + 1),
                      "worker " + std::to_string(w));
    const Clock::time_point epoch = spans.front().start;
    auto us = [](Clock::duration d) {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(d)
                .count());
    };
    for (const Span &s : spans)
        tw.complete(s.name, "layer", us(s.start - epoch),
                    us(s.end - s.start), 1,
                    static_cast<std::uint64_t>(s.worker + 1));
    sim::writeFile(path, tw.toJson());
}

// ---- output ------------------------------------------------------------

/** Flat JSON object printer for the one result line. */
class JsonLine
{
  public:
    JsonLine &
    num(const std::string &key, double v)
    {
        return raw(key, number(v));
    }

    JsonLine &
    nums(const std::string &key, const std::vector<double> &v)
    {
        std::string a = "[";
        for (std::size_t i = 0; i < v.size(); ++i)
            a += (i ? "," : "") + number(v[i]);
        return raw(key, a + "]");
    }

    JsonLine &
    str(const std::string &key, const std::string &v)
    {
        return raw(key, obs::TraceWriter::str(v));
    }

    JsonLine &
    strings(const std::string &key, const std::vector<std::string> &v)
    {
        std::string a = "[";
        for (std::size_t i = 0; i < v.size(); ++i)
            a += (i ? "," : "") + obs::TraceWriter::str(v[i]);
        return raw(key, a + "]");
    }

    JsonLine &
    layers(const Layers &L)
    {
        JsonLine inner;
        for (const auto &[k, v] : L)
            inner.num(k, v);
        return raw("layers", inner.text());
    }

    std::string text() const { return "{" + body + "}"; }

  private:
    /** Every digit of @p v, so no two measurements print alike. */
    static std::string
    number(double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        return buf;
    }

    JsonLine &
    raw(const std::string &key, const std::string &v)
    {
        body += (body.empty() ? "" : ", ") + obs::TraceWriter::str(key)
                + ": " + v;
        return *this;
    }

    std::string body;
};

// ---- setup -------------------------------------------------------------

/** One setup; @return its seconds, recording layers into @p L. */
double
setupOnce(const Options &o, Layers &L)
{
    const Clock::time_point t0 = Clock::now();
    if (o.workload == Workload::TraceSampled) {
        const assembler::Program prog = workloads::buildProgram(
            workloads::byName("queens"), queensScale(o));
        const Clock::time_point r0 = Clock::now();
        trace::recordTrace(prog, tracePath(o));
        const double rec = secondsBetween(r0, Clock::now());
        const double mb =
            static_cast<double>(fs::file_size(tracePath(o))) / 1e6;
        L["trace.record_s"] = rec;
        L["trace.record_mb_per_s"] = mb / rec;
    } else {
        // What a user prepares before a cold sweep: the job list in
        // submission order, an empty cache directory, and each kernel
        // assembled once to know it builds.
        const std::vector<sim::SweepJob> jobs = sweepJobs(o);
        const std::vector<std::size_t> order =
            submissionOrder(o, jobs.size());
        std::vector<sim::SweepJob> submitted;
        for (std::size_t i : order)
            submitted.push_back(jobs[i]);
        const fs::path dir = fs::path(o.work) / "setup-cache";
        fs::remove_all(dir);
        sim::DiskRunCache disk(dir.string());
        std::set<std::pair<std::string, int>> built;
        for (const sim::SweepJob &j : submitted)
            if (built.insert({j.workload, j.scale}).second)
                workloads::buildProgram(workloads::byName(j.workload),
                                        j.scale);
        fs::remove_all(dir);
    }
    return secondsBetween(t0, Clock::now());
}

/**
 * Set up several times and report every repetition; run.py takes the
 * median. A sweep's setup takes about a millisecond, so it repeats
 * more often than the multi-second trace recording (and run.py runs
 * it again before every unit). The trace of the last repetition stays
 * in the work directory for the units.
 */
int
runSetup(const Options &o)
{
    const int reps = o.workload == Workload::TraceSampled ? 3 : 9;
    std::vector<double> times;
    std::vector<Layers> layers(reps);
    for (int i = 0; i < reps; ++i)
        times.push_back(setupOnce(o, layers[i]));
    // Layer times of the median repetition.
    std::vector<int> byTime(reps);
    for (int i = 0; i < reps; ++i)
        byTime[i] = i;
    std::sort(byTime.begin(), byTime.end(),
              [&](int a, int b) { return times[a] < times[b]; });
    JsonLine out;
    out.nums("setup_s", times).layers(layers[byTime[reps / 2]]);
    std::printf("%s\n", out.text().c_str());
    return 0;
}

// ---- sweep units ---------------------------------------------------------

/** Per-cell digests and the grid digest, in canonical grid order. */
void
digestSweep(JsonLine &out, const std::vector<sim::SweepJob> &jobs,
            const std::vector<sim::RunResult> &results,
            const std::string &csv)
{
    std::vector<std::string> cells;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        cells.push_back(
            hex(resultDigest(sim::toJson(jobs[i], results[i]), results[i])));
    out.str("digest", hex(fnv(csv))).strings("cells", cells);
}

std::uint64_t
retiredSum(const std::vector<sim::RunResult> &results)
{
    std::uint64_t n = 0;
    for (const sim::RunResult &r : results)
        n += r.instructions;
    return n;
}

/** One cold grid through SweepRunner::run, as vspec_sweep runs it. */
int
sweepUnit(const Options &o)
{
    const std::vector<sim::SweepJob> jobs = sweepJobs(o);
    const std::vector<std::size_t> order = submissionOrder(o, jobs.size());
    std::vector<sim::SweepJob> submitted;
    for (std::size_t i : order)
        submitted.push_back(jobs[i]);
    const fs::path dir = fs::path(o.work) / "cache";
    fs::remove_all(dir);
    sim::RunCache cache;
    cache.attachDisk(std::make_shared<sim::DiskRunCache>(dir.string()));
    sim::SweepRunner runner(kWorkers, &cache);

    const Clock::time_point t0 = Clock::now();
    const std::vector<sim::RunResult> got = runner.run(submitted);
    std::vector<sim::RunResult> results(jobs.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        results[order[i]] = got[i];
    const std::string csv = sim::toCsv(jobs, results);
    const double wall = secondsBetween(t0, Clock::now());
    fs::remove_all(dir);

    JsonLine out;
    out.num("wall_s", wall)
        .num("peak_rss_mb", peakRssMb())
        .num("minst", static_cast<double>(retiredSum(results)) / 1e6);
    digestSweep(out, jobs, results, csv);
    std::printf("%s\n", out.text().c_str());
    return 0;
}

/** What the traced sweep records per cell beyond its spans. */
struct TracedCell
{
    sim::RunResult result;
    std::string key;
    std::uint64_t preExecuted = 0; //!< trace length from preExecute
    std::uint64_t simCycles = 0;
    Clock::time_point submitted;
    Clock::time_point started;
    std::exception_ptr error;
};

/**
 * The traced twin of RunCache::getOrRun + runWorkload for one cold
 * cell: look the key up on disk (a miss), assemble, pre-execute,
 * simulate, and store the result.
 */
void
tracedCell(const sim::SweepJob &job, sim::DiskRunCache &disk, Tracer &tr,
           int parent, TracedCell &c)
{
    Scoped cell(tr, "cell", parent);
    c.started = Clock::now();
    c.key = sim::jobKey(job);
    sim::RunResult stale;
    if (disk.load(c.key, stale))
        VSIM_FATAL("cold cache served ", job.label, " (", job.workload,
                   ")");
    sim::validatePartition(job.cfg);

    assembler::Program prog;
    {
        Scoped s(tr, "workloads.build", cell.span());
        prog = workloads::buildProgram(workloads::byName(job.workload),
                                       job.scale);
    }
    std::shared_ptr<const arch::ExecTrace> trace;
    {
        Scoped s(tr, "arch.pre_execute", cell.span());
        trace = std::make_shared<const arch::ExecTrace>(
            arch::preExecute(prog));
    }
    c.preExecuted = trace->entries.size();
    core::SimOutcome out;
    {
        Scoped s(tr, "core.detailed", cell.span());
        core::OooCore core(prog, std::move(trace), job.cfg);
        out = core.run();
        c.simCycles = core.now();
    }
    VSIM_ASSERT(out.halted, "workload ", job.workload,
                " did not finish within the cycle limit");
    sim::RunResult &r = c.result;
    r.workload = job.workload;
    r.stats = out.stats;
    r.instructions = out.stats.retired;
    r.ipc = out.stats.ipc();
    r.exitCode = out.exitCode;
    r.output = out.output;
    r.intervals = out.intervals;
    r.ledger = out.ledger;
    {
        Scoped s(tr, "disk_cache.store", cell.span());
        disk.store(c.key, r);
    }
}

int
tracedSweepUnit(const Options &o, const char *name)
{
    const std::vector<sim::SweepJob> jobs = sweepJobs(o);
    const std::vector<std::size_t> order = submissionOrder(o, jobs.size());
    const fs::path dir = fs::path(o.work) / "cache";
    fs::remove_all(dir);
    sim::DiskRunCache disk(dir.string());
    const int workers =
        std::min<int>(kWorkers, static_cast<int>(jobs.size()));

    Tracer tr;
    std::vector<TracedCell> cells(jobs.size());
    std::vector<sim::RunResult> results(jobs.size());
    std::string csv;
    const double cpu0 = cpuSeconds();
    const int root = tr.open("run", -1);
    {
        Scoped pool_span(tr, "pool", root);
        ThreadPool pool(workers);
        for (std::size_t i : order) {
            cells[i].submitted = Clock::now();
            pool.submit([&, i] {
                try {
                    tracedCell(jobs[i], disk, tr, pool_span.span(),
                               cells[i]);
                } catch (...) {
                    cells[i].error = std::current_exception();
                }
            });
        }
        pool.wait();
    }
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (cells[i].error)
            std::rethrow_exception(cells[i].error);
        results[i] = cells[i].result;
    }
    {
        Scoped s(tr, "report.render", root);
        csv = sim::toCsv(jobs, results);
    }
    tr.close(root);
    const double cpu = cpuSeconds() - cpu0;

    // Untimed equivalence check: every stored entry must read back as
    // the RunResult that was stored.
    std::vector<double> loads;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        sim::RunResult back;
        const Clock::time_point l0 = Clock::now();
        const bool hit = disk.load(cells[i].key, back);
        loads.push_back(secondsBetween(l0, Clock::now()));
        if (!hit || codecBytes(back) != codecBytes(results[i]))
            VSIM_FATAL("disk cache entry of ", jobs[i].label, " (",
                       jobs[i].workload, ") did not read back");
    }
    fs::remove_all(dir);

    const std::vector<Span> &spans = tr.all();
    Layers L;
    addRunAndPoolLayers(L, spans, root, workers, cpu);
    CoreWork work;
    std::uint64_t preExecuted = 0;
    std::vector<double> waits;
    for (const TracedCell &c : cells) {
        work.add(c.result.stats.retired, c.simCycles, c.result.stats);
        preExecuted += c.preExecuted;
        waits.push_back(secondsBetween(c.submitted, c.started));
    }
    addCoreLayers(L, spans, work);
    const double pre = sumOf(spans, "arch.pre_execute");
    L["workloads.build_s"] = sumOf(spans, "workloads.build");
    L["arch.pre_execute_s"] = pre;
    L["arch.pre_execute_minst_per_s"] =
        static_cast<double>(preExecuted) / 1e6 / pre;
    L["disk_cache.store_s"] = sumOf(spans, "disk_cache.store");
    L["disk_cache.store_ms_p50"] =
        quantile(durationsOf(spans, "disk_cache.store"), 0.5) * 1e3;
    L["disk_cache.load_ms_p50"] = quantile(loads, 0.5) * 1e3;
    L["report.render_s"] = sumOf(spans, "report.render");
    if (jobs.size() >= 100)
        L["pool.queue_wait_s_p90"] = quantile(waits, 0.9);
    if (!o.perfetto.empty())
        writePerfetto(o.perfetto, name, spans, workers);

    JsonLine out;
    out.num("minst", static_cast<double>(retiredSum(results)) / 1e6);
    digestSweep(out, jobs, results, csv);
    out.layers(L);
    std::printf("%s\n", out.text().c_str());
    return 0;
}

// ---- trace-sampled units -------------------------------------------------

sim::SweepJob
sampledJob(const Options &o)
{
    sim::SweepJob job;
    job.label = "queens sampled";
    job.workload = sim::traceWorkloadName(tracePath(o));
    job.cfg = sampledConfig(o);
    return job;
}

void
digestSampled(JsonLine &out, const sim::RunResult &raw)
{
    const sim::RunResult r = canonicalTraceResult(raw);
    const std::string cell = hex(resultDigest(sim::toJson(r), r));
    out.num("minst", static_cast<double>(r.instructions) / 1e6)
        .num("sampled_cycles", static_cast<double>(r.stats.cycles))
        .str("digest", cell)
        .strings("cells", {cell});
}

/** One sampled replay through SweepRunner -> runWorkload, the path
 *  `vspec_run --trace` takes. */
int
sampledUnit(const Options &o)
{
    const sim::SweepJob job = sampledJob(o);
    sim::RunCache cache;
    sim::SweepRunner runner(1, &cache);

    const Clock::time_point t0 = Clock::now();
    const sim::RunResult r = runner.run({job}).front();
    const std::string report = sim::toJson(r);
    const double wall = secondsBetween(t0, Clock::now());

    JsonLine out;
    out.num("wall_s", wall).num("peak_rss_mb", peakRssMb());
    digestSampled(out, r);
    std::printf("%s\n", out.text().c_str());
    return 0;
}

/** One detailed representative and what the merge and layers need. */
struct RepResult
{
    core::SimOutcome out;
    std::uint64_t simCycles = 0;
    std::exception_ptr error;
};

/**
 * The traced twin of ShardRunner::run in sampled mode: the same
 * planning, warmup, representative runs and weighted merge, one span
 * per public call. Must reproduce ShardRunner's RunResult byte for
 * byte (run.py compares the digests).
 */
int
tracedSampledUnit(const Options &o)
{
    const sim::SweepJob job = sampledJob(o);
    const core::CoreConfig &cfg = job.cfg;
    const std::string path = tracePath(o);
    Tracer tr;
    const double cpu0 = cpuSeconds();
    const int root = tr.open("run", -1);
    {
        Scoped s(tr, "trace.hash", root);
        sim::jobKey(job);
    }
    sim::validatePartition(cfg);
    assembler::Program prog;
    std::shared_ptr<const arch::ExecTrace> trace;
    {
        Scoped s(tr, "trace.load", root);
        trace::LoadedTrace loaded = trace::loadTrace(path);
        prog = std::move(loaded.program);
        trace = std::make_shared<const arch::ExecTrace>(
            std::move(loaded.trace));
    }
    const std::uint64_t len = trace->entries.size();
    const std::uint64_t K = cfg.sampleIntervalInsts;

    std::vector<arch::Bbv> bbvs;
    {
        Scoped s(tr, "arch.bbv", root);
        bbvs = arch::profileBbv(*trace, K);
    }
    const std::size_t n = bbvs.size();
    sim::SamplePlan plan;
    {
        Scoped s(tr, "sample.cluster", root);
        if (n == 1) {
            plan.assignment = {0};
            plan.representatives = {0};
            plan.weights = {1};
        } else {
            plan = sim::clusterIntervals(
                std::vector<arch::Bbv>(bbvs.begin(), bbvs.end() - 1),
                cfg.sampleK);
            plan.assignment.push_back(
                static_cast<std::uint32_t>(plan.clusters()));
            plan.representatives.push_back(n - 1);
            plan.weights.push_back(1);
        }
    }
    const std::size_t k = plan.clusters();
    const std::uint64_t w =
        cfg.warmupInsts == UINT64_MAX ? K : cfg.warmupInsts;
    std::vector<sim::ShardPlan> reps(k);
    std::vector<std::uint64_t> points;
    for (std::size_t c = 0; c < k; ++c) {
        const std::uint64_t rep = plan.representatives[c];
        reps[c].start = rep * K;
        reps[c].stop = std::min(len, (rep + 1) * K);
        reps[c].warmStart = reps[c].start - std::min(reps[c].start, w);
        if (reps[c].warmStart > 0)
            points.push_back(reps[c].warmStart);
    }
    std::sort(points.begin(), points.end());
    points.erase(std::unique(points.begin(), points.end()), points.end());

    std::vector<core::SimSnapshot> snaps;
    if (!points.empty()) {
        Scoped s(tr, "core.warmup", root);
        snaps = core::functionalWarmup(prog, *trace, cfg, points);
    }
    auto snapshotFor = [&](std::uint64_t point) -> const core::SimSnapshot & {
        const auto it = std::lower_bound(points.begin(), points.end(), point);
        return snaps[static_cast<std::size_t>(it - points.begin())];
    };

    std::vector<RepResult> results(k);
    const int workers = std::min<int>(cfg.shardJobs, static_cast<int>(k));
    {
        Scoped pool_span(tr, "pool", root);
        ThreadPool pool(workers);
        for (std::size_t i = 0; i < k; ++i) {
            pool.submit([&, i] {
                RepResult &r = results[i];
                try {
                    Scoped cell(tr, "cell", pool_span.span());
                    Scoped s(tr, "core.detailed", cell.span());
                    core::OooCore core(prog, trace, cfg);
                    if (reps[i].warmStart > 0)
                        core.startFromSnapshot(
                            snapshotFor(reps[i].warmStart));
                    core.setRunWindow(reps[i].start, reps[i].stop);
                    r.out = core.run();
                    r.simCycles = core.now();
                } catch (...) {
                    r.error = std::current_exception();
                }
            });
        }
        pool.wait();
    }
    for (RepResult &r : results)
        if (r.error)
            std::rethrow_exception(r.error);

    sim::RunResult r;
    {
        Scoped s(tr, "shard.merge", root);
        core::CoreStats merged;
        for (std::size_t c = 0; c < k; ++c)
            merged.mergeWeighted(results[c].out.stats, plan.weights[c]);
        r.workload = job.workload;
        r.stats = merged;
        r.instructions = merged.retired;
        r.ipc = merged.ipc();
        r.exitCode = trace->exitCode;
        r.output = trace->output;
        r.intervals.period = cfg.metricsInterval;
        r.ledger.enabled = cfg.specLedger;
        // This configuration records no interval series and no ledger,
        // so runSampled's rebasing of both has nothing to carry over.
        for (const RepResult &rep : results)
            VSIM_ASSERT(rep.out.intervals.samples.empty()
                            && rep.out.ledger.records.empty(),
                        "sampled config unexpectedly recorded "
                        "intervals or ledger records");
        VSIM_ASSERT(results[k - 1].out.halted,
                    "final sample representative did not finish");
    }
    CoreWork work;
    for (std::size_t c = 0; c < k; ++c)
        work.add(reps[c].stop - reps[c].warmStart, results[c].simCycles,
                 results[c].out.stats);
    const double loadMb = static_cast<double>(fs::file_size(path)) / 1e6;
    {
        Scoped s(tr, "trace.free", root);
        trace.reset();
        snaps.clear();
        snaps.shrink_to_fit();
        results.clear();
        results.shrink_to_fit();
        prog = assembler::Program();
    }
    {
        Scoped s(tr, "report.render", root);
        sim::toJson(r);
    }
    tr.close(root);
    const double cpu = cpuSeconds() - cpu0;

    const std::vector<Span> &spans = tr.all();
    Layers L;
    addRunAndPoolLayers(L, spans, root, workers, cpu);
    addCoreLayers(L, spans, work);
    const double load = sumOf(spans, "trace.load");
    const double warm = sumOf(spans, "core.warmup");
    L["trace.hash_s"] = sumOf(spans, "trace.hash");
    L["trace.load_s"] = load;
    L["trace.load_mb_per_s"] = loadMb / load;
    L["trace.free_s"] = sumOf(spans, "trace.free");
    L["arch.bbv_s"] = sumOf(spans, "arch.bbv");
    L["sample.cluster_s"] = sumOf(spans, "sample.cluster");
    L["sample.intervals"] = static_cast<double>(n);
    L["sample.phases"] = static_cast<double>(k);
    L["core.warmup_s"] = warm;
    L["core.snapshots"] = static_cast<double>(points.size());
    if (!points.empty())
        L["core.warmup_minst_per_s"] =
            static_cast<double>(points.back()) / 1e6 / warm;
    L["shard.merge_s"] = sumOf(spans, "shard.merge");
    L["report.render_s"] = sumOf(spans, "report.render");
    if (!o.perfetto.empty())
        writePerfetto(o.perfetto, "trace-sampled", spans, workers);

    JsonLine out;
    digestSampled(out, r);
    out.layers(L);
    std::printf("%s\n", out.text().c_str());
    return 0;
}

int
runReference(const Options &o)
{
    core::CoreConfig cfg = sampledConfig(o);
    cfg.sampleK = 0;
    cfg.sampleIntervalInsts = 0;
    const sim::RunResult r =
        sim::runWorkload("queens", queensScale(o), cfg);
    JsonLine out;
    out.num("monolithic_cycles", static_cast<double>(r.stats.cycles))
        .num("insts", static_cast<double>(r.instructions));
    std::printf("%s\n", out.text().c_str());
    return 0;
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "vsim_bench: %s\n"
                 "usage: vsim_bench setup|unit|reference --workload "
                 "fig3-cold|spec-wide|trace-sampled [--seed N] "
                 "[--work DIR] [--traced] [--perfetto PATH] [--smoke]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    if (argc < 2)
        usage("missing mode");
    o.mode = argv[1];
    bool haveWorkload = false;
    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload") {
            const std::string w = value();
            haveWorkload = true;
            if (w == "fig3-cold")
                o.workload = Workload::Fig3Cold;
            else if (w == "spec-wide")
                o.workload = Workload::SpecWide;
            else if (w == "trace-sampled")
                o.workload = Workload::TraceSampled;
            else
                usage(("unknown workload " + w).c_str());
        } else if (a == "--seed") {
            const std::string v = value();
            char *end = nullptr;
            o.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0' || v[0] == '-')
                usage(("bad --seed " + v).c_str());
        } else if (a == "--work") {
            o.work = value();
        } else if (a == "--perfetto") {
            o.perfetto = value();
        } else if (a == "--traced") {
            o.traced = true;
        } else if (a == "--smoke") {
            o.smoke = true;
        } else {
            usage(("unknown flag " + a).c_str());
        }
    }
    if (!haveWorkload)
        usage("missing --workload");
    if (o.mode != "reference" && o.work.empty())
        usage("missing --work");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    setLogLevel(LogLevel::Warn);
    try {
        const bool sampled = o.workload == Workload::TraceSampled;
        if (o.mode == "setup")
            return runSetup(o);
        if (o.mode == "reference") {
            if (!sampled)
                usage("reference needs --workload trace-sampled");
            return runReference(o);
        }
        if (o.mode != "unit")
            usage(("unknown mode " + o.mode).c_str());
        if (sampled)
            return o.traced ? tracedSampledUnit(o) : sampledUnit(o);
        const char *name = o.workload == Workload::Fig3Cold ? "fig3-cold"
                                                            : "spec-wide";
        return o.traced ? tracedSweepUnit(o, name) : sweepUnit(o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "vsim_bench: %s\n", e.what());
        return 1;
    }
}
