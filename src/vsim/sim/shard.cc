#include "shard.hh"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

#include "sample.hh"
#include "vsim/base/logging.hh"
#include "vsim/base/thread_pool.hh"
#include "vsim/core/ooo_core.hh"
#include "vsim/core/snapshot.hh"

namespace vsim::sim
{

bool
shardingRequested(const core::CoreConfig &cfg)
{
    return cfg.shards > 0 || cfg.intervalInsts > 0;
}

bool
samplingRequested(const core::CoreConfig &cfg)
{
    return cfg.sampleK > 0;
}

std::string
partitionError(const core::CoreConfig &cfg)
{
    if (cfg.shards > 0 && cfg.intervalInsts > 0)
        return "--shards and --interval-insts are mutually exclusive: "
               "pick one partition of the trace";
    if (cfg.sampleK > 0 && (cfg.shards > 0 || cfg.intervalInsts > 0))
        return "--sample is mutually exclusive with --shards/"
               "--interval-insts: sampled replay chooses its own "
               "interval partition";
    if (cfg.sampleIntervalInsts > 0 && cfg.sampleK == 0)
        return "--sample-interval-insts needs --sample";
    if (cfg.warmupInsts != UINT64_MAX && !shardingRequested(cfg)
        && !samplingRequested(cfg))
        return "--warmup-insts needs --shards, --interval-insts or "
               "--sample: it would otherwise be ignored";
    return "";
}

void
validatePartition(const core::CoreConfig &cfg)
{
    if (const std::string broken = partitionError(cfg); !broken.empty())
        VSIM_FATAL(broken);
}

std::vector<ShardPlan>
planShards(std::uint64_t len, const core::CoreConfig &cfg)
{
    VSIM_ASSERT(len > 0, "cannot shard an empty trace");
    if (cfg.shards > 0 && cfg.intervalInsts > 0)
        VSIM_FATAL("--shards and --interval-insts are mutually "
                   "exclusive: pick one partition of the trace");

    const std::uint64_t w = cfg.warmupInsts;
    auto warmStart = [w](std::uint64_t start) {
        return w == UINT64_MAX ? 0 : start - std::min(start, w);
    };

    std::vector<ShardPlan> plan;
    if (cfg.shards > 0) {
        // N near-equal pieces; shards beyond one-instruction
        // granularity would be empty, so clamp.
        const std::uint64_t n = std::min<std::uint64_t>(cfg.shards, len);
        plan.reserve(static_cast<std::size_t>(n));
        for (std::uint64_t i = 0; i < n; ++i) {
            ShardPlan p;
            p.start = len * i / n;
            p.stop = len * (i + 1) / n;
            p.warmStart = warmStart(p.start);
            plan.push_back(p);
        }
    } else {
        VSIM_ASSERT(cfg.intervalInsts > 0, "no shard partition requested");
        plan.reserve(static_cast<std::size_t>(
            (len + cfg.intervalInsts - 1) / cfg.intervalInsts));
        for (std::uint64_t s = 0; s < len; s += cfg.intervalInsts) {
            ShardPlan p;
            p.start = s;
            p.stop = std::min(len, s + cfg.intervalInsts);
            p.warmStart = warmStart(p.start);
            plan.push_back(p);
        }
    }
    return plan;
}

int
shardWorkers(const core::CoreConfig &cfg)
{
    return cfg.shardJobs <= 0 ? ThreadPool::defaultThreadCount()
                              : cfg.shardJobs;
}

namespace
{

/** One shard's outcome plus the merge/rebase inputs. */
struct ShardResult
{
    core::SimOutcome out;
    std::uint64_t cutCycle = 0; //!< cycle the stats window opened at
    double wallSeconds = 0.0;
    std::exception_ptr error;
};

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now()
                                         - t0)
        .count();
}

/**
 * Execute every plan entry as one detailed core and surface the first
 * worker exception on the caller. A plan with warmStart 0 starts from
 * the program's initial state; the others start from functional-warmup
 * snapshots of their distinct warmStart points, minted in one pass on
 * the caller's thread.
 *
 * With a pool (cfg.shardJobs workers and more than one plan), the
 * warmup overlaps the detailed cores: cold plans are submitted at
 * once, and each warm plan the moment its snapshot is minted, so the
 * workers run while the caller warms up towards the next point. Once
 * the last snapshot is minted the caller joins the workers, running
 * queued plans oldest first until none is left, so the last plans
 * never wait for a worker to free while the warmup thread idles; at
 * most the N workers and the caller simulate at once, as during the
 * warmup. Without a warmup (every plan starts at instruction 0) the
 * caller only waits, so N workers mean N cores. Inline (one worker),
 * the warmup runs first and the plans then run in order. Either way
 * each result lands at its plan index, so the merge does not depend on
 * the schedule, and a snapshot is freed once the last core that starts
 * from it has restored it. @p what labels the progress lines ("shard"
 * or "sample rep"), which give times as offsets from the call.
 */
std::vector<ShardResult>
executePlans(const core::CoreConfig &cfg, const assembler::Program &prog,
             const std::shared_ptr<const arch::ExecTrace> &trace,
             const std::vector<ShardPlan> &plan, const char *what)
{
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t n = plan.size();
    const std::uint64_t len = trace->entries.size();

    std::vector<std::uint64_t> points;
    for (const ShardPlan &p : plan)
        if (p.warmStart > 0)
            points.push_back(p.warmStart);
    std::sort(points.begin(), points.end());
    points.erase(std::unique(points.begin(), points.end()),
                 points.end());

    using Snapshot = std::shared_ptr<const core::SimSnapshot>;
    std::vector<ShardResult> results(n);
    auto runShard = [&](std::size_t i, Snapshot snap) {
        ShardResult &r = results[i];
        try {
            const double startedAt = secondsSince(t0);
            const auto t1 = std::chrono::steady_clock::now();
            core::OooCore core(prog, trace, cfg);
            if (snap)
                core.startFromSnapshot(*snap);
            snap.reset();
            core.setRunWindow(plan[i].start, plan[i].stop);
            r.out = core.run();
            r.cutCycle = core.statsCutCycle();
            r.wallSeconds = secondsSince(t1);
            VSIM_INFORM(what, " ", i + 1, "/", n, " [", plan[i].start,
                        ",", plan[i].stop, ") warm=", plan[i].warmStart,
                        ": start=", startedAt, "s cycles=",
                        r.out.stats.cycles, " wall=", r.wallSeconds, "s");
        } catch (...) {
            // Pool tasks must not throw; surface on the caller.
            r.error = std::current_exception();
        }
    };

    const int jobs = shardWorkers(cfg);
    // Declared after everything its tasks use, so that an exception
    // on the caller drains and joins it before those go away.
    std::optional<ThreadPool> pool;
    if (n > 1 && jobs > 1)
        pool.emplace(jobs);
    std::vector<Snapshot> inlineSnap(n);
    auto ready = [&](std::size_t i, Snapshot snap) {
        if (pool)
            pool->submit([&runShard, i, snap]() mutable {
                runShard(i, std::move(snap));
            });
        else
            inlineSnap[i] = std::move(snap);
    };

    for (std::size_t i = 0; i < n; ++i)
        if (plan[i].warmStart == 0)
            ready(i, nullptr);
    if (!points.empty()) {
        std::size_t minted = 0;
        core::functionalWarmup(
            prog, *trace, cfg, points, [&](core::SimSnapshot s) {
                const std::uint64_t point = points[minted++];
                const Snapshot snap =
                    std::make_shared<const core::SimSnapshot>(
                        std::move(s));
                for (std::size_t i = 0; i < n; ++i)
                    if (plan[i].warmStart == point)
                        ready(i, snap);
            });
        VSIM_INFORM(what, " warmup: ", points.size(),
                    " snapshot(s) of ", len, " insts, the last at ",
                    secondsSince(t0), "s");
        // The warmup thread joins the workers for the plans still queued.
        while (pool && pool->runOne())
            continue;
    }
    if (pool) {
        pool->wait();
    } else {
        for (std::size_t i = 0; i < n; ++i)
            runShard(i, std::move(inlineSnap[i]));
    }
    for (ShardResult &r : results)
        if (r.error)
            std::rethrow_exception(r.error);
    return results;
}

/**
 * SimPoint-style sampled replay (see shard.hh): fingerprint the
 * trace's K-instruction intervals with BBVs (on the run's workers),
 * cluster them into at most cfg.sampleK phases, simulate one
 * representative per phase in detail and fold its statistics under
 * the phase population.
 */
RunResult
runSampled(const core::CoreConfig &cfg, const std::string &workload,
           const assembler::Program &prog,
           const std::shared_ptr<const arch::ExecTrace> &trace)
{
    const std::uint64_t len = trace->entries.size();
    const std::uint64_t K = cfg.sampleIntervalInsts > 0
                                ? cfg.sampleIntervalInsts
                                : kDefaultSampleIntervalInsts;

    const auto tProfile = std::chrono::steady_clock::now();
    const std::vector<arch::Bbv> bbvs =
        arch::profileBbv(*trace, K, shardWorkers(cfg));
    const std::size_t n = bbvs.size();
    VSIM_ASSERT(n > 0, "cannot sample an empty trace");

    // The trailing interval is always its own singleton phase: it may
    // be ragged, and detailing it keeps the merged retired count equal
    // to the trace length and lets the final representative consume
    // the trace to its HALT. Only the head intervals are clustered.
    SamplePlan plan;
    if (n == 1) {
        plan.assignment = {0};
        plan.representatives = {0};
        plan.weights = {1};
    } else {
        plan = clusterIntervals(
            std::vector<arch::Bbv>(bbvs.begin(), bbvs.end() - 1),
            cfg.sampleK);
        plan.assignment.push_back(
            static_cast<std::uint32_t>(plan.clusters()));
        plan.representatives.push_back(n - 1);
        plan.weights.push_back(1);
    }
    const std::size_t k = plan.clusters();
    VSIM_INFORM("sample: ", n, " interval(s) of ", K, " insts -> ", k,
                " phase(s) in ", secondsSince(tProfile), "s");

    // Full warmup would replay every representative from instruction
    // 0, defeating sampling: reinterpret the 'full' default as one
    // interval of functional warmup. The jobKey carries the raw
    // warmupInsts value, so this cannot alias two different runs.
    const std::uint64_t w =
        cfg.warmupInsts == UINT64_MAX ? K : cfg.warmupInsts;
    std::vector<ShardPlan> shardPlan(k);
    for (std::size_t c = 0; c < k; ++c) {
        const std::uint64_t rep = plan.representatives[c];
        ShardPlan &p = shardPlan[c];
        p.start = rep * K;
        p.stop = std::min(len, (rep + 1) * K);
        p.warmStart = p.start - std::min(p.start, w);
    }

    std::vector<ShardResult> results =
        executePlans(cfg, prog, trace, shardPlan, "sample rep");

    // ---- weighted merge --------------------------------------------------
    // Each representative stands in for every interval of its phase:
    // scalar counters, CPI stacks and histograms fold in scaled by the
    // phase population (integer arithmetic, so the merge is
    // bit-identical across hosts and worker counts). The stats window
    // opens and closes at retire-cycle granularity, so a
    // representative counts its interval length give or take one
    // retire group per boundary; the weighted total therefore matches
    // the trace length to within 2 * retireWidth per interval.
    core::CoreStats merged;
    for (std::size_t c = 0; c < k; ++c)
        merged.mergeWeighted(results[c].out.stats, plan.weights[c]);

    RunResult r;
    r.workload = workload;
    r.stats = merged;
    r.instructions = merged.retired;
    r.ipc = merged.ipc();
    // The architectural outcome is fixed by the oracle trace; a
    // mid-trace representative only reproduces a suffix of the output.
    r.exitCode = trace->exitCode;
    r.output = trace->output;

    // Detailed artifacts are approximations assembled in trace order:
    // interval i contributes its representative's samples rebased onto
    // the merged timeline at offset_i (the sum of the preceding
    // intervals' representative cycle counts), and each
    // representative's ledger records appear once, at the offset of
    // the representative's own position. Records made before a
    // representative's cut (during its warmup prefix) are dropped —
    // there is no adjacent shard whose seam they could patch.
    r.intervals.period = cfg.metricsInterval;
    r.ledger.enabled = cfg.specLedger;
    std::uint64_t offset = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t c = plan.assignment[i];
        const ShardResult &res = results[c];
        const std::uint64_t cut = res.cutCycle;
        for (obs::IntervalSample s : res.out.intervals.samples) {
            VSIM_ASSERT(s.cycleStart >= cut,
                        "interval sample precedes the sample's cut");
            s.cycleStart = s.cycleStart - cut + offset;
            r.intervals.samples.push_back(s);
        }
        if (plan.representatives[c] == i) {
            for (obs::LedgerRecord rec : res.out.ledger.records) {
                if (rec.madeAt < cut)
                    continue;
                rec.madeAt = rec.madeAt - cut + offset;
                if (rec.outcome != obs::LedgerOutcome::Unresolved)
                    rec.resolvedAt = rec.resolvedAt - cut + offset;
                r.ledger.records.push_back(rec);
            }
        }
        offset += res.out.stats.cycles;
    }

    VSIM_ASSERT(results[k - 1].out.halted,
                "final sample representative of ", workload,
                " did not finish within the cycle limit");
    const std::uint64_t slack =
        2ull * static_cast<std::uint64_t>(cfg.effRetireWidth()) * n;
    VSIM_ASSERT(merged.retired + slack >= len
                    && merged.retired <= len + slack,
                "sampled weights did not cover the trace: ",
                merged.retired, " vs ", len, " (slack ", slack, ")");
    return r;
}

} // namespace

ShardRunner::ShardRunner(core::CoreConfig config) : cfg(std::move(config))
{}

RunResult
ShardRunner::run(const std::string &workload, int scale)
{
    validatePartition(cfg);
    // One program and oracle trace for every shard: a built-in kernel
    // is the shared one (a sweep's sharded cells use the kernel it
    // pinned), a recording is loaded on the run's workers, and each
    // shard core borrows the (potentially multi-gigabyte) trace through
    // an aliasing handle instead of copying it.
    const std::shared_ptr<const BuiltKernel> kernel =
        workloadKernel(workload, scale, shardWorkers(cfg));
    const assembler::Program &prog = kernel->program;
    const std::shared_ptr<const arch::ExecTrace> trace(kernel,
                                                       &kernel->trace);
    const std::uint64_t len = trace->entries.size();

    if (samplingRequested(cfg))
        return runSampled(cfg, workload, prog, trace);

    const std::vector<ShardPlan> plan = planShards(len, cfg);
    const std::size_t n = plan.size();
    std::vector<ShardResult> results =
        executePlans(cfg, prog, trace, plan, "shard");

    // ---- merge -----------------------------------------------------------
    // Scalars, CPI stacks and histograms add; interval samples and
    // ledger records are rebased onto the merged timeline: shard i's
    // counted cycles begin at offset_i = sum of the earlier shards'
    // counted cycles, so a shard-local cycle x maps to
    // x - cut_i + offset_i. At full warmup cut_i == offset_i for
    // every shard (each replay reproduces the monolithic cycle
    // stream), making the rebase the identity and the merge
    // bit-identical to the monolithic run.
    core::CoreStats merged = results[0].out.stats;
    for (std::size_t i = 1; i < n; ++i)
        merged.merge(results[i].out.stats);

    RunResult r;
    r.workload = workload;
    r.stats = merged;
    r.instructions = merged.retired;
    r.ipc = merged.ipc();
    // The architectural outcome is fixed by the oracle trace; a
    // mid-trace shard core only reproduces its suffix of the output.
    r.exitCode = trace->exitCode;
    r.output = trace->output;

    r.intervals.period = cfg.metricsInterval;
    r.ledger.enabled = cfg.specLedger;
    const bool fullWarmup = cfg.warmupInsts == UINT64_MAX;
    // Merged-ledger indices of records still unresolved at their
    // shard's stop boundary, keyed by dynamic sequence number.
    std::unordered_map<std::uint64_t, std::size_t> unresolvedSeam;
    std::uint64_t offset = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t cut = results[i].cutCycle;
        const auto &inSamples = results[i].out.intervals.samples;
        for (std::size_t j = 0; j < inSamples.size(); ++j) {
            obs::IntervalSample s = inSamples[j];
            VSIM_ASSERT(s.cycleStart >= cut,
                        "interval sample precedes the shard's cut");
            s.cycleStart = s.cycleStart - cut + offset;
            // Seam coalescing: the core flushes intervals on absolute
            // period boundaries, so the previous shard's trailing
            // partial sample and this shard's *leading* partial
            // sample are two halves of one monolithic interval
            // whenever the seam does not itself fall on a boundary.
            // Summing them reconstructs the monolithic sample exactly
            // at full warmup. Only the leading sample may coalesce —
            // later samples of a finite-warmup shard are contiguous
            // and off-boundary too, but they are whole intervals.
            auto &out = r.intervals.samples;
            if (j == 0 && !out.empty() && cfg.metricsInterval != 0
                && s.cycleStart % cfg.metricsInterval != 0
                && out.back().cycleStart + out.back().cycles
                       == s.cycleStart) {
                obs::IntervalSample &b = out.back();
                b.cycles += s.cycles;
                b.retired += s.retired;
                b.issued += s.issued;
                b.dispatched += s.dispatched;
                b.occupancySum += s.occupancySum;
                b.condBranches += s.condBranches;
                b.condMispredicts += s.condMispredicts;
                b.squashes += s.squashes;
                b.verifyEvents += s.verifyEvents;
                b.invalidateEvents += s.invalidateEvents;
                b.nullifications += s.nullifications;
                b.cpi.merge(s.cpi);
                continue;
            }
            out.push_back(s);
        }
        for (obs::LedgerRecord rec : results[i].out.ledger.records) {
            if (rec.madeAt < cut) {
                // Pre-cut carry: the resolved form of a prediction the
                // previous shard reported as unresolved at its stop.
                // Patch that seam record in place (the seq streams of
                // full-warmup replays are identical; finite-warmup
                // shards have incomparable seqs, so the seam records
                // stay unresolved there — a documented approximation).
                if (!fullWarmup)
                    continue;
                const auto it = unresolvedSeam.find(rec.seq);
                if (it == unresolvedSeam.end())
                    continue;
                obs::LedgerRecord &t = r.ledger.records[it->second];
                t.outcome = rec.outcome;
                t.resolvedAt = rec.resolvedAt - cut + offset;
                t.consumers = rec.consumers;
                t.reissues = rec.reissues;
                t.committed = rec.committed;
                unresolvedSeam.erase(it);
                continue;
            }
            rec.madeAt = rec.madeAt - cut + offset;
            if (rec.outcome != obs::LedgerOutcome::Unresolved)
                rec.resolvedAt = rec.resolvedAt - cut + offset;
            else if (i + 1 < n)
                unresolvedSeam.emplace(rec.seq,
                                       r.ledger.records.size());
            r.ledger.records.push_back(rec);
        }
        offset += results[i].out.stats.cycles;
    }

    // The final shard must have consumed the trace to its HALT; the
    // earlier shards stop at their boundary instead of halting.
    VSIM_ASSERT(results[n - 1].out.halted,
                "final shard of ", workload,
                " did not finish within the cycle limit");
    if (cfg.warmupInsts == UINT64_MAX)
        VSIM_ASSERT(merged.retired == len,
                    "full-warmup shards did not partition the trace: ",
                    merged.retired, " != ", len);
    return r;
}

} // namespace vsim::sim
