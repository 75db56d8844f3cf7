/**
 * @file
 * Tests for checkpointable core state and sharded interval
 * simulation: SimSnapshot serialization round trips, the
 * functional-warmup pass's determinism, the shard planner's
 * partition arithmetic, bit-identity of full-warmup shard merges
 * against the monolithic run (stats, interval series and the
 * speculation ledger, across every kernel, both sweep kinds and
 * trace replay), the finite-warmup error bound and inline-vs-pool
 * identity (more plans than workers included), the round trip of
 * every table a snapshot saves, and the RunCache jobKey salting of the
 * new partition knobs.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "vsim/arch/functional_core.hh"
#include "vsim/base/logging.hh"
#include "vsim/base/random.hh"
#include "vsim/base/state_io.hh"
#include "vsim/bpred/bpred.hh"
#include "vsim/core/ooo_core.hh"
#include "vsim/core/snapshot.hh"
#include "vsim/sim/disk_cache.hh"
#include "vsim/sim/shard.hh"
#include "vsim/sim/simulator.hh"
#include "vsim/sim/sweep.hh"
#include "vsim/mem/cache.hh"
#include "vsim/trace/trace_io.hh"
#include "vsim/vpred/vpred.hh"
#include "vsim/workloads/workloads.hh"

namespace
{

using namespace vsim;

core::CoreConfig
vpShardConfig()
{
    core::CoreConfig cfg =
        sim::vpConfig({8, 48}, core::SpecModel::greatModel(),
                      core::ConfidenceKind::Real,
                      core::UpdateTiming::Delayed);
    cfg.specLedger = true;
    cfg.metricsInterval = 5000;
    return cfg;
}

/** Full comparison of two runs: every aggregate, sample and record. */
void
expectIdenticalRuns(const sim::RunResult &got, const sim::RunResult &want)
{
    EXPECT_EQ(got.stats, want.stats);
    EXPECT_EQ(got.instructions, want.instructions);
    EXPECT_EQ(got.ipc, want.ipc);
    EXPECT_EQ(got.exitCode, want.exitCode);
    EXPECT_EQ(got.output, want.output);
    EXPECT_EQ(got.intervals, want.intervals);
    EXPECT_EQ(got.ledger, want.ledger);
}

std::string
tmpPath(const std::string &stem)
{
    return testing::TempDir() + "vsim_shard_" + stem + ".vst";
}

// ---- snapshot serialization -------------------------------------------

TEST(Snapshot, BytesRoundTripIsIdentity)
{
    const auto prog =
        workloads::buildProgram(workloads::byName("queens"), 1);
    const arch::ExecTrace trace = arch::preExecute(prog);
    ASSERT_GT(trace.entries.size(), 6000u);

    const std::vector<std::uint64_t> points = {1000, 6000};
    const std::vector<core::SimSnapshot> snaps =
        core::functionalWarmup(prog, trace, vpShardConfig(), points);
    ASSERT_EQ(snaps.size(), points.size());
    for (std::size_t i = 0; i < snaps.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(points[i]));
        EXPECT_EQ(snaps[i].instIndex, points[i]);
        EXPECT_EQ(snaps[i].pc, trace.entries[points[i]].pc);
        const std::vector<std::uint8_t> bytes = snaps[i].toBytes();
        EXPECT_FALSE(bytes.empty());
        EXPECT_EQ(core::SimSnapshot::fromBytes(bytes), snaps[i]);
        // Serialization is deterministic byte for byte.
        EXPECT_EQ(core::SimSnapshot::fromBytes(bytes).toBytes(), bytes);
    }
}

TEST(Snapshot, WarmupPassIsDeterministic)
{
    const auto prog =
        workloads::buildProgram(workloads::byName("compress"), 1);
    const arch::ExecTrace trace = arch::preExecute(prog);
    const std::vector<std::uint64_t> points = {2500};
    const core::CoreConfig cfg = vpShardConfig();
    const auto a = core::functionalWarmup(prog, trace, cfg, points);
    const auto b = core::functionalWarmup(prog, trace, cfg, points);
    ASSERT_EQ(a.size(), 1u);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(a[0], b[0]);
}

// ---- shard planner -----------------------------------------------------

TEST(PlanShards, NearEqualPartitionCoversTrace)
{
    core::CoreConfig cfg;
    cfg.shards = 4;
    const auto plan = sim::planShards(10, cfg);
    ASSERT_EQ(plan.size(), 4u);
    EXPECT_EQ(plan.front().start, 0u);
    EXPECT_EQ(plan.back().stop, 10u);
    for (std::size_t i = 0; i < plan.size(); ++i) {
        EXPECT_LT(plan[i].start, plan[i].stop);
        if (i > 0) {
            EXPECT_EQ(plan[i].start, plan[i - 1].stop);
        }
        // Default warmup is full replay: every shard starts at 0.
        EXPECT_EQ(plan[i].warmStart, 0u);
    }
}

TEST(PlanShards, ShardCountClampsToTraceLength)
{
    core::CoreConfig cfg;
    cfg.shards = 20;
    const auto plan = sim::planShards(5, cfg);
    ASSERT_EQ(plan.size(), 5u);
    for (std::size_t i = 0; i < plan.size(); ++i) {
        EXPECT_EQ(plan[i].start, i);
        EXPECT_EQ(plan[i].stop, i + 1);
    }
}

TEST(PlanShards, IntervalModeWithRaggedTail)
{
    core::CoreConfig cfg;
    cfg.intervalInsts = 3;
    const auto plan = sim::planShards(10, cfg);
    ASSERT_EQ(plan.size(), 4u);
    EXPECT_EQ(plan[3].start, 9u);
    EXPECT_EQ(plan[3].stop, 10u);
    for (std::size_t i = 0; i + 1 < plan.size(); ++i)
        EXPECT_EQ(plan[i].stop - plan[i].start, 3u);
}

TEST(PlanShards, FiniteWarmupClampsAtTraceStart)
{
    core::CoreConfig cfg;
    cfg.shards = 4;
    cfg.warmupInsts = 3;
    const auto plan = sim::planShards(12, cfg);
    ASSERT_EQ(plan.size(), 4u);
    // starts 0,3,6,9 with W=3: warmStart = max(0, start - 3).
    EXPECT_EQ(plan[0].warmStart, 0u);
    EXPECT_EQ(plan[1].warmStart, 0u);
    EXPECT_EQ(plan[2].warmStart, 3u);
    EXPECT_EQ(plan[3].warmStart, 6u);
}

TEST(PlanShards, BothPartitionKnobsAreFatal)
{
    core::CoreConfig cfg;
    cfg.shards = 2;
    cfg.intervalInsts = 100;
    EXPECT_TRUE(sim::shardingRequested(cfg));
    EXPECT_THROW(sim::planShards(1000, cfg), FatalError);
}

TEST(PlanShards, ShardingRequestedMatchesKnobs)
{
    core::CoreConfig cfg;
    EXPECT_FALSE(sim::shardingRequested(cfg));
    cfg.shards = 2;
    EXPECT_TRUE(sim::shardingRequested(cfg));
    cfg.shards = 0;
    cfg.intervalInsts = 5000;
    EXPECT_TRUE(sim::shardingRequested(cfg));
}

// ---- full-warmup bit-identity ------------------------------------------

TEST(ShardMerge, FullWarmupIdenticalAcrossShardCounts)
{
    const core::CoreConfig mono = vpShardConfig();
    const sim::RunResult want = sim::runWorkload("queens", 1, mono);
    for (const std::uint64_t n : {1u, 2u, 5u, 8u}) {
        SCOPED_TRACE("shards=" + std::to_string(n));
        core::CoreConfig cfg = mono;
        cfg.shards = n;
        expectIdenticalRuns(sim::runWorkload("queens", 1, cfg), want);
    }
}

TEST(ShardMerge, FullWarmupIdenticalOnEveryKernel)
{
    for (const workloads::Workload &w : workloads::all()) {
        SCOPED_TRACE(w.name);
        const core::CoreConfig mono = vpShardConfig();
        const sim::RunResult want = sim::runWorkload(w.name, 1, mono);
        core::CoreConfig cfg = mono;
        cfg.shards = 3;
        expectIdenticalRuns(sim::runWorkload(w.name, 1, cfg), want);
    }
}

TEST(ShardMerge, FullWarmupIdenticalUnderBothSweepKinds)
{
    for (const core::SweepKind kind :
         {core::SweepKind::Sparse, core::SweepKind::Dense}) {
        SCOPED_TRACE(kind == core::SweepKind::Sparse ? "sparse"
                                                     : "dense");
        core::CoreConfig mono = vpShardConfig();
        mono.sweepKind = kind;
        const sim::RunResult want = sim::runWorkload("m88k", 1, mono);
        core::CoreConfig cfg = mono;
        cfg.shards = 4;
        expectIdenticalRuns(sim::runWorkload("m88k", 1, cfg), want);
    }
}

TEST(ShardMerge, IntervalModePartitionIsIdenticalToo)
{
    const core::CoreConfig mono = vpShardConfig();
    const sim::RunResult want = sim::runWorkload("compress", 1, mono);
    core::CoreConfig cfg = mono;
    cfg.intervalInsts = 7000; // ragged tail interval included
    expectIdenticalRuns(sim::runWorkload("compress", 1, cfg), want);
}

TEST(ShardMerge, FullWarmupIdenticalOnTraceReplay)
{
    const std::string path = tmpPath("replay");
    const auto prog =
        workloads::buildProgram(workloads::byName("queens"), 1);
    ASSERT_GT(trace::recordTrace(prog, path), 0u);

    const std::string name = sim::traceWorkloadName(path);
    const core::CoreConfig mono = vpShardConfig();
    const sim::RunResult want = sim::runWorkload(name, -1, mono);
    core::CoreConfig cfg = mono;
    cfg.shards = 4;
    expectIdenticalRuns(sim::runWorkload(name, -1, cfg), want);
    std::remove(path.c_str());
}

TEST(ShardMerge, ParallelWorkersMatchInline)
{
    core::CoreConfig inline_cfg = vpShardConfig();
    inline_cfg.shards = 5;
    inline_cfg.shardJobs = 1;
    const sim::RunResult a = sim::runWorkload("go", 1, inline_cfg);
    core::CoreConfig pool_cfg = inline_cfg;
    pool_cfg.shardJobs = 4;
    expectIdenticalRuns(sim::runWorkload("go", 1, pool_cfg), a);
}

// ---- finite warmup ------------------------------------------------------

/** A RunResult's disk-cache encoding: every byte a cached run keeps. */
std::vector<std::uint8_t>
encoded(const sim::RunResult &r)
{
    StateWriter w;
    sim::saveRunResult(w, r);
    return w.take();
}

/**
 * At finite warmup the pool starts each shard the moment its snapshot
 * is minted, while the caller is still warming up towards the next
 * one; the inline path warms up first and then runs the shards in
 * order. Both must give the same result, byte for byte.
 */
TEST(ShardMerge, FiniteWarmupParallelMatchesInline)
{
    core::CoreConfig inline_cfg = vpShardConfig();
    inline_cfg.shards = 4;
    inline_cfg.warmupInsts = 20000;
    inline_cfg.shardJobs = 1;
    const sim::RunResult a = sim::runWorkload("queens", 1, inline_cfg);
    ASSERT_FALSE(a.ledger.records.empty());
    core::CoreConfig pool_cfg = inline_cfg;
    pool_cfg.shardJobs = 4;
    EXPECT_EQ(encoded(sim::runWorkload("queens", 1, pool_cfg)),
              encoded(a));
}

/**
 * More plans than workers: when the warmup mints its last snapshot,
 * plans are still queued, and the warmup thread runs them beside the
 * workers. Eight finite-warmup shards and a sampled run with seven
 * representatives must give the inline result, byte for byte, on 2
 * and 4 workers.
 */
TEST(ShardMerge, MorePlansThanWorkersMatchInline)
{
    core::CoreConfig shards = vpShardConfig();
    shards.shards = 8;
    shards.warmupInsts = 20000;
    core::CoreConfig sampled = vpShardConfig();
    sampled.sampleK = 8;
    sampled.sampleIntervalInsts = 20000;
    for (core::CoreConfig cfg : {shards, sampled}) {
        SCOPED_TRACE(cfg.sampleK ? "sampled" : "shards");
        cfg.shardJobs = 1;
        const std::vector<std::uint8_t> want =
            encoded(sim::runWorkload("queens", 1, cfg));
        for (const int jobs : {2, 4}) {
            SCOPED_TRACE(jobs);
            cfg.shardJobs = jobs;
            EXPECT_EQ(encoded(sim::runWorkload("queens", 1, cfg)), want);
        }
    }
}

TEST(ShardMerge, FiniteWarmupStaysWithinErrorBound)
{
    const core::CoreConfig mono = vpShardConfig();
    const sim::RunResult want = sim::runWorkload("queens", 1, mono);
    core::CoreConfig cfg = mono;
    cfg.shards = 4;
    cfg.warmupInsts = 20000;
    const sim::RunResult got = sim::runWorkload("queens", 1, cfg);
    // The architectural outcome is exact regardless of warmup.
    EXPECT_EQ(got.exitCode, want.exitCode);
    EXPECT_EQ(got.output, want.output);
    // Timing is approximate: the documented bound for this kernel at
    // W=20k is well under 1%; gate at 1% so regressions surface.
    const double ratio = static_cast<double>(got.stats.cycles)
                         / static_cast<double>(want.stats.cycles);
    EXPECT_NEAR(ratio, 1.0, 0.01);
    // Retired counts may differ only by boundary overshoot (a few
    // instructions per seam at most).
    const std::int64_t drift =
        static_cast<std::int64_t>(got.stats.retired)
        - static_cast<std::int64_t>(want.stats.retired);
    EXPECT_LT(std::abs(drift), 64);
}

// ---- snapshot table round trips ----------------------------------------

/** @p x's saved bytes. */
template <typename T>
std::vector<std::uint8_t>
saved(const T &x)
{
    StateWriter w;
    x.save(w);
    return w.take();
}

/** @p bytes restored into @p x, which must consume every byte. */
template <typename T>
void
restoreAll(T &x, const std::vector<std::uint8_t> &bytes)
{
    StateReader r(bytes);
    x.restore(r);
    EXPECT_TRUE(r.done());
}

/** A pc from a small pool, so tables see repeats and conflicts. */
std::uint64_t
somePc(Xoshiro256 &rng)
{
    return 0x1000 + 4 * rng.nextBounded(3000);
}

/** A value stream mixing strides, repeats and noise per pc. */
std::uint64_t
someValue(Xoshiro256 &rng, std::uint64_t pc, std::uint64_t i)
{
    switch (rng.nextBounded(3)) {
    case 0: return pc * 8 + i;
    case 1: return pc;
    default: return rng.next();
    }
}

/** One predict/train step; returns the prediction made. */
vpred::Prediction
vpStep(vpred::ValuePredictor &vp, std::uint64_t pc, std::uint64_t value)
{
    const vpred::Prediction p = vp.predict(pc);
    vp.pushHistory(pc, p.value);
    vp.updateTable(pc, p.token, value);
    vp.commitHistory(pc, value, p.value == value);
    return p;
}

/**
 * Every value predictor: after training, restore(save(x)) into a fresh
 * instance saves the same bytes and makes the same next predictions.
 */
TEST(TableRoundTrip, ValuePredictors)
{
    for (const std::string &name : vpred::valuePredictorNames()) {
        SCOPED_TRACE(name);
        Xoshiro256 rng(7);
        auto x = vpred::makeValuePredictor(name);
        for (std::uint64_t i = 0; i < 50000; ++i) {
            const std::uint64_t pc = somePc(rng);
            vpStep(*x, pc, someValue(rng, pc, i));
        }
        const std::vector<std::uint8_t> bytes = saved(*x);
        auto y = vpred::makeValuePredictor(name);
        restoreAll(*y, bytes);
        EXPECT_EQ(saved(*y), bytes);
        for (std::uint64_t i = 0; i < 20000; ++i) {
            const std::uint64_t pc = somePc(rng);
            const std::uint64_t value = someValue(rng, pc, i);
            const vpred::Prediction a = vpStep(*x, pc, value);
            const vpred::Prediction b = vpStep(*y, pc, value);
            ASSERT_EQ(a.value, b.value) << "step " << i;
            ASSERT_EQ(a.token, b.token) << "step " << i;
        }
    }
}

TEST(TableRoundTrip, ConfidenceTable)
{
    Xoshiro256 rng(11);
    vpred::ResettingConfidence x(3, 16);
    for (int i = 0; i < 200000; ++i)
        x.update(somePc(rng), rng.nextBool(0.8));
    const std::vector<std::uint8_t> bytes = saved(x);
    vpred::ResettingConfidence y(3, 16);
    restoreAll(y, bytes);
    EXPECT_EQ(saved(y), bytes);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t pc = somePc(rng);
        ASSERT_EQ(x.confident(pc), y.confident(pc)) << "step " << i;
        const bool correct = rng.nextBool(0.8);
        x.update(pc, correct);
        y.update(pc, correct);
    }
}

TEST(TableRoundTrip, Gshare)
{
    Xoshiro256 rng(13);
    auto x = bpred::makeBranchPredictor("gshare");
    for (int i = 0; i < 200000; ++i) {
        const std::uint64_t pc = somePc(rng);
        x->predict(pc);
        x->update(pc, rng.nextBool(pc % 3 ? 0.9 : 0.2));
    }
    const std::vector<std::uint8_t> bytes = saved(*x);
    auto y = bpred::makeBranchPredictor("gshare");
    restoreAll(*y, bytes);
    EXPECT_EQ(saved(*y), bytes);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t pc = somePc(rng);
        ASSERT_EQ(x->predict(pc), y->predict(pc)) << "step " << i;
        const bool taken = rng.nextBool(pc % 3 ? 0.9 : 0.2);
        x->update(pc, taken);
        y->update(pc, taken);
    }
}

/** Each cache the core builds: same bytes, then same hits and victims. */
TEST(TableRoundTrip, Caches)
{
    const core::CoreConfig cfg;
    for (const mem::CacheConfig &geometry :
         {cfg.icache, cfg.dcache, cfg.l2cache}) {
        SCOPED_TRACE(geometry.name);
        Xoshiro256 rng(17);
        // Addresses over four times the capacity, so sets fill, evict
        // and hold dirty lines.
        const std::uint64_t span = 4 * geometry.sizeBytes;
        mem::Cache x(geometry);
        for (int i = 0; i < 200000; ++i)
            x.access(rng.nextBounded(span), rng.nextBool(0.3));
        const std::vector<std::uint8_t> bytes = saved(x);
        mem::Cache y(geometry);
        restoreAll(y, bytes);
        EXPECT_EQ(saved(y), bytes);
        for (int i = 0; i < 20000; ++i) {
            const std::uint64_t addr = rng.nextBounded(span);
            const bool write = rng.nextBool(0.3);
            mem::Eviction ex, ey;
            ASSERT_EQ(x.access(addr, write, &ex), y.access(addr, write, &ey))
                << "step " << i;
            ASSERT_EQ(ex.valid, ey.valid) << "step " << i;
            ASSERT_EQ(ex.dirty, ey.dirty) << "step " << i;
            ASSERT_EQ(ex.addr, ey.addr) << "step " << i;
        }
        EXPECT_EQ(x.writebacks(), y.writebacks());
    }
}

// ---- RunCache jobKey ----------------------------------------------------

TEST(ShardJobKey, PartitionAndWarmupAreSalted)
{
    sim::SweepJob job;
    job.label = "x";
    job.workload = "queens";
    job.scale = 1;
    job.cfg = vpShardConfig();
    const std::string base = sim::jobKey(job);

    sim::SweepJob sharded = job;
    sharded.cfg.shards = 4;
    EXPECT_NE(sim::jobKey(sharded), base);

    sim::SweepJob interval = job;
    interval.cfg.intervalInsts = 50000;
    EXPECT_NE(sim::jobKey(interval), base);
    EXPECT_NE(sim::jobKey(interval), sim::jobKey(sharded));

    sim::SweepJob warm = sharded;
    warm.cfg.warmupInsts = 10000;
    EXPECT_NE(sim::jobKey(warm), sim::jobKey(sharded));

    // The worker count is an execution resource, not a result shape:
    // it must NOT invalidate cached results.
    sim::SweepJob jobs8 = sharded;
    jobs8.cfg.shardJobs = 8;
    EXPECT_EQ(sim::jobKey(jobs8), sim::jobKey(sharded));
}

} // namespace
