/**
 * @file
 * Tests for SimPoint-style sampled simulation: BBV profiling
 * determinism and arithmetic invariants, seeded k-means determinism
 * and degenerate fallbacks, weighted statistic merges against
 * hand-computed values, the sampled-vs-full speedup error bound on
 * every kernel, RunCache jobKey salting of the sampling flags, and
 * the word-scan helpers in mask_ops.hh. (End-to-end bit-identity of
 * the branchless scans is proven separately by test_core_xprod's
 * golden digests, which cover the full policy cross product.)
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "vsim/arch/bbv.hh"
#include "vsim/arch/functional_core.hh"
#include "vsim/base/logging.hh"
#include "vsim/core/core_stats.hh"
#include "vsim/core/mask_ops.hh"
#include "vsim/obs/registry.hh"
#include "vsim/sim/disk_cache.hh"
#include "vsim/sim/sample.hh"
#include "vsim/sim/shard.hh"
#include "vsim/sim/simulator.hh"
#include "vsim/sim/sweep.hh"
#include "vsim/workloads/workloads.hh"
#include "mask_width.hh"

namespace
{

using namespace vsim;
using vsim::testutil::forEachMaskWidth;

core::CoreConfig
vpSampleConfig()
{
    core::CoreConfig cfg =
        sim::vpConfig({8, 48}, core::SpecModel::goodModel(),
                      core::ConfidenceKind::Real,
                      core::UpdateTiming::Delayed);
    return cfg;
}

arch::ExecTrace
kernelTrace(const std::string &name, int scale = 1)
{
    const auto prog =
        workloads::buildProgram(workloads::byName(name), scale);
    return arch::preExecute(prog);
}

/** Every structural invariant a SamplePlan must satisfy. */
void
expectValidPlan(const sim::SamplePlan &plan, std::size_t n)
{
    ASSERT_EQ(plan.assignment.size(), n);
    const std::size_t k = plan.clusters();
    ASSERT_EQ(plan.weights.size(), k);
    ASSERT_GE(k, 1u);
    ASSERT_LE(k, n);
    std::vector<std::uint64_t> population(k, 0);
    for (const std::uint32_t c : plan.assignment) {
        ASSERT_LT(c, k);
        ++population[c];
    }
    std::uint64_t total = 0;
    for (std::size_t c = 0; c < k; ++c) {
        // Weight is the cluster population; no cluster is empty and
        // the representative belongs to the cluster it represents.
        EXPECT_EQ(plan.weights[c], population[c]);
        EXPECT_GT(plan.weights[c], 0u);
        ASSERT_LT(plan.representatives[c], n);
        EXPECT_EQ(plan.assignment[plan.representatives[c]], c);
        total += plan.weights[c];
    }
    EXPECT_EQ(total, n);
}

// ---- BBV profiling ------------------------------------------------------

TEST(Bbv, BucketIsDeterministicAndInRange)
{
    for (const std::uint64_t pc : {0ull, 4ull, 0x1000ull, ~0ull}) {
        const std::size_t b = arch::bbvBucket(pc);
        EXPECT_LT(b, arch::kBbvDim);
        EXPECT_EQ(arch::bbvBucket(pc), b);
    }
    // The projection actually spreads: distinct nearby PCs must not
    // all collapse into one bucket.
    std::vector<bool> hit(arch::kBbvDim, false);
    for (std::uint64_t pc = 0; pc < 64 * 4; pc += 4)
        hit[arch::bbvBucket(pc)] = true;
    EXPECT_GT(std::count(hit.begin(), hit.end(), true), 8);
}

TEST(Bbv, ComponentsSumToIntervalLength)
{
    const arch::ExecTrace trace = kernelTrace("queens");
    const std::uint64_t len = trace.entries.size();
    const std::uint64_t K = 5000;
    const auto bbvs = arch::profileBbv(trace, K);
    ASSERT_EQ(bbvs.size(), (len + K - 1) / K);
    for (std::size_t i = 0; i < bbvs.size(); ++i) {
        const std::uint64_t want =
            i + 1 < bbvs.size() ? K : len - K * (bbvs.size() - 1);
        const std::uint64_t got = std::accumulate(
            bbvs[i].begin(), bbvs[i].end(), std::uint64_t{0});
        EXPECT_EQ(got, want) << "interval " << i;
    }
}

TEST(Bbv, AccumulatorMatchesWholeTraceProfile)
{
    const arch::ExecTrace trace = kernelTrace("compress");
    const std::uint64_t K = 3000;
    arch::BbvAccumulator acc(K);
    for (const arch::TraceEntry &e : trace.entries)
        acc.step(e);
    acc.finish();
    EXPECT_EQ(acc.intervals(), arch::profileBbv(trace, K));
}

TEST(Bbv, ProfileIsDeterministic)
{
    const arch::ExecTrace trace = kernelTrace("go");
    EXPECT_EQ(arch::profileBbv(trace, 4000),
              arch::profileBbv(trace, 4000));
}

/**
 * Workers profile contiguous ranges of intervals, each resuming the
 * basic block in flight at its first instruction: the vectors are the
 * serial ones at any worker count, for the sampled runs' K (five
 * intervals of a ~2M-instruction trace) and for a K that is not a
 * multiple of the 4096-record load burst.
 */
TEST(Bbv, ProfileIsIdenticalAcrossWorkerCounts)
{
    const arch::ExecTrace trace = kernelTrace("queens", 5);
    for (const std::uint64_t K :
         {std::uint64_t(500000), std::uint64_t(4099)}) {
        SCOPED_TRACE("K " + std::to_string(K));
        const auto serial = arch::profileBbv(trace, K);
        ASSERT_GE(serial.size(), 5u);
        for (const int workers : {2, 4})
            EXPECT_EQ(arch::profileBbv(trace, K, workers), serial)
                << workers << " workers";
    }
}

// ---- clustering ---------------------------------------------------------

TEST(Cluster, SameSeedSamePlan)
{
    const auto bbvs = arch::profileBbv(kernelTrace("m88k"), 2000);
    ASSERT_GT(bbvs.size(), 4u);
    const sim::SamplePlan a = sim::clusterIntervals(bbvs, 4);
    const sim::SamplePlan b = sim::clusterIntervals(bbvs, 4);
    EXPECT_EQ(a, b);
    expectValidPlan(a, bbvs.size());
    EXPECT_LE(a.clusters(), 4u);
}

TEST(Cluster, ExplicitSeedsAreDeterministicToo)
{
    const auto bbvs = arch::profileBbv(kernelTrace("perl"), 2000);
    ASSERT_GT(bbvs.size(), 2u);
    for (const std::uint64_t seed :
         {std::uint64_t(1), std::uint64_t(42), sim::kSampleSeed}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const sim::SamplePlan a = sim::clusterIntervals(bbvs, 3, seed);
        EXPECT_EQ(a, sim::clusterIntervals(bbvs, 3, seed));
        expectValidPlan(a, bbvs.size());
    }
}

TEST(Cluster, MaxKAtOrAboveIntervalCountIsFullDetail)
{
    const auto bbvs = arch::profileBbv(kernelTrace("queens"), 2000);
    const std::size_t n = bbvs.size();
    ASSERT_GT(n, 1u);
    for (const std::uint64_t maxK : {std::uint64_t(0), std::uint64_t(n),
                                     std::uint64_t(n + 7)}) {
        SCOPED_TRACE("maxK " + std::to_string(maxK));
        const sim::SamplePlan plan = sim::clusterIntervals(bbvs, maxK);
        ASSERT_EQ(plan.clusters(), n);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(plan.assignment[i], i);
            EXPECT_EQ(plan.representatives[i], i);
            EXPECT_EQ(plan.weights[i], 1u);
        }
    }
}

TEST(Cluster, SingleIntervalAndSinglePhasePrograms)
{
    // One interval: one singleton cluster whatever maxK says.
    const std::vector<arch::Bbv> one(1);
    const sim::SamplePlan p1 = sim::clusterIntervals(one, 8);
    ASSERT_EQ(p1.clusters(), 1u);
    EXPECT_EQ(p1.weights[0], 1u);
    EXPECT_EQ(p1.representatives[0], 0u);

    // A perfectly homogeneous program: every interval has the same
    // shape, so any maxK collapses to one phase carrying all weight.
    arch::Bbv uniform{};
    uniform[3] = 900;
    uniform[17] = 100;
    const std::vector<arch::Bbv> same(12, uniform);
    const sim::SamplePlan p = sim::clusterIntervals(same, 6);
    expectValidPlan(p, same.size());
    ASSERT_EQ(p.clusters(), 1u);
    EXPECT_EQ(p.weights[0], 12u);
}

TEST(Cluster, SeparatesObviousPhases)
{
    // Two far-apart shapes must land in two clusters with the right
    // populations (8 + 4), regardless of which cluster gets which id.
    arch::Bbv a{}, b{};
    a[0] = 1000;
    b[31] = 1000;
    std::vector<arch::Bbv> bbvs(8, a);
    bbvs.insert(bbvs.end(), 4, b);
    const sim::SamplePlan plan = sim::clusterIntervals(bbvs, 4);
    expectValidPlan(plan, bbvs.size());
    ASSERT_EQ(plan.clusters(), 2u);
    const std::uint64_t w0 = plan.weights[0], w1 = plan.weights[1];
    EXPECT_EQ(std::max(w0, w1), 8u);
    EXPECT_EQ(std::min(w0, w1), 4u);
    // All of phase a maps to one cluster, all of phase b to the other.
    for (std::size_t i = 1; i < 8; ++i)
        EXPECT_EQ(plan.assignment[i], plan.assignment[0]);
    for (std::size_t i = 9; i < 12; ++i)
        EXPECT_EQ(plan.assignment[i], plan.assignment[8]);
    EXPECT_NE(plan.assignment[0], plan.assignment[8]);
}

// ---- weighted merges ----------------------------------------------------

TEST(WeightedMerge, CoreStatsScalarsAreScaledSums)
{
    core::CoreStats a;
    a.cycles = 100;
    a.retired = 70;
    a.fetched = 90;
    a.condBranches = 11;
    a.vpSpeculated = 5;
    core::CoreStats b;
    b.cycles = 7;
    b.retired = 6;
    b.fetched = 8;
    b.condBranches = 2;
    b.vpSpeculated = 1;
    b.cpi.cycles[0] = 4;

    core::CoreStats m = a;
    m.mergeWeighted(b, 3);
    EXPECT_EQ(m.cycles, 100u + 3 * 7u);
    EXPECT_EQ(m.retired, 70u + 3 * 6u);
    EXPECT_EQ(m.fetched, 90u + 3 * 8u);
    EXPECT_EQ(m.condBranches, 11u + 3 * 2u);
    EXPECT_EQ(m.vpSpeculated, 5u + 3 * 1u);
    EXPECT_EQ(m.cpi.cycles[0], 3 * 4u);

    // Weight 1 degenerates to the plain merge; weight 0 is a no-op.
    core::CoreStats w1 = a;
    w1.mergeWeighted(b, 1);
    core::CoreStats plain = a;
    plain.merge(b);
    EXPECT_EQ(w1, plain);
    core::CoreStats w0 = a;
    w0.mergeWeighted(b, 0);
    EXPECT_EQ(w0, a);
}

TEST(WeightedMerge, EqualsRepeatedMerge)
{
    // The defining property: mergeWeighted(x, w) == w plain merges.
    core::CoreStats b;
    b.cycles = 13;
    b.retired = 9;
    b.squashes = 2;
    b.verifyLatency.sample(5);
    b.verifyLatency.sample(300);
    b.cpi.cycles[1] = 6;

    core::CoreStats weighted;
    weighted.mergeWeighted(b, 5);
    core::CoreStats repeated;
    for (int i = 0; i < 5; ++i)
        repeated.merge(b);
    EXPECT_EQ(weighted, repeated);
}

TEST(WeightedMerge, HistogramArithmeticHandComputed)
{
    obs::Histogram h("h", "", "u", 10, 4), o("h", "", "u", 10, 4);
    h.sample(1);
    h.sample(5);
    o.sample(25);
    o.sample(999); // overflow bucket

    h.mergeWeighted(o, 4);
    EXPECT_EQ(h.count(), 2u + 4 * 2u);
    EXPECT_EQ(h.sum(), 6u + 4 * (25u + 999u));
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(2), 4u);
    EXPECT_EQ(h.overflow(), 4u);
    // min/max combine unscaled: repetition does not move the range.
    EXPECT_EQ(h.min(), 1u);
    EXPECT_EQ(h.max(), 999u);

    // Weight 0 and empty-other are no-ops.
    obs::Histogram before = h;
    h.mergeWeighted(o, 0);
    EXPECT_EQ(h, before);
    obs::Histogram empty("h", "", "u", 10, 4);
    h.mergeWeighted(empty, 100);
    EXPECT_EQ(h, before);
}

// ---- sampled replay -----------------------------------------------------

TEST(SampledRun, DeterministicAcrossJobsAndSweepKinds)
{
    for (const core::SweepKind kind :
         {core::SweepKind::Sparse, core::SweepKind::Dense}) {
        SCOPED_TRACE(kind == core::SweepKind::Sparse ? "sparse"
                                                     : "dense");
        core::CoreConfig cfg = vpSampleConfig();
        cfg.sweepKind = kind;
        cfg.sampleK = 4;
        cfg.sampleIntervalInsts = 20000;
        cfg.metricsInterval = 5000;
        cfg.shardJobs = 1;
        const sim::RunResult a = sim::runWorkload("queens", -1, cfg);
        cfg.shardJobs = 4;
        const sim::RunResult b = sim::runWorkload("queens", -1, cfg);
        EXPECT_EQ(a.stats, b.stats);
        EXPECT_EQ(a.instructions, b.instructions);
        EXPECT_EQ(a.exitCode, b.exitCode);
        EXPECT_EQ(a.output, b.output);
        EXPECT_EQ(a.intervals, b.intervals);
        EXPECT_FALSE(a.intervals.samples.empty());
    }
}

/**
 * Jobs 1 warms up and then runs the representatives in order; jobs 4
 * starts each one as its snapshot is minted. The merged ledger records
 * must match record for record, and every other byte of the result
 * too.
 */
TEST(SampledRun, LedgerIdenticalAcrossJobs)
{
    core::CoreConfig cfg = vpSampleConfig();
    cfg.sampleK = 4;
    cfg.sampleIntervalInsts = 20000;
    cfg.metricsInterval = 5000;
    cfg.specLedger = true;
    cfg.shardJobs = 1;
    const sim::RunResult a = sim::runWorkload("queens", -1, cfg);
    cfg.shardJobs = 4;
    const sim::RunResult b = sim::runWorkload("queens", -1, cfg);
    ASSERT_FALSE(a.ledger.records.empty());
    EXPECT_EQ(a.ledger, b.ledger);
    StateWriter wa, wb;
    sim::saveRunResult(wa, a);
    sim::saveRunResult(wb, b);
    EXPECT_EQ(wa.take(), wb.take());
}

TEST(SampledRun, ArchitecturalOutcomeIsExact)
{
    core::CoreConfig cfg = vpSampleConfig();
    const sim::RunResult full = sim::runWorkload("cc", -1, cfg);
    cfg.sampleK = 4;
    cfg.sampleIntervalInsts = 20000;
    cfg.shardJobs = 4;
    const sim::RunResult sampled = sim::runWorkload("cc", -1, cfg);
    // Sampling approximates timing, never architecture: the final
    // representative runs the trace to its HALT, so exit code and
    // program output are exact, and the weighted retired count matches
    // the trace to within one retire group per interval boundary.
    EXPECT_EQ(sampled.exitCode, full.exitCode);
    EXPECT_EQ(sampled.output, full.output);
    const double rel =
        std::abs(static_cast<double>(sampled.stats.retired)
                 - static_cast<double>(full.stats.retired))
        / static_cast<double>(full.stats.retired);
    EXPECT_LT(rel, 1e-3);
}

TEST(SampledRun, SpeedupErrorWithinBoundOnEveryKernel)
{
    // The headline accuracy contract (also gated in check.sh): the
    // base-vs-VP speedup measured on sampled runs stays within 2% of
    // the full-detail speedup, on every kernel of the suite.
    for (const workloads::Workload &w : workloads::all()) {
        SCOPED_TRACE(w.name);
        core::CoreConfig vp = vpSampleConfig();
        core::CoreConfig base = vp;
        base.useValuePrediction = false;

        const double full_speedup =
            static_cast<double>(
                sim::runWorkload(w.name, -1, base).stats.cycles)
            / static_cast<double>(
                sim::runWorkload(w.name, -1, vp).stats.cycles);

        for (core::CoreConfig *cfg : {&vp, &base}) {
            cfg->sampleK = 4;
            cfg->sampleIntervalInsts = 20000;
            cfg->shardJobs = 4;
        }
        const double sampled_speedup =
            static_cast<double>(
                sim::runWorkload(w.name, -1, base).stats.cycles)
            / static_cast<double>(
                sim::runWorkload(w.name, -1, vp).stats.cycles);

        EXPECT_NEAR(sampled_speedup / full_speedup, 1.0, 0.02)
            << "full " << full_speedup << " sampled "
            << sampled_speedup;
    }
}

// ---- validation + jobKey ------------------------------------------------

TEST(SampleConfig, InconsistentPartitionsAreFatal)
{
    core::CoreConfig cfg = vpSampleConfig();
    cfg.sampleK = 4;
    cfg.shards = 2;
    EXPECT_THROW(sim::validatePartition(cfg), FatalError);
    cfg.shards = 0;
    cfg.intervalInsts = 1000;
    EXPECT_THROW(sim::validatePartition(cfg), FatalError);
    cfg.intervalInsts = 0;
    EXPECT_NO_THROW(sim::validatePartition(cfg));

    // The interval length alone asks for nothing.
    core::CoreConfig lone = vpSampleConfig();
    lone.sampleIntervalInsts = 1000;
    EXPECT_THROW(sim::validatePartition(lone), FatalError);

    // A finite warmup without any partition would be silently ignored.
    core::CoreConfig warm = vpSampleConfig();
    warm.warmupInsts = 1000;
    EXPECT_THROW(sim::validatePartition(warm), FatalError);
    warm.sampleK = 4;
    EXPECT_NO_THROW(sim::validatePartition(warm));
}

TEST(SampleJobKey, EverySamplingFlagIsSalted)
{
    sim::SweepJob job;
    job.label = "x";
    job.workload = "queens";
    job.scale = 1;
    job.cfg = vpSampleConfig();
    const std::string base = sim::jobKey(job);

    sim::SweepJob sampled = job;
    sampled.cfg.sampleK = 8;
    EXPECT_NE(sim::jobKey(sampled), base);

    sim::SweepJob interval = sampled;
    interval.cfg.sampleIntervalInsts = 50000;
    EXPECT_NE(sim::jobKey(interval), base);
    EXPECT_NE(sim::jobKey(interval), sim::jobKey(sampled));

    // Reinterpreted warmup must not alias: the key carries the raw
    // warmupInsts, so sampled full-warmup != sampled W=K.
    sim::SweepJob warm = sampled;
    warm.cfg.warmupInsts = 20000;
    EXPECT_NE(sim::jobKey(warm), sim::jobKey(sampled));

    // The worker count is an execution resource, never result shape.
    sim::SweepJob jobs8 = sampled;
    jobs8.cfg.shardJobs = 8;
    EXPECT_EQ(sim::jobKey(jobs8), sim::jobKey(sampled));
}

// ---- mask_ops word scans ------------------------------------------------

/** Deterministic pattern generator (SplitMix64). */
std::uint64_t
nextRand(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

TEST(MaskOps, ToWordsMatchesBitsetOnEveryBit)
{
    forEachMaskWidth([](auto width) {
        constexpr std::size_t kW = decltype(width)::value;
        constexpr int kN = static_cast<int>(kW);
        std::uint64_t state = 1;
        for (int trial = 0; trial < 32; ++trial) {
            core::SpecMask<kW> m;
            for (int b = 0; b < kN; ++b)
                if (nextRand(state) & 1)
                    m.set(b);
            const core::mask::MaskWords<kW> words = core::mask::toWords(m);
            for (int b = 0; b < kN; ++b) {
                const bool w = (words[b / 64] >> (b % 64)) & 1;
                ASSERT_EQ(w, m.test(b)) << "bit " << b;
            }
        }
    });
}

TEST(MaskOps, ForEachSetBitVisitsExactlyTheSetBitsAscending)
{
    forEachMaskWidth([](auto width) {
        constexpr std::size_t kW = decltype(width)::value;
        constexpr int kN = static_cast<int>(kW);
        std::uint64_t state = 99;
        for (int trial = 0; trial < 32; ++trial) {
            core::SpecMask<kW> m;
            std::vector<int> want;
            // Mix densities: sparse, half, dense patterns all occur.
            const int keep = 1 + trial % 7;
            for (int b = 0; b < kN; ++b) {
                if (nextRand(state) % 7
                    < static_cast<std::uint64_t>(keep)) {
                    m.set(b);
                    want.push_back(b);
                }
            }
            std::vector<int> got;
            core::mask::forEachSetBit(m,
                                      [&](int b) { got.push_back(b); });
            EXPECT_EQ(got, want);
        }
    });
}

TEST(MaskOps, EdgeBitsAndEmptyMask)
{
    forEachMaskWidth([](auto width) {
        constexpr std::size_t kW = decltype(width)::value;
        constexpr int kN = static_cast<int>(kW);
        core::SpecMask<kW> m;
        EXPECT_EQ(core::mask::findFirst(m), -1);
        std::vector<int> got;
        core::mask::forEachSetBit(m, [&](int b) { got.push_back(b); });
        EXPECT_TRUE(got.empty());

        // Word boundaries: first/last bit of first/middle/last word,
        // up to each width's top bit.
        for (const int b : {0, 63, 64, 127, 128, 255, 511}) {
            if (b >= kN)
                continue;
            core::SpecMask<kW> single;
            single.set(b);
            EXPECT_EQ(core::mask::findFirst(single), b);
            got.clear();
            core::mask::forEachSetBit(single,
                                      [&](int x) { got.push_back(x); });
            EXPECT_EQ(got, std::vector<int>{b});
        }

        core::SpecMask<kW> full;
        full.set();
        EXPECT_EQ(core::mask::findFirst(full), 0);
        got.clear();
        core::mask::forEachSetBit(full, [&](int x) { got.push_back(x); });
        ASSERT_EQ(got.size(), kW);
        for (int b = 0; b < kN; ++b)
            EXPECT_EQ(got[b], b);
    });
}

TEST(MaskOps, FindFirstMatchesScan)
{
    forEachMaskWidth([](auto width) {
        constexpr std::size_t kW = decltype(width)::value;
        constexpr int kN = static_cast<int>(kW);
        std::uint64_t state = 7;
        for (int trial = 0; trial < 64; ++trial) {
            core::SpecMask<kW> m;
            for (int b = 0; b < kN; ++b)
                if (nextRand(state) % 97 == 0)
                    m.set(b);
            int want = -1;
            for (int b = 0; b < kN; ++b)
                if (m.test(b)) {
                    want = b;
                    break;
                }
            EXPECT_EQ(core::mask::findFirst(m), want);
        }
    });
}

TEST(MaskOps, TestAndClearAndIntersect)
{
    forEachMaskWidth([](auto width) {
        constexpr std::size_t kW = decltype(width)::value;
        core::SpecMask<kW> m;
        m.set(5);
        m.set(100);
        EXPECT_TRUE(core::mask::testAndClear(m, 5));
        EXPECT_FALSE(m.test(5));
        EXPECT_FALSE(core::mask::testAndClear(m, 5));
        EXPECT_TRUE(m.test(100));

        core::SpecMask<kW> a, b;
        a.set(64);
        b.set(65);
        EXPECT_FALSE(core::mask::anyIntersect(a, b));
        b.set(64);
        EXPECT_TRUE(core::mask::anyIntersect(a, b));
    });
}

} // namespace
