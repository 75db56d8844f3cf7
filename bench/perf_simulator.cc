/**
 * @file
 * google-benchmark microbenchmarks of the simulator itself: functional
 * execution rate and cycle-level simulation rate (base and with value
 * speculation), so regressions in simulator performance are visible.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "vsim/arch/functional_core.hh"
#include "vsim/core/mask_ops.hh"
#include "vsim/core/ooo_core.hh"
#include "vsim/sim/simulator.hh"
#include "vsim/workloads/workloads.hh"

namespace
{

using namespace vsim;

void
BM_FunctionalExecution(benchmark::State &state)
{
    const auto prog =
        workloads::buildProgram(workloads::byName("queens"), 1);
    std::uint64_t insts = 0;
    for (auto _ : state) {
        arch::FunctionalCore core(prog);
        insts += core.run(100'000'000);
    }
    state.counters["inst/s"] = benchmark::Counter(
        static_cast<double>(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FunctionalExecution)->Unit(benchmark::kMillisecond);

void
BM_OooBase(benchmark::State &state)
{
    const auto prog =
        workloads::buildProgram(workloads::byName("queens"), 1);
    std::uint64_t insts = 0;
    for (auto _ : state) {
        core::CoreConfig cfg = sim::baseConfig({8, 48});
        core::OooCore core(prog, cfg);
        insts += core.run().stats.retired;
    }
    state.counters["inst/s"] = benchmark::Counter(
        static_cast<double>(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_OooBase)->Unit(benchmark::kMillisecond);

/**
 * Window-scaling before/after of the sweep domain: identical runs
 * (bit-for-bit, see tests/test_sweepdiff.cc) through the legacy dense
 * O(window) scans vs. the sparse subscriber-list sweeps, under the
 * spec-heavy "good" model whose nonzero network latencies keep many
 * predictions unresolved at once. The dense scan's cost grows with the
 * window while the sparse sweeps track the actual consumer counts, so
 * the gap widens from 64 to 256 entries; scripts/check.sh gates the
 * 256-entry ratio.
 */
void
BM_OooValueSpeculation(benchmark::State &state)
{
    const auto prog =
        workloads::buildProgram(workloads::byName("compress"), 1);
    const int window = static_cast<int>(state.range(0));
    const auto kind = state.range(1) == 0 ? core::SweepKind::Dense
                                          : core::SweepKind::Sparse;
    std::uint64_t insts = 0, simcycles = 0;
    for (auto _ : state) {
        // Always-confident prediction keeps the maximum number of
        // unresolved predictions in flight, so the verification/
        // invalidation network carries its full load.
        core::CoreConfig cfg = sim::vpConfig(
            {8, window}, core::SpecModel::goodModel(),
            core::ConfidenceKind::Always, core::UpdateTiming::Delayed);
        cfg.sweepKind = kind;
        core::OooCore core(prog, cfg);
        const auto stats = core.run().stats;
        insts += stats.retired;
        simcycles += stats.cycles;
    }
    state.counters["inst/s"] = benchmark::Counter(
        static_cast<double>(insts), benchmark::Counter::kIsRate);
    state.counters["simcycles/s"] = benchmark::Counter(
        static_cast<double>(simcycles), benchmark::Counter::kIsRate);
    state.SetLabel(
        "w" + std::to_string(window)
        + (kind == core::SweepKind::Dense ? "-dense" : "-sparse"));
}
BENCHMARK(BM_OooValueSpeculation)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({128, 0})
    ->Args({128, 1})
    ->Args({256, 0})
    ->Args({256, 1})
    ->Unit(benchmark::kMillisecond);

/**
 * Same comparison under speculative memory resolution (§3.2,
 * memNeedsValidOps=false): loads carry LSQ dependences in
 * RsEntry::memDeps, so every verification/invalidation wave also
 * tests the memory masks — the sweep domain the subscriber lists
 * narrow is strictly larger here.
 */
void
BM_OooSpecMem(benchmark::State &state)
{
    const auto prog =
        workloads::buildProgram(workloads::byName("compress"), 1);
    const auto kind = state.range(0) == 0 ? core::SweepKind::Dense
                                          : core::SweepKind::Sparse;
    std::uint64_t insts = 0, simcycles = 0;
    for (auto _ : state) {
        core::SpecModel model = core::SpecModel::goodModel();
        model.memNeedsValidOps = false;
        core::CoreConfig cfg = sim::vpConfig(
            {8, 256}, model, core::ConfidenceKind::Real,
            core::UpdateTiming::Delayed);
        cfg.sweepKind = kind;
        core::OooCore core(prog, cfg);
        const auto stats = core.run().stats;
        insts += stats.retired;
        simcycles += stats.cycles;
    }
    state.counters["inst/s"] = benchmark::Counter(
        static_cast<double>(insts), benchmark::Counter::kIsRate);
    state.counters["simcycles/s"] = benchmark::Counter(
        static_cast<double>(simcycles), benchmark::Counter::kIsRate);
    state.SetLabel(kind == core::SweepKind::Dense ? "specmem-dense"
                                                  : "specmem-sparse");
}
BENCHMARK(BM_OooSpecMem)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/**
 * Before/after of the event-driven wakeup path at a large window:
 * identical runs (bit-for-bit, see tests/test_scheduler.cc) through
 * the legacy O(window)-per-cycle scan vs. the ready-list scheduler.
 * The headline metric is simulated cycles per wall-clock second;
 * compress keeps the 256-entry window occupied, so the per-cycle
 * rescan cost the ready lists remove is fully visible.
 */
void
BM_OooWindow256(benchmark::State &state)
{
    const auto prog =
        workloads::buildProgram(workloads::byName("compress"), 1);
    const auto kind = state.range(0) == 0
                          ? core::SchedulerKind::Scan
                          : core::SchedulerKind::ReadyList;
    std::uint64_t simcycles = 0;
    for (auto _ : state) {
        core::CoreConfig cfg = sim::vpConfig(
            {8, 256}, core::SpecModel::greatModel(),
            core::ConfidenceKind::Real, core::UpdateTiming::Delayed);
        cfg.scheduler = kind;
        core::OooCore core(prog, cfg);
        simcycles += core.run().stats.cycles;
    }
    state.counters["simcycles/s"] = benchmark::Counter(
        static_cast<double>(simcycles), benchmark::Counter::kIsRate);
    state.SetLabel(kind == core::SchedulerKind::Scan ? "scan"
                                                     : "ready-list");
}
BENCHMARK(BM_OooWindow256)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/** The widest mask the core is built for: the mask-scan A/B below
 *  measures the same 512-bit scans it always has. */
using WideMask = core::SpecMask<core::kMaxWindow>;

/** The pre-word-scan mask iteration (libstdc++ _Find_first/_Find_next
 *  with a portable test() fallback), kept verbatim as the in-process
 *  baseline for the check.sh mask-scan gate: comparing a fresh run
 *  against a committed snapshot would confound the code change with
 *  ambient machine drift, while an A/B inside one process cancels it. */
template <typename Fn>
void
legacyForEachSetBit(const WideMask &m, Fn &&fn)
{
#if defined(__GLIBCXX__)
    for (std::size_t b = m._Find_first(); b < m.size();
         b = m._Find_next(b)) {
        fn(static_cast<int>(b));
    }
#else
    for (std::size_t b = 0; b < m.size(); ++b) {
        if (m.test(b))
            fn(static_cast<int>(b));
    }
#endif
}

/** First set bit the way the pre-word-scan code found it, or -1. */
int
legacyFindFirst(const WideMask &m)
{
#if defined(__GLIBCXX__)
    const std::size_t b = m._Find_first();
    return b < m.size() ? static_cast<int>(b) : -1;
#else
    for (std::size_t b = 0; b < m.size(); ++b) {
        if (m.test(b))
            return static_cast<int>(b);
    }
    return -1;
#endif
}

/** Per-mask drive of the new word scans, kept out of line. The
 *  benchmark loop re-scans an immutable mask vector, and with full
 *  inlining GCC specializes the legacy nested loops against that
 *  repetition in a way the simulator (whose masks mutate every
 *  cycle) never sees; a real call boundary per mask, which is what
 *  the sweep call sites look like after inlining anyway, keeps the
 *  comparison about the scan itself. */
[[gnu::noinline]] std::uint64_t
driveWordScan(const WideMask &m)
{
    std::uint64_t acc = 0;
    core::mask::forEachSetBit(
        m, [&acc](int b) { acc += std::uint64_t(b) + 1; });
    return acc + std::uint64_t(core::mask::findFirst(m)) + 1;
}

[[gnu::noinline]] std::uint64_t
driveLegacyScan(const WideMask &m)
{
    std::uint64_t acc = 0;
    legacyForEachSetBit(m,
                        [&acc](int b) { acc += std::uint64_t(b) + 1; });
    return acc + std::uint64_t(legacyFindFirst(m)) + 1;
}

/**
 * A/B of the SpecMask set-bit scans: the countr_zero word loops in
 * mask_ops.hh vs. the legacy per-bit iteration above, over the same
 * deterministic mask population in the same process. Masks mirror
 * what the sweeps see: mostly sparse subscriber masks (a handful of
 * consumers in a 512-entry window) plus a dense tail from squash
 * waves. scripts/check.sh gates word/legacy >= 1.0 per density.
 */
void
BM_MaskScan(benchmark::State &state)
{
    const bool word = state.range(0) != 0;
    const int avgBits = static_cast<int>(state.range(1));
    // SplitMix64 so the population is identical for both variants.
    std::uint64_t seed = 0x9e3779b97f4a7c15ull + avgBits;
    auto next = [&seed] {
        std::uint64_t z = (seed += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    };
    std::vector<WideMask> masks(2048);
    for (auto &m : masks) {
        for (int b = 0; b < core::kMaxWindow; ++b) {
            if (next() % core::kMaxWindow
                < static_cast<std::uint64_t>(avgBits))
                m.set(b);
        }
    }
    std::uint64_t scans = 0;
    for (auto _ : state) {
        std::uint64_t acc = 0;
        if (word) {
            for (const auto &m : masks)
                acc += driveWordScan(m);
        } else {
            for (const auto &m : masks)
                acc += driveLegacyScan(m);
        }
        benchmark::DoNotOptimize(acc);
        scans += masks.size();
    }
    state.counters["scan/s"] = benchmark::Counter(
        static_cast<double>(scans), benchmark::Counter::kIsRate);
    state.SetLabel(std::string(word ? "word" : "legacy") + "-b"
                   + std::to_string(avgBits));
}
BENCHMARK(BM_MaskScan)
    ->Args({0, 2})
    ->Args({1, 2})
    ->Args({0, 32})
    ->Args({1, 32})
    ->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
