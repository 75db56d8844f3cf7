/**
 * @file
 * Core odds and ends: configuration validation, full-stack determinism
 * with value prediction enabled, retired-count/trace-length
 * invariants, stats consistency, and the store table's load shortcuts
 * against the full disambiguation pass.
 */

#include <gtest/gtest.h>

#include <random>

#include "vsim/assembler/assembler.hh"
#include "vsim/base/logging.hh"
#include "vsim/core/ooo_core.hh"
#include "vsim/core/snapshot.hh"
#include "vsim/core/store_table.hh"
#include "vsim/workloads/workloads.hh"

namespace
{

using namespace vsim;
using core::CoreConfig;
using core::OooCore;
using core::SimOutcome;
using core::SpecModel;

const char *kSmallLoop = R"(
    li a0, 0
    li a1, 400
loop:
    addi a0, a0, 3
    andi t0, a0, 255
    add a0, a0, t0
    addi a1, a1, -1
    bnez a1, loop
    halt a0
)";

// memNeedsValidOps=false used to hard-fatal with value prediction;
// speculative memory resolution is now a supported configuration and
// must construct and run to architectural completion.
TEST(CoreConfigGuards, SpeculativeMemoryResolutionRuns)
{
    CoreConfig cfg;
    cfg.useValuePrediction = true;
    cfg.model = SpecModel::greatModel();
    cfg.model.memNeedsValidOps = false;
    OooCore core(assembler::assemble(kSmallLoop), cfg);
    const SimOutcome out = core.run();
    EXPECT_TRUE(out.halted);
}

TEST(CoreConfigGuards, OversizedWindowPanics)
{
    CoreConfig cfg;
    cfg.windowSize = core::kMaxWindow + 1;
    EXPECT_DEATH(OooCore(assembler::assemble(kSmallLoop), cfg),
                 "window size");
}

TEST(Determinism, ValuePredictionRunsAreReproducible)
{
    const auto prog = assembler::assemble(kSmallLoop);
    CoreConfig cfg;
    cfg.useValuePrediction = true;
    cfg.model = SpecModel::greatModel();
    cfg.confidence = core::ConfidenceKind::Real;
    cfg.updateTiming = core::UpdateTiming::Delayed;

    const SimOutcome a = OooCore(prog, cfg).run();
    const SimOutcome b = OooCore(prog, cfg).run();
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);
    EXPECT_EQ(a.stats.vpCH, b.stats.vpCH);
    EXPECT_EQ(a.stats.nullifications, b.stats.nullifications);
    EXPECT_EQ(a.exitCode, b.exitCode);
}

TEST(Invariants, RetiredEqualsProgramLength)
{
    const auto prog = assembler::assemble(kSmallLoop);
    CoreConfig cfg;
    cfg.useValuePrediction = true;
    cfg.model = SpecModel::superModel();
    cfg.confidence = core::ConfidenceKind::Always;
    OooCore core(prog, cfg);
    const SimOutcome out = core.run();
    EXPECT_EQ(out.stats.retired, core.programLength());
}

TEST(Invariants, IpcNeverExceedsIssueWidth)
{
    for (int width : {2, 4, 8}) {
        CoreConfig cfg;
        cfg.issueWidth = width;
        cfg.windowSize = 6 * width;
        OooCore core(assembler::assemble(kSmallLoop), cfg);
        const SimOutcome out = core.run();
        EXPECT_LE(out.stats.ipc(), static_cast<double>(width) + 1e-9)
            << width;
    }
}

TEST(Invariants, StatsMixSumsToRetired)
{
    const auto prog =
        workloads::buildProgram(workloads::byName("vortex"), 1);
    CoreConfig cfg;
    OooCore core(prog, cfg);
    const SimOutcome out = core.run();
    const auto &s = out.stats;
    EXPECT_LE(s.retiredLoads + s.retiredStores + s.retiredBranches,
              s.retired);
    EXPECT_GT(s.retiredLoads, 0u);
    EXPECT_GT(s.retiredStores, 0u);
    EXPECT_GT(s.retiredBranches, 0u);
}

// Self-modifying text: the word at `new` is stored over `old` long
// before `old` runs, so fetch must see the stored word (exit code 2),
// not the one the program was loaded with.
const char *kStoreIntoText = R"(
    li a0, 0
    la t0, new
    lw t1, 0(t0)
    la t2, old
    sw t1, 0(t2)
    li a1, 700
spin:
    addi a1, a1, -1
    bnez a1, spin
old:
    addi a0, a0, 1
    halt a0
new:
    addi a0, a0, 2
)";

CoreConfig
storeIntoTextConfig(int window, bool great)
{
    CoreConfig cfg;
    cfg.windowSize = window;
    if (great) {
        cfg.useValuePrediction = true;
        cfg.model = SpecModel::greatModel();
    }
    return cfg;
}

TEST(SelfModifyingText, FetchSeesRetiredStoreIntoText)
{
    const auto prog = assembler::assemble(kStoreIntoText);
    for (int window : {48, 512}) {
        for (bool great : {false, true}) {
            SCOPED_TRACE(std::to_string(window)
                         + (great ? " great" : " base"));
            OooCore core(prog, storeIntoTextConfig(window, great));
            const SimOutcome out = core.run();
            EXPECT_TRUE(out.halted);
            EXPECT_EQ(out.exitCode, 2u);
        }
    }
}

TEST(SelfModifyingText, SnapshotStartSeesStoredText)
{
    // The store retired during functional warmup, before the snapshot
    // point inside the spin loop: the restored core never retires it,
    // so only the snapshot's memory shows the new word.
    const auto prog = assembler::assemble(kStoreIntoText);
    const arch::ExecTrace trace = arch::preExecute(prog);
    const CoreConfig cfg = storeIntoTextConfig(512, true);
    std::uint64_t point = 100;
    while (trace.entries.at(point).pc != prog.symbols.at("spin"))
        ++point;
    const auto snaps = core::functionalWarmup(prog, trace, cfg, {point});
    ASSERT_EQ(snaps.size(), 1u);

    OooCore core(prog, trace, cfg);
    core.startFromSnapshot(snaps[0]);
    const SimOutcome out = core.run();
    EXPECT_TRUE(out.halted);
    EXPECT_EQ(out.exitCode, 2u);
}

// Selection answers a load without walking the store table when an
// older store's address is unknown (the load is blocked), or when
// the load shares no 8-byte block with any store (nothing blocks it
// or forwards to it, so it issues exactly when a data-cache port is
// free). Each shortcut must only ever say what the full pass says.
// Byte-wise modulo 2^64, not only under today's interval rule: no
// known-address store may write a byte of a load the second shortcut
// answers.
TEST(StoreTableShortcuts, AgreeWithTheFullPass)
{
    std::mt19937_64 rng(1994);
    const int sizes[] = {1, 2, 4, 8};
    // Accesses cluster within 12 bytes of 0 (= 2^64) and of an
    // ordinary address, so they overlap, straddle 8-byte blocks and
    // wrap past the top of the address space, at any alignment.
    const auto address = [&] {
        const std::uint64_t centre = rng() % 2 ? 0 : 0x10000;
        return centre - 12 + rng() % 24;
    };
    core::StoreTable table;
    std::uint64_t rejected = 0, skipped = 0, forwarded = 0;
    for (int trial = 0; trial < 20000; ++trial) {
        table.clear();
        // Stores take even seqs and loads odd ones, as each
        // instruction has its own.
        const int nstores = static_cast<int>(rng() % 12);
        for (int i = 0; i < nstores; ++i) {
            table.push({2 + 2 * static_cast<std::uint64_t>(i), address(),
                        rng(), i,
                        static_cast<std::uint8_t>(sizes[rng() % 4]),
                        /*addrKnown=*/rng() % 6 != 0,
                        /*dataUsable=*/rng() % 4 != 0});
        }
        for (int q = 0; q < 8; ++q) {
            const std::uint64_t seq =
                1 + 2 * (rng() % static_cast<std::uint64_t>(nstores + 1));
            const std::uint64_t addr = address();
            const int size = sizes[rng() % 4];
            const core::LoadCheck full =
                table.disambiguate(seq, addr, size);
            forwarded += full.mayIssue && full.forwards();
            if (table.unknownOlderThan(seq)) {
                ++rejected;
                EXPECT_FALSE(full.mayIssue)
                    << "seq " << seq << " rejected, pass lets it issue";
            }
            if (table.mayShareBlock(addr, size))
                continue;
            ++skipped;
            EXPECT_TRUE(!full.mayIssue || full.covered == 0)
                << "load of " << size << " at " << addr
                << " skipped, pass forwards " << full.covered;
            if (!table.unknownOlderThan(seq)) {
                EXPECT_TRUE(full.mayIssue)
                    << "load of " << size << " at " << addr
                    << " skipped, pass blocks it";
            }
            for (const core::StoreView &s : table.views()) {
                if (!s.addrKnown)
                    continue;
                bool writes = false;
                for (std::uint64_t i = 0; i < s.size; ++i) {
                    for (std::uint64_t j = 0;
                         j < static_cast<std::uint64_t>(size); ++j)
                        writes |= s.addr + i == addr + j;
                }
                EXPECT_FALSE(writes)
                    << "load of " << size << " at " << addr
                    << " skipped, store of " << int{s.size} << " at "
                    << s.addr << " writes a byte of it";
            }
        }
    }
    // Every outcome occurs often.
    EXPECT_GT(rejected, 10000u);
    EXPECT_GT(skipped, 10000u);
    EXPECT_GT(forwarded, 10000u);
}

TEST(Invariants, TickStopsAfterHalt)
{
    OooCore core(assembler::assemble("halt\n"), CoreConfig{});
    while (core.tick()) {
    }
    EXPECT_FALSE(core.tick());
    const std::uint64_t at_halt = core.now();
    EXPECT_FALSE(core.tick());
    EXPECT_EQ(core.now(), at_halt);
}

} // namespace
