/**
 * @file
 * Window-sized dependence masks (window_types.hh): OooCore runs each
 * job on the narrowest mask width that holds its window. Every width
 * must give the same results, so on one job the core OooCore picks and
 * the 512-bit core must produce byte-identical saveRunResult encodings
 * (stats, CPI stack, interval series and speculation ledger), and both
 * must keep the subscriber-index invariants mid-run. The windows sit
 * on both sides of each width edge.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "vsim/arch/functional_core.hh"
#include "vsim/assembler/assembler.hh"
#include "vsim/base/state_io.hh"
#include "vsim/core/ooo_core.hh"
#include "vsim/sim/disk_cache.hh"
#include "vsim/sim/simulator.hh"
#include "fuzz_program.hh"

namespace
{

using namespace vsim;

/** Windows on both sides of the 128- and 256-bit edges. */
constexpr int kWindows[] = {96, 128, 129, 256, 257};

/** Cycles between two subscriber-index invariant checks. */
constexpr std::uint64_t kCheckEvery = 512;

/**
 * Tick @p c to the end, checking the subscriber-index invariants every
 * kCheckEvery cycles, then close the run. A failed check ends the run
 * unhalted.
 */
template <typename Core>
core::SimOutcome
runChecked(Core &c, std::uint64_t max_cycles)
{
    std::string why;
    while (c.now() < max_cycles && c.tick()) {
        if (c.now() % kCheckEvery == 0 && !c.checkSweepInvariants(&why)) {
            // A broken index can stall the core: stop, not halted.
            ADD_FAILURE() << "cycle " << c.now() << ": " << why;
            return {};
        }
    }
    return c.run();
}

/** The run's RunResult in the disk cache's byte encoding. */
std::vector<std::uint8_t>
encode(const core::SimOutcome &out)
{
    sim::RunResult r;
    r.workload = "job";
    r.stats = out.stats;
    r.instructions = out.stats.retired;
    r.ipc = out.stats.ipc();
    r.exitCode = out.exitCode;
    r.output = out.output;
    r.intervals = out.intervals;
    r.ledger = out.ledger;
    StateWriter w;
    sim::saveRunResult(w, r);
    return w.take();
}

/**
 * Run @p cfg on the width OooCore picks and on the 512-bit core, with
 * the ledger and interval series on, and compare the encodings.
 */
void
expectWidthsAgree(const assembler::Program &prog,
                  const std::shared_ptr<const arch::ExecTrace> &trace,
                  core::CoreConfig cfg)
{
    SCOPED_TRACE("window " + std::to_string(cfg.windowSize) + " on "
                 + std::to_string(core::maskBitsFor(cfg.windowSize))
                 + " bits");
    cfg.specLedger = true;
    cfg.metricsInterval = 1000;

    core::OooCore picked(prog, trace, cfg);
    const core::SimOutcome a = runChecked(picked, cfg.maxCycles);
    core::BasicOooCore<core::kMaxWindow> widest(prog, trace, cfg);
    const core::SimOutcome b = runChecked(widest, cfg.maxCycles);
    ASSERT_TRUE(a.halted);
    ASSERT_TRUE(b.halted);
    if (cfg.useValuePrediction) {
        EXPECT_FALSE(a.ledger.records.empty());
    }

    const std::vector<std::uint8_t> ea = encode(a), eb = encode(b);
    if (ea != eb) {
        const auto at = std::mismatch(ea.begin(), ea.end(), eb.begin(),
                                      eb.end());
        ADD_FAILURE() << "encodings differ at byte "
                      << (at.first - ea.begin()) << " (" << ea.size()
                      << " vs " << eb.size() << " bytes; cycles "
                      << a.stats.cycles << " vs " << b.stats.cycles
                      << ")";
    }
}

TEST(MaskWidth, PicksNarrowestWidthHoldingTheWindow)
{
    EXPECT_EQ(core::maskBitsFor(1), 128u);
    EXPECT_EQ(core::maskBitsFor(96), 128u);
    EXPECT_EQ(core::maskBitsFor(128), 128u);
    EXPECT_EQ(core::maskBitsFor(129), 256u);
    EXPECT_EQ(core::maskBitsFor(256), 256u);
    EXPECT_EQ(core::maskBitsFor(257), 512u);
    EXPECT_EQ(core::maskBitsFor(core::kMaxWindow), 512u);
}

// ---- paper kernels --------------------------------------------------

/** The kernel configurations the identity runs under. */
enum class KernelConfig
{
    Base,             //!< no value prediction
    GreatReal,        //!< great model, real confidence (D/R)
    GoodAlwaysSpecMem //!< good model, always speculate, spec memory
};

core::CoreConfig
kernelConfig(KernelConfig kind, int window)
{
    const sim::MachineConfig m{8, window};
    switch (kind) {
      case KernelConfig::Base:
        return sim::baseConfig(m);
      case KernelConfig::GreatReal:
        return sim::vpConfig(m, core::SpecModel::greatModel(),
                             core::ConfidenceKind::Real,
                             core::UpdateTiming::Delayed);
      case KernelConfig::GoodAlwaysSpecMem: {
        core::SpecModel model = core::SpecModel::goodModel();
        model.memNeedsValidOps = false;
        return sim::vpConfig(m, model, core::ConfidenceKind::Always,
                             core::UpdateTiming::Delayed);
      }
    }
    return {};
}

struct KernelCase
{
    const char *workload;
    KernelConfig config;
    const char *label;
};

const KernelCase kKernelCases[] = {
    {"compress", KernelConfig::Base, "compress_base"},
    {"compress", KernelConfig::GreatReal, "compress_great_real"},
    {"compress", KernelConfig::GoodAlwaysSpecMem,
     "compress_good_always_specmem"},
    {"m88k", KernelConfig::Base, "m88k_base"},
    {"m88k", KernelConfig::GreatReal, "m88k_great_real"},
    {"m88k", KernelConfig::GoodAlwaysSpecMem, "m88k_good_always_specmem"},
};

class MaskWidthKernel : public ::testing::TestWithParam<int>
{
};

TEST_P(MaskWidthKernel, PickedWidthMatchesWidest)
{
    const KernelCase &kc = kKernelCases[GetParam()];
    const std::shared_ptr<const sim::BuiltKernel> k =
        sim::sharedKernel(kc.workload, 1);
    const std::shared_ptr<const arch::ExecTrace> trace(k, &k->trace);
    for (const int window : kWindows)
        expectWidthsAgree(k->program, trace,
                          kernelConfig(kc.config, window));
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, MaskWidthKernel,
    ::testing::Range(0, static_cast<int>(std::size(kKernelCases))),
    [](const ::testing::TestParamInfo<int> &info) {
        return std::string(kKernelCases[info.param].label);
    });

// ---- fuzz programs --------------------------------------------------

/**
 * Differential-fuzzer programs under always-confident speculation:
 * flattened and hierarchical waves, and speculative memory resolution
 * over unaligned traffic packed into 64 bytes, where loads carry the
 * most memory-borne dependence bits.
 */
TEST(MaskWidth, FuzzProgramsMatchWidest)
{
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        for (const bool specmem : {false, true}) {
            const int span = specmem ? 64 : testutil::kAlignedSpan;
            const assembler::Program prog = assembler::assemble(
                testutil::generateProgram(seed, specmem, span));
            const auto trace = std::make_shared<const arch::ExecTrace>(
                arch::preExecute(prog, 5'000'000));
            for (const bool hier : {false, true}) {
                if (specmem && hier)
                    continue;
                SCOPED_TRACE("seed " + std::to_string(seed)
                             + (specmem ? " specmem" : "")
                             + (hier ? " hierarchical" : ""));
                for (const int window : kWindows) {
                    core::CoreConfig cfg;
                    cfg.issueWidth = 8;
                    cfg.windowSize = window;
                    cfg.useValuePrediction = true;
                    cfg.model = core::SpecModel::byName(
                        specmem ? "good" : "great");
                    if (hier) {
                        cfg.model.verifyScheme =
                            core::VerifyScheme::Hierarchical;
                        cfg.model.invalScheme =
                            core::InvalScheme::Hierarchical;
                    }
                    cfg.model.memNeedsValidOps = !specmem;
                    cfg.confidence = core::ConfidenceKind::Always;
                    expectWidthsAgree(prog, trace, cfg);
                }
            }
        }
    }
}

} // namespace
