/**
 * @file
 * Differential fuzzing of the out-of-order core: randomly generated,
 * terminating VRISC programs are executed functionally and then on
 * the cycle-level core under aggressive value-speculation
 * configurations (always-confident prediction maximises
 * misspeculation and recovery traffic). The core's retire stage
 * compares every committed instruction against the functional trace
 * and panics on divergence, so merely finishing a run is a strong
 * architectural-equivalence statement; the test additionally checks
 * exit codes and program output.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "vsim/arch/functional_core.hh"
#include "vsim/assembler/assembler.hh"
#include "vsim/base/random.hh"
#include "vsim/core/ooo_core.hh"

namespace
{

using namespace vsim;

/** Registers the generator is allowed to clobber. */
const char *kPool[] = {"t0", "t1", "t2", "t3", "t4", "t5",
                       "a0", "a1", "a2", "a3", "a4", "a5",
                       "s2", "s3", "s4", "s5"};
constexpr int kPoolSize = static_cast<int>(std::size(kPool));

std::string
reg(Xoshiro256 &rng)
{
    return kPool[rng.nextBounded(kPoolSize)];
}

/** Bytes of buf the default generator's loads and stores address. */
constexpr int kAlignedSpan = 4000;

/**
 * Generate a terminating random program: register initialisation, a
 * counted loop whose body mixes ALU ops, long-latency ops, bounded
 * memory traffic and data-dependent forward branches, then a fold of
 * all pool registers into the exit code.
 *
 * Memory traffic stays in the first @p mem_span bytes of buf. By
 * default it is ld/lw/lbu/lhu and sd/sw/sb at 8-byte-aligned offsets;
 * with @p unaligned every load and store width lands at any byte
 * offset, so a small span yields partial overlaps, accesses that
 * straddle a store's edge, and loads covered by several stores at
 * once (the youngest must win).
 */
std::string
generateProgram(std::uint64_t seed, bool unaligned = false,
                int mem_span = kAlignedSpan)
{
    Xoshiro256 rng(seed);
    std::string src;
    src += "        .data\nbuf:    .space 4096\n        .text\n";
    src += "        la s0, buf\n";
    src += "        li s1, " + std::to_string(20 + rng.nextBounded(60))
           + "\n";
    for (const char *r : kPool) {
        src += std::string("        li ") + r + ", "
               + std::to_string(rng.nextRange(-5000, 5000)) + "\n";
    }
    src += "loop:\n";

    const int body_len = 16 + static_cast<int>(rng.nextBounded(40));
    int pending_skip = 0; // instructions a forward branch still covers
    for (int i = 0; i < body_len; ++i) {
        const int kind = static_cast<int>(rng.nextBounded(16));
        if (kind < 6) {
            // R-type ALU
            const char *ops[] = {"add", "sub", "and", "or", "xor",
                                 "slt", "sltu", "mul"};
            src += "        " + std::string(ops[rng.nextBounded(8)])
                   + " " + reg(rng) + ", " + reg(rng) + ", " + reg(rng)
                   + "\n";
        } else if (kind < 9) {
            // I-type ALU
            const char *ops[] = {"addi", "andi", "ori", "xori", "slti"};
            src += "        " + std::string(ops[rng.nextBounded(5)])
                   + " " + reg(rng) + ", " + reg(rng) + ", "
                   + std::to_string(rng.nextRange(-100, 100)) + "\n";
        } else if (kind == 9) {
            // shift with a bounded immediate
            const char *ops[] = {"slli", "srli", "srai"};
            src += "        " + std::string(ops[rng.nextBounded(3)])
                   + " " + reg(rng) + ", " + reg(rng) + ", "
                   + std::to_string(rng.nextBounded(12)) + "\n";
        } else if (kind == 10) {
            // long-latency op
            const char *ops[] = {"div", "divu", "rem", "remu"};
            src += "        " + std::string(ops[rng.nextBounded(4)])
                   + " " + reg(rng) + ", " + reg(rng) + ", " + reg(rng)
                   + "\n";
        } else if (kind < 13 && unaligned) {
            // load of any width at any byte offset
            const char *ops[] = {"ld", "lw", "lwu", "lh", "lhu", "lb",
                                 "lbu"};
            src += "        " + std::string(ops[rng.nextBounded(7)])
                   + " " + reg(rng) + ", "
                   + std::to_string(rng.nextBounded(mem_span - 7))
                   + "(s0)\n";
        } else if (kind < 13) {
            // bounded load
            const char *ops[] = {"ld", "lw", "lbu", "lhu"};
            src += "        " + std::string(ops[rng.nextBounded(4)])
                   + " " + reg(rng) + ", "
                   + std::to_string(8 * rng.nextBounded(mem_span / 8))
                   + "(s0)\n";
        } else if (kind < 15 && unaligned) {
            // store of any width at any byte offset
            const char *ops[] = {"sd", "sw", "sh", "sb"};
            src += "        " + std::string(ops[rng.nextBounded(4)])
                   + " " + reg(rng) + ", "
                   + std::to_string(rng.nextBounded(mem_span - 7))
                   + "(s0)\n";
        } else if (kind < 15) {
            // bounded store
            const char *ops[] = {"sd", "sw", "sb"};
            src += "        " + std::string(ops[rng.nextBounded(3)])
                   + " " + reg(rng) + ", "
                   + std::to_string(8 * rng.nextBounded(mem_span / 8))
                   + "(s0)\n";
        } else if (pending_skip == 0 && i + 3 < body_len) {
            // data-dependent forward branch over 1-3 instructions
            const char *ops[] = {"beq", "bne", "blt", "bltu"};
            const int skip = 1 + static_cast<int>(rng.nextBounded(3));
            src += "        " + std::string(ops[rng.nextBounded(4)])
                   + " " + reg(rng) + ", " + reg(rng) + ", "
                   + std::to_string(skip + 1) + "\n";
            pending_skip = skip;
            continue;
        } else {
            src += "        addi " + reg(rng) + ", " + reg(rng)
                   + ", 1\n";
        }
        if (pending_skip > 0)
            --pending_skip;
    }

    src += "        addi s1, s1, -1\n";
    src += "        bnez s1, loop\n";
    src += "        li a0, 0\n";
    for (const char *r : kPool)
        src += std::string("        xor a0, a0, ") + r + "\n";
    src += "        puti a0\n";
    src += "        halt a0\n";
    return src;
}

/**
 * One differential case. gtest lists a parameter as a dump of its
 * bytes, so the struct holds no pointer and no padding: two listings
 * of the suite print the same names. The size and the leading seed
 * are kept as they were when the struct was first listed, so the
 * names ctest derived from the original cases still match.
 */
struct FuzzCase
{
    std::uint64_t seed;
    char model[12]; //!< SpecModel::byName key, NUL-padded
    core::VerifyScheme verifyScheme;
    core::InvalScheme invalScheme;
    int issueWidth;
    int windowSize;
    core::ConfidenceKind confidence;
    int memSpan; //!< bytes of buf the loads and stores address
    bool useVp;
    bool specBranches; //!< resolve branches speculatively
    bool specMem;      //!< resolve memory on speculative operands
    bool unaligned;    //!< every width at any byte offset
};
static_assert(std::has_unique_object_representations_v<FuzzCase>,
              "FuzzCase must have no padding bytes");
static_assert(sizeof(FuzzCase) == 48, "FuzzCase dump size changed");

/** Value-speculation case on the paper's machines, aligned traffic. */
FuzzCase
vpCase(std::uint64_t seed, const char *model, core::VerifyScheme verify,
       core::InvalScheme inval, int width, int window,
       bool spec_branches = false)
{
    FuzzCase fc{};
    fc.seed = seed;
    std::snprintf(fc.model, sizeof fc.model, "%s", model);
    fc.verifyScheme = verify;
    fc.invalScheme = inval;
    fc.issueWidth = width;
    fc.windowSize = window;
    // Always-confident: speculate on everything, maximising the
    // misspeculation recovery machinery under test.
    fc.confidence = core::ConfidenceKind::Always;
    fc.memSpan = kAlignedSpan;
    fc.useVp = true;
    fc.specBranches = spec_branches;
    return fc;
}

class FuzzDifferential : public ::testing::TestWithParam<FuzzCase>
{
};

TEST_P(FuzzDifferential, OooMatchesFunctional)
{
    const FuzzCase &fc = GetParam();
    const std::string source =
        generateProgram(fc.seed, fc.unaligned, fc.memSpan);
    const assembler::Program prog = assembler::assemble(source);

    const arch::ExecTrace ref = arch::preExecute(prog, 5'000'000);

    core::CoreConfig cfg;
    cfg.issueWidth = fc.issueWidth;
    cfg.windowSize = fc.windowSize;
    cfg.useValuePrediction = fc.useVp;
    if (fc.useVp) {
        cfg.model = core::SpecModel::byName(fc.model);
        cfg.model.verifyScheme = fc.verifyScheme;
        cfg.model.invalScheme = fc.invalScheme;
        cfg.model.branchNeedsValidOps = !fc.specBranches;
        cfg.model.memNeedsValidOps = !fc.specMem;
        cfg.confidence = fc.confidence;
    }
    core::OooCore core(prog, cfg);
    const core::SimOutcome out = core.run();

    ASSERT_TRUE(out.halted) << "seed " << fc.seed;
    EXPECT_EQ(out.exitCode, ref.exitCode) << "seed " << fc.seed;
    EXPECT_EQ(out.output, ref.output) << "seed " << fc.seed;
}

std::vector<FuzzCase>
makeCases()
{
    using core::InvalScheme;
    using core::VerifyScheme;
    constexpr VerifyScheme kFlatV = VerifyScheme::Flattened;
    constexpr InvalScheme kFlatI = InvalScheme::Flattened;
    std::vector<FuzzCase> cases;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        FuzzCase base = vpCase(seed, "great", kFlatV, kFlatI, 4, 24);
        base.useVp = false;
        cases.push_back(base);
        cases.push_back(vpCase(seed, "super", kFlatV, kFlatI, 8, 48));
        cases.push_back(vpCase(seed, "great", kFlatV, kFlatI, 16, 96));
        cases.push_back(vpCase(seed, "good", kFlatV, kFlatI, 4, 24));
    }
    // Alternative verification/invalidation schemes on a seed subset.
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        cases.push_back(vpCase(seed, "great", VerifyScheme::Hierarchical,
                               InvalScheme::Hierarchical, 8, 48));
        cases.push_back(vpCase(seed, "great",
                               VerifyScheme::RetirementBased, kFlatI, 8,
                               48));
        cases.push_back(
            vpCase(seed, "great", VerifyScheme::Hybrid, kFlatI, 8, 48));
        cases.push_back(
            vpCase(seed, "great", kFlatV, InvalScheme::Complete, 8, 48));
        // Speculative branch resolution (§3.2 model variable):
        // branches issue with predicted/speculative operands and may
        // redirect fetch onto value-mispredicted paths that must later
        // be corrected by the branch's own reissue.
        cases.push_back(
            vpCase(seed, "great", kFlatV, kFlatI, 8, 48, true));
        cases.push_back(
            vpCase(seed, "super", kFlatV, kFlatI, 4, 24, true));
    }
    // Speculative memory resolution (§3.2) on the widest windows,
    // where long LSQs keep many loads waiting on older stores: each
    // load forwards predicted or speculative store data and carries
    // the stores' dependence bits. The unaligned traffic packs every
    // width into 64 bytes, so most loads meet several older stores
    // that overlap them partially.
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        for (const char *model : {"good", "great"}) {
            for (int window : {256, 512}) {
                for (bool unaligned : {false, true}) {
                    FuzzCase fc =
                        vpCase(seed, model, kFlatV, kFlatI, 8, window);
                    fc.specMem = true;
                    fc.unaligned = unaligned;
                    if (unaligned)
                        fc.memSpan = 64;
                    cases.push_back(fc);
                }
            }
        }
        // Unaligned traffic under valid-ops memory resolution too.
        FuzzCase fc = vpCase(seed, "great", kFlatV, kFlatI, 8, 48);
        fc.unaligned = true;
        fc.memSpan = 64;
        cases.push_back(fc);
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, FuzzDifferential, ::testing::ValuesIn(makeCases()),
    [](const ::testing::TestParamInfo<FuzzCase> &info) {
        const FuzzCase &fc = info.param;
        std::string name = "seed" + std::to_string(fc.seed);
        name += fc.useVp ? std::string("_") + fc.model : "_base";
        switch (fc.verifyScheme) {
          case core::VerifyScheme::Flattened: break;
          case core::VerifyScheme::Hierarchical: name += "_hier"; break;
          case core::VerifyScheme::RetirementBased:
            name += "_retire";
            break;
          case core::VerifyScheme::Hybrid: name += "_hybrid"; break;
        }
        if (fc.invalScheme == core::InvalScheme::Complete)
            name += "_complete";
        if (fc.specBranches)
            name += "_specbr";
        if (fc.specMem)
            name += "_specmem";
        if (fc.unaligned)
            name += "_unaligned";
        name += "_w" + std::to_string(fc.issueWidth);
        if (fc.windowSize > 96)
            name += "_win" + std::to_string(fc.windowSize);
        return name;
    });

TEST(FuzzGenerator, ProgramsAreDeterministic)
{
    EXPECT_EQ(generateProgram(7), generateProgram(7));
    EXPECT_NE(generateProgram(7), generateProgram(8));
}

TEST(FuzzGenerator, ProgramsTerminate)
{
    for (std::uint64_t seed = 100; seed < 110; ++seed) {
        const auto prog = assembler::assemble(generateProgram(seed));
        const auto ref = arch::preExecute(prog, 5'000'000);
        EXPECT_GT(ref.entries.size(), 100u) << seed;
    }
}

} // namespace
