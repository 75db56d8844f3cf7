/**
 * @file
 * The differential fuzzer's program generator (test_fuzz.cc), shared
 * with the other tests that compare two ways of running one program.
 */

#ifndef VSIM_TESTS_FUZZ_PROGRAM_HH
#define VSIM_TESTS_FUZZ_PROGRAM_HH

#include <cstdint>
#include <iterator>
#include <string>

#include "vsim/base/random.hh"

namespace vsim::testutil
{

/** Registers the generator is allowed to clobber. */
inline const char *const kPool[] = {"t0", "t1", "t2", "t3", "t4", "t5",
                                    "a0", "a1", "a2", "a3", "a4", "a5",
                                    "s2", "s3", "s4", "s5"};
inline constexpr int kPoolSize = static_cast<int>(std::size(kPool));

inline std::string
reg(Xoshiro256 &rng)
{
    return kPool[rng.nextBounded(kPoolSize)];
}

/** Bytes of buf the default generator's loads and stores address. */
inline constexpr int kAlignedSpan = 4000;

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
inline std::string
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

} // namespace vsim::testutil

#endif // VSIM_TESTS_FUZZ_PROGRAM_HH
