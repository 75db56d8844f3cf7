/**
 * @file
 * Unit tests for the architectural layer: per-instruction semantics of
 * evaluate(), the functional core on small programs, program loading,
 * and the pre-execution trace.
 */

#include <gtest/gtest.h>

#include <type_traits>

#include "vsim/arch/exec.hh"
#include "vsim/arch/functional_core.hh"
#include "vsim/assembler/assembler.hh"
#include "vsim/base/logging.hh"

namespace
{

using namespace vsim;
using arch::ExecOut;
using arch::FunctionalCore;
using arch::evaluate;
using isa::Inst;
using isa::Op;

Inst
makeInst(Op op, int ra, int rb, int rc, int imm)
{
    Inst inst;
    inst.op = op;
    inst.ra = static_cast<std::uint8_t>(ra);
    inst.rb = static_cast<std::uint8_t>(rb);
    inst.rc = static_cast<std::uint8_t>(rc);
    inst.imm = imm;
    return inst;
}

// ---- evaluate(): ALU semantics ---------------------------------------

// gtest names each case by a hex dump of the struct's bytes, so the
// struct must have no padding: uninitialised padding bytes would give a
// case a different name from one build or run to the next. The opcode is
// held widened to 64 bits, which dumps as the opcode byte then zeros.
struct AluCase
{
    AluCase(Op op_, std::uint64_t a_, std::uint64_t b_,
            std::uint64_t expect_)
        : op(static_cast<std::uint64_t>(op_)), a(a_), b(b_),
          expect(expect_)
    {
    }

    std::uint64_t op;
    std::uint64_t a, b;
    std::uint64_t expect;
};
static_assert(std::has_unique_object_representations_v<AluCase>,
              "AluCase must have no padding bytes");

class AluSemantics : public ::testing::TestWithParam<AluCase>
{
};

TEST_P(AluSemantics, RTypeResult)
{
    const AluCase &c = GetParam();
    const Inst inst = makeInst(static_cast<Op>(c.op), 1, 2, 3, 0);
    // ra_val unused for R-type ALU; rb_val = a, rc_val = b.
    const ExecOut out = evaluate(inst, 0x1000, 0, c.a, c.b);
    EXPECT_EQ(out.value, c.expect);
}

INSTANTIATE_TEST_SUITE_P(
    Ops, AluSemantics,
    ::testing::Values(
        AluCase{Op::ADD, 5, 7, 12},
        AluCase{Op::ADD, ~0ull, 1, 0}, // wraparound
        AluCase{Op::SUB, 5, 7, static_cast<std::uint64_t>(-2)},
        AluCase{Op::AND, 0xf0f0, 0xff00, 0xf000},
        AluCase{Op::OR, 0xf0f0, 0x0f0f, 0xffff},
        AluCase{Op::XOR, 0xff, 0x0f, 0xf0},
        AluCase{Op::SLL, 1, 63, 1ull << 63},
        AluCase{Op::SRL, 1ull << 63, 63, 1},
        AluCase{Op::SRA, static_cast<std::uint64_t>(-16), 2,
                static_cast<std::uint64_t>(-4)},
        AluCase{Op::SLT, static_cast<std::uint64_t>(-1), 0, 1},
        AluCase{Op::SLTU, static_cast<std::uint64_t>(-1), 0, 0},
        AluCase{Op::MUL, 7, 6, 42},
        AluCase{Op::MULH, 1ull << 62, 4, 1},
        AluCase{Op::DIV, static_cast<std::uint64_t>(-12), 4,
                static_cast<std::uint64_t>(-3)},
        AluCase{Op::DIV, 5, 0, ~0ull},                 // div by zero
        AluCase{Op::DIVU, ~0ull, 2, 0x7fffffffffffffff},
        AluCase{Op::REM, static_cast<std::uint64_t>(-13), 4,
                static_cast<std::uint64_t>(-1)},
        AluCase{Op::REM, 13, 0, 13},                   // rem by zero
        AluCase{Op::REMU, 13, 5, 3}));

TEST(Evaluate, ImmediateForms)
{
    EXPECT_EQ(evaluate(makeInst(Op::ADDI, 1, 2, 0, -5), 0, 0, 10, 0)
                  .value,
              5u);
    EXPECT_EQ(evaluate(makeInst(Op::ANDI, 1, 2, 0, 0xf), 0, 0, 0x1234, 0)
                  .value,
              4u);
    EXPECT_EQ(evaluate(makeInst(Op::SLLI, 1, 2, 0, 4), 0, 0, 3, 0).value,
              48u);
    EXPECT_EQ(
        evaluate(makeInst(Op::SRAI, 1, 2, 0, 1), 0, 0,
                 static_cast<std::uint64_t>(-2), 0)
            .value,
        static_cast<std::uint64_t>(-1));
    EXPECT_EQ(evaluate(makeInst(Op::SLTI, 1, 2, 0, 0), 0, 0,
                       static_cast<std::uint64_t>(-3), 0)
                  .value,
              1u);
}

TEST(Evaluate, LuiAuipc)
{
    EXPECT_EQ(evaluate(makeInst(Op::LUI, 1, 0, 0, 5), 0x40, 0, 0, 0)
                  .value,
              5u << 12);
    EXPECT_EQ(evaluate(makeInst(Op::LUI, 1, 0, 0, -1), 0x40, 0, 0, 0)
                  .value,
              static_cast<std::uint64_t>(-4096));
    EXPECT_EQ(evaluate(makeInst(Op::AUIPC, 1, 0, 0, 1), 0x40, 0, 0, 0)
                  .value,
              0x1040u);
}

TEST(Evaluate, BranchDirections)
{
    auto taken = [](Op op, std::uint64_t a, std::uint64_t b) {
        return evaluate(makeInst(op, 1, 2, 0, 4), 0x100, a, b, 0).taken;
    };
    EXPECT_TRUE(taken(Op::BEQ, 3, 3));
    EXPECT_FALSE(taken(Op::BEQ, 3, 4));
    EXPECT_TRUE(taken(Op::BNE, 3, 4));
    EXPECT_TRUE(taken(Op::BLT, static_cast<std::uint64_t>(-1), 0));
    EXPECT_FALSE(taken(Op::BLTU, static_cast<std::uint64_t>(-1), 0));
    EXPECT_TRUE(taken(Op::BGE, 5, 5));
    EXPECT_TRUE(taken(Op::BGEU, static_cast<std::uint64_t>(-1), 5));
}

TEST(Evaluate, BranchTargets)
{
    const ExecOut t =
        evaluate(makeInst(Op::BEQ, 1, 2, 0, -3), 0x100, 7, 7, 0);
    EXPECT_TRUE(t.taken);
    EXPECT_EQ(t.nextPc, 0x100u - 12u);
    const ExecOut nt =
        evaluate(makeInst(Op::BEQ, 1, 2, 0, -3), 0x100, 7, 8, 0);
    EXPECT_FALSE(nt.taken);
    EXPECT_EQ(nt.nextPc, 0x104u);
}

TEST(Evaluate, JalAndJalr)
{
    const ExecOut jal =
        evaluate(makeInst(Op::JAL, 1, 0, 0, 10), 0x200, 0, 0, 0);
    EXPECT_TRUE(jal.taken);
    EXPECT_EQ(jal.value, 0x204u);
    EXPECT_EQ(jal.nextPc, 0x228u);

    const ExecOut jalr =
        evaluate(makeInst(Op::JALR, 1, 5, 0, 4), 0x200, 0, 0x301, 0);
    EXPECT_EQ(jalr.value, 0x204u);
    EXPECT_EQ(jalr.nextPc, 0x304u); // (0x301 + 4) & ~1
}

TEST(Evaluate, MemAddressing)
{
    const ExecOut ld =
        evaluate(makeInst(Op::LD, 1, 5, 0, -8), 0, 0, 0x1008, 0);
    EXPECT_EQ(ld.memAddr, 0x1000u);
    const ExecOut sd =
        evaluate(makeInst(Op::SD, 7, 5, 0, 16), 0, 0xabcd, 0x1000, 0);
    EXPECT_EQ(sd.memAddr, 0x1010u);
    EXPECT_EQ(sd.storeData, 0xabcdu);
}

TEST(LoadExtend, SignAndZero)
{
    using arch::loadExtend;
    EXPECT_EQ(loadExtend(makeInst(Op::LB, 1, 2, 0, 0), 0x80),
              static_cast<std::uint64_t>(-128));
    EXPECT_EQ(loadExtend(makeInst(Op::LBU, 1, 2, 0, 0), 0x80), 0x80u);
    EXPECT_EQ(loadExtend(makeInst(Op::LH, 1, 2, 0, 0), 0x8000),
              static_cast<std::uint64_t>(-32768));
    EXPECT_EQ(loadExtend(makeInst(Op::LHU, 1, 2, 0, 0), 0x8000), 0x8000u);
    EXPECT_EQ(loadExtend(makeInst(Op::LW, 1, 2, 0, 0), 0x80000000u),
              0xffffffff80000000ull);
    EXPECT_EQ(loadExtend(makeInst(Op::LWU, 1, 2, 0, 0), 0x80000000u),
              0x80000000ull);
}

// ---- functional core on whole programs --------------------------------

FunctionalCore
runProgram(const std::string &src)
{
    FunctionalCore core(assembler::assemble(src));
    core.run(1'000'000);
    return core;
}

TEST(Functional, SumLoop)
{
    FunctionalCore core = runProgram(R"(
        li a0, 0
        li a1, 1
        li a2, 101
    loop:
        add a0, a0, a1
        addi a1, a1, 1
        bne a1, a2, loop
        halt a0
    )");
    EXPECT_EQ(core.state().exitCode, 5050u);
}

TEST(Functional, MemoryStoreLoadRoundTrip)
{
    FunctionalCore core = runProgram(R"(
        .data
    buf: .space 64
        .text
        la t0, buf
        li t1, 0x1234
        sd t1, 8(t0)
        ld a0, 8(t0)
        halt a0
    )");
    EXPECT_EQ(core.state().exitCode, 0x1234u);
}

TEST(Functional, ByteHalfWordAccess)
{
    FunctionalCore core = runProgram(R"(
        .data
    buf: .space 16
        .text
        la t0, buf
        li t1, -1
        sb t1, 0(t0)
        lbu a0, 0(t0)    # 255
        lb a1, 0(t0)     # -1
        add a0, a0, a1   # 254
        li t2, 0x7fff
        sh t2, 4(t0)
        lhu a2, 4(t0)
        add a0, a0, a2   # 254 + 32767
        halt a0
    )");
    EXPECT_EQ(core.state().exitCode, 254u + 32767u);
}

TEST(Functional, RecursiveFactorialViaStack)
{
    FunctionalCore core = runProgram(R"(
        li a0, 10
        call fact
        halt a0
    fact:
        li t0, 2
        blt a0, t0, base
        addi sp, sp, -16
        sd ra, 0(sp)
        sd a0, 8(sp)
        addi a0, a0, -1
        call fact
        ld t1, 8(sp)
        mul a0, a0, t1
        ld ra, 0(sp)
        addi sp, sp, 16
        ret
    base:
        li a0, 1
        ret
    )");
    EXPECT_EQ(core.state().exitCode, 3628800u);
}

TEST(Functional, OutputSyscalls)
{
    FunctionalCore core = runProgram(R"(
        li a0, 'o'
        putc a0
        li a0, 'k'
        putc a0
        li a0, 42
        puti a0
        li a0, '\n'
        putc a0
        halt
    )");
    EXPECT_EQ(core.state().output, "ok42\n");
    EXPECT_EQ(core.state().exitCode, 0u);
}

TEST(Functional, RunLimitThrows)
{
    FunctionalCore core(assembler::assemble("spin: j spin\n"));
    EXPECT_THROW(core.run(1000), FatalError);
}

TEST(Functional, X0StaysZero)
{
    FunctionalCore core = runProgram(R"(
        li t0, 99
        add zero, t0, t0
        add a0, zero, zero
        halt a0
    )");
    EXPECT_EQ(core.state().exitCode, 0u);
}

TEST(Loader, PlacesTextDataAndStack)
{
    auto prog = assembler::assemble(R"(
        .data
    x:  .dword 7
        .text
        nop
        halt
    )");
    arch::ArchState st = arch::loadProgram(prog);
    EXPECT_EQ(st.pc, prog.textBase);
    EXPECT_EQ(st.reg(2), prog.stackTop);
    EXPECT_EQ(st.mem.read(prog.textBase, 4), prog.text[0]);
    EXPECT_EQ(st.mem.read(prog.dataBase, 8), 7u);
}

TEST(Trace, RecordsEveryDynamicInstruction)
{
    auto prog = assembler::assemble(R"(
        li a0, 3      # addi
    loop:
        addi a0, a0, -1
        bnez a0, loop
        halt a0
    )");
    arch::ExecTrace trace = arch::preExecute(prog);
    // 1 li + 3*(addi+bnez) + halt = 8 dynamic instructions.
    ASSERT_EQ(trace.entries.size(), 8u);
    EXPECT_EQ(trace.exitCode, 0u);
    // First entry: li a0, 3 writing 3.
    EXPECT_EQ(trace.entries[0].value, 3u);
    // Taken bnez entries jump backwards.
    EXPECT_LT(trace.entries[2].nextPc, trace.entries[2].pc);
    // Final entry is the halt.
    EXPECT_EQ(trace.entries.back().inst.op, Op::HALT);
}

TEST(Trace, PreExecuteDoesNotDisturbProgramMemory)
{
    auto prog = assembler::assemble(R"(
        .data
    x:  .dword 5
        .text
        la t0, x
        ld a0, 0(t0)
        addi a0, a0, 1
        sd a0, 0(t0)
        halt a0
    )");
    arch::ExecTrace t1 = arch::preExecute(prog);
    arch::ExecTrace t2 = arch::preExecute(prog);
    EXPECT_EQ(t1.exitCode, 6u);
    EXPECT_EQ(t2.exitCode, 6u) << "second pre-execution saw dirty memory";
}

} // namespace
