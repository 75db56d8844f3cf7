/**
 * @file
 * VRISC instruction-set definition.
 *
 * VRISC is the 64-bit RISC ISA this project uses in place of
 * SimpleScalar's PISA (see DESIGN.md §2). It has 32 integer registers
 * (x0 hardwired to zero), fixed 32-bit instruction words and three
 * encoding formats:
 *
 *   F_RRR : op[31:25] ra[24:20] rb[19:15] rc[14:10] -[9:0]
 *   F_RRI : op[31:25] ra[24:20] rb[19:15] imm15[14:0]   (signed)
 *   F_RI20: op[31:25] ra[24:20] imm20[19:0]             (signed)
 *
 * Branch and jump offsets are in units of instruction words relative
 * to the branch's own PC. Loads/stores use ra as the data register and
 * rb as the base register with a signed byte offset.
 */

#ifndef VSIM_ISA_ISA_HH
#define VSIM_ISA_ISA_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace vsim::isa
{

/** Number of architected integer registers; x0 reads as zero. */
constexpr int kNumRegs = 32;

/** All VRISC opcodes. */
enum class Op : std::uint8_t
{
    // R-type ALU (F_RRR): ra <- rb OP rc
    ADD, SUB, AND, OR, XOR, SLL, SRL, SRA, SLT, SLTU,
    MUL, MULH, DIV, DIVU, REM, REMU,
    // I-type ALU (F_RRI): ra <- rb OP imm
    ADDI, ANDI, ORI, XORI, SLLI, SRLI, SRAI, SLTI, SLTIU,
    // Upper-immediate (F_RI20)
    LUI,    // ra <- sext(imm20 << 12)
    AUIPC,  // ra <- PC + sext(imm20 << 12)
    // Control transfer
    BEQ, BNE, BLT, BGE, BLTU, BGEU, // F_RRI, offset in words
    JAL,   // F_RI20: ra <- PC+4; PC += imm*4
    JALR,  // F_RRI : ra <- PC+4; PC = (rb + imm) & ~1
    // Loads (F_RRI): ra <- mem[rb + imm]
    LB, LBU, LH, LHU, LW, LWU, LD,
    // Stores (F_RRI): mem[rb + imm] <- ra
    SB, SH, SW, SD,
    // System (F_RRI, rb/imm unused unless noted)
    HALT,  // stop the program; exit code = ra
    PUTC,  // append low byte of ra to the program's output stream
    PUTI,  // append decimal rendering of ra to the output stream
    NUM_OPS
};

constexpr int kNumOps = static_cast<int>(Op::NUM_OPS);

/** Encoding format of an opcode. */
enum class Format : std::uint8_t { F_RRR, F_RRI, F_RI20 };

/**
 * Execution class: selects the functional-unit latency (paper §5.1:
 * "all simple integer instructions require one cycle ... complex
 * integer operations require from 2 to 24 cycles").
 */
enum class ExecClass : std::uint8_t
{
    IntAlu,   //!< 1 cycle
    IntMul,   //!< 3 cycles
    IntDiv,   //!< 20 cycles
    Load,     //!< 1 cycle addr-gen + cache access
    Store,    //!< 1 cycle addr-gen; data written at commit
    Branch,   //!< 1 cycle
    System    //!< 1 cycle; side effects applied at commit
};

/** Static properties of an opcode. */
struct OpInfo
{
    const char *name;
    Format fmt;
    ExecClass cls;
    bool writesReg;  //!< has a destination register (ra)
    bool readsRb;    //!< reads rb as a source
    bool readsRc;    //!< reads rc as a source (R-type only)
    bool readsRa;    //!< reads ra as a source (stores, branches, sys)
};

namespace detail
{

using enum Format;
using enum ExecClass;

// name, fmt, cls, writesReg, readsRb, readsRc, readsRa
inline constexpr std::array<OpInfo, kNumOps> kOpTable = {{
    {"add",   F_RRR,  IntAlu, true,  true,  true,  false},
    {"sub",   F_RRR,  IntAlu, true,  true,  true,  false},
    {"and",   F_RRR,  IntAlu, true,  true,  true,  false},
    {"or",    F_RRR,  IntAlu, true,  true,  true,  false},
    {"xor",   F_RRR,  IntAlu, true,  true,  true,  false},
    {"sll",   F_RRR,  IntAlu, true,  true,  true,  false},
    {"srl",   F_RRR,  IntAlu, true,  true,  true,  false},
    {"sra",   F_RRR,  IntAlu, true,  true,  true,  false},
    {"slt",   F_RRR,  IntAlu, true,  true,  true,  false},
    {"sltu",  F_RRR,  IntAlu, true,  true,  true,  false},
    {"mul",   F_RRR,  IntMul, true,  true,  true,  false},
    {"mulh",  F_RRR,  IntMul, true,  true,  true,  false},
    {"div",   F_RRR,  IntDiv, true,  true,  true,  false},
    {"divu",  F_RRR,  IntDiv, true,  true,  true,  false},
    {"rem",   F_RRR,  IntDiv, true,  true,  true,  false},
    {"remu",  F_RRR,  IntDiv, true,  true,  true,  false},
    {"addi",  F_RRI,  IntAlu, true,  true,  false, false},
    {"andi",  F_RRI,  IntAlu, true,  true,  false, false},
    {"ori",   F_RRI,  IntAlu, true,  true,  false, false},
    {"xori",  F_RRI,  IntAlu, true,  true,  false, false},
    {"slli",  F_RRI,  IntAlu, true,  true,  false, false},
    {"srli",  F_RRI,  IntAlu, true,  true,  false, false},
    {"srai",  F_RRI,  IntAlu, true,  true,  false, false},
    {"slti",  F_RRI,  IntAlu, true,  true,  false, false},
    {"sltiu", F_RRI,  IntAlu, true,  true,  false, false},
    {"lui",   F_RI20, IntAlu, true,  false, false, false},
    {"auipc", F_RI20, IntAlu, true,  false, false, false},
    {"beq",   F_RRI,  Branch, false, true,  false, true},
    {"bne",   F_RRI,  Branch, false, true,  false, true},
    {"blt",   F_RRI,  Branch, false, true,  false, true},
    {"bge",   F_RRI,  Branch, false, true,  false, true},
    {"bltu",  F_RRI,  Branch, false, true,  false, true},
    {"bgeu",  F_RRI,  Branch, false, true,  false, true},
    {"jal",   F_RI20, Branch, true,  false, false, false},
    {"jalr",  F_RRI,  Branch, true,  true,  false, false},
    {"lb",    F_RRI,  Load,   true,  true,  false, false},
    {"lbu",   F_RRI,  Load,   true,  true,  false, false},
    {"lh",    F_RRI,  Load,   true,  true,  false, false},
    {"lhu",   F_RRI,  Load,   true,  true,  false, false},
    {"lw",    F_RRI,  Load,   true,  true,  false, false},
    {"lwu",   F_RRI,  Load,   true,  true,  false, false},
    {"ld",    F_RRI,  Load,   true,  true,  false, false},
    {"sb",    F_RRI,  Store,  false, true,  false, true},
    {"sh",    F_RRI,  Store,  false, true,  false, true},
    {"sw",    F_RRI,  Store,  false, true,  false, true},
    {"sd",    F_RRI,  Store,  false, true,  false, true},
    {"halt",  F_RRI,  System, false, false, false, true},
    {"putc",  F_RRI,  System, false, false, false, true},
    {"puti",  F_RRI,  System, false, false, false, true},
}};

/** Panics on an opcode outside the table (kept out of line: cold). */
[[noreturn]] void badOpcode(std::size_t idx);

} // namespace detail

/**
 * Look up the static properties of @p op. Inline: every LSQ and
 * wakeup check asks an instruction for its class or size.
 */
inline const OpInfo &
opInfo(Op op)
{
    const auto idx = static_cast<std::size_t>(op);
    if (idx >= detail::kOpTable.size()) [[unlikely]]
        detail::badOpcode(idx);
    return detail::kOpTable[idx];
}

/** Decoded instruction. */
struct Inst
{
    Op op = Op::ADDI;
    std::uint8_t ra = 0;
    std::uint8_t rb = 0;
    std::uint8_t rc = 0;
    std::int32_t imm = 0;

    const OpInfo &info() const { return opInfo(op); }

    bool isLoad() const { return info().cls == ExecClass::Load; }
    bool isStore() const { return info().cls == ExecClass::Store; }
    bool isMem() const { return isLoad() || isStore(); }
    bool isBranch() const { return info().cls == ExecClass::Branch; }
    bool isSystem() const { return info().cls == ExecClass::System; }

    /** Conditional branch (BEQ..BGEU), excluding JAL/JALR. */
    bool
    isCondBranch() const
    {
        return isBranch() && op != Op::JAL && op != Op::JALR;
    }

    /** Any control transfer, conditional or not. */
    bool isControl() const { return isBranch(); }

    /** Direct control transfer: target computable from PC + encoding. */
    bool isDirectControl() const { return isBranch() && op != Op::JALR; }

    /** Destination register, or -1 when none (x0 counts as none). */
    int
    destReg() const
    {
        return (info().writesReg && ra != 0) ? ra : -1;
    }

    /** First source register, or -1. Branches use ra as src1. */
    int
    srcReg1() const
    {
        const OpInfo &oi = info();
        if (oi.readsRa)
            return ra;
        if (oi.readsRb)
            return rb;
        return -1;
    }

    /** Second source register, or -1. */
    int
    srcReg2() const
    {
        const OpInfo &oi = info();
        if (oi.readsRa) // store/branch/sys: rb (if read) is src2
            return oi.readsRb ? rb : -1;
        return oi.readsRc ? rc : -1;
    }

    /** Access size in bytes for memory ops; 0 otherwise. */
    int
    memSize() const
    {
        switch (op) {
          case Op::LB: case Op::LBU: case Op::SB: return 1;
          case Op::LH: case Op::LHU: case Op::SH: return 2;
          case Op::LW: case Op::LWU: case Op::SW: return 4;
          case Op::LD: case Op::SD: return 8;
          default: return 0;
        }
    }

    bool operator==(const Inst &other) const = default;
};

/** Encode @p inst to a 32-bit instruction word. */
std::uint32_t encode(const Inst &inst);

/**
 * Decode a 32-bit instruction word.
 * @return std::nullopt for an illegal opcode field.
 */
std::optional<Inst> decode(std::uint32_t word);

/** Render @p inst as assembly text (round-trips through the assembler). */
std::string disassemble(const Inst &inst);

/** ABI register name (x0 -> "zero", x2 -> "sp", ...). */
const char *regName(int reg);

/**
 * Parse a register name: "x17", ABI names ("a3", "t0", "sp", ...).
 * @return register index or -1 when not a register.
 */
int parseRegName(const std::string &name);

} // namespace vsim::isa

#endif // VSIM_ISA_ISA_HH
