#include "isa.hh"

#include <array>
#include <cctype>

#include "vsim/base/logging.hh"

namespace vsim::isa
{

namespace
{

constexpr const char *kAbiNames[kNumRegs] = {
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
    "s0",   "s1", "a0", "a1", "a2", "a3", "a4", "a5",
    "a6",   "a7", "s2", "s3", "s4", "s5", "s6", "s7",
    "s8",   "s9", "s10", "s11", "t3", "t4", "t5", "t6",
};

std::int32_t
signExtend(std::uint32_t value, int bits)
{
    const std::uint32_t m = 1u << (bits - 1);
    value &= (1u << bits) - 1;
    return static_cast<std::int32_t>((value ^ m) - m);
}

} // namespace

void
detail::badOpcode(std::size_t idx)
{
    VSIM_PANIC("bad opcode ", idx);
}

std::uint32_t
encode(const Inst &inst)
{
    const OpInfo &oi = inst.info();
    std::uint32_t word = static_cast<std::uint32_t>(inst.op) << 25;
    word |= (static_cast<std::uint32_t>(inst.ra) & 0x1f) << 20;
    switch (oi.fmt) {
      case Format::F_RRR:
        word |= (static_cast<std::uint32_t>(inst.rb) & 0x1f) << 15;
        word |= (static_cast<std::uint32_t>(inst.rc) & 0x1f) << 10;
        break;
      case Format::F_RRI:
        VSIM_ASSERT(inst.imm >= -(1 << 14) && inst.imm < (1 << 14),
                    "imm15 out of range: ", inst.imm);
        word |= (static_cast<std::uint32_t>(inst.rb) & 0x1f) << 15;
        word |= static_cast<std::uint32_t>(inst.imm) & 0x7fff;
        break;
      case Format::F_RI20:
        VSIM_ASSERT(inst.imm >= -(1 << 19) && inst.imm < (1 << 19),
                    "imm20 out of range: ", inst.imm);
        word |= static_cast<std::uint32_t>(inst.imm) & 0xfffff;
        break;
    }
    return word;
}

std::optional<Inst>
decode(std::uint32_t word)
{
    const std::uint32_t opfield = word >> 25;
    if (opfield >= static_cast<std::uint32_t>(kNumOps))
        return std::nullopt;

    Inst inst;
    inst.op = static_cast<Op>(opfield);
    inst.ra = (word >> 20) & 0x1f;
    const OpInfo &oi = inst.info();
    switch (oi.fmt) {
      case Format::F_RRR:
        inst.rb = (word >> 15) & 0x1f;
        inst.rc = (word >> 10) & 0x1f;
        break;
      case Format::F_RRI:
        inst.rb = (word >> 15) & 0x1f;
        inst.imm = signExtend(word & 0x7fff, 15);
        break;
      case Format::F_RI20:
        inst.imm = signExtend(word & 0xfffff, 20);
        break;
    }
    return inst;
}

std::string
disassemble(const Inst &inst)
{
    const OpInfo &oi = inst.info();
    std::string s = oi.name;
    auto reg = [](int r) { return std::string(regName(r)); };

    switch (inst.op) {
      case Op::HALT:
      case Op::PUTC:
      case Op::PUTI:
        return s + " " + reg(inst.ra);
      case Op::JAL:
        return s + " " + reg(inst.ra) + ", " + std::to_string(inst.imm);
      case Op::JALR:
        return s + " " + reg(inst.ra) + ", " + reg(inst.rb) + ", "
               + std::to_string(inst.imm);
      default:
        break;
    }

    if (inst.isMem()) {
        return s + " " + reg(inst.ra) + ", " + std::to_string(inst.imm)
               + "(" + reg(inst.rb) + ")";
    }
    if (inst.isCondBranch()) {
        return s + " " + reg(inst.ra) + ", " + reg(inst.rb) + ", "
               + std::to_string(inst.imm);
    }
    switch (oi.fmt) {
      case Format::F_RRR:
        return s + " " + reg(inst.ra) + ", " + reg(inst.rb) + ", "
               + reg(inst.rc);
      case Format::F_RRI:
        return s + " " + reg(inst.ra) + ", " + reg(inst.rb) + ", "
               + std::to_string(inst.imm);
      case Format::F_RI20:
        return s + " " + reg(inst.ra) + ", " + std::to_string(inst.imm);
    }
    VSIM_PANIC("unreachable");
}

const char *
regName(int reg)
{
    VSIM_ASSERT(reg >= 0 && reg < kNumRegs, "bad register ", reg);
    return kAbiNames[reg];
}

int
parseRegName(const std::string &name)
{
    if (name.size() >= 2 && name[0] == 'x') {
        int value = 0;
        for (std::size_t i = 1; i < name.size(); ++i) {
            if (!std::isdigit(static_cast<unsigned char>(name[i])))
                return -1;
            value = value * 10 + (name[i] - '0');
        }
        return value < kNumRegs ? value : -1;
    }
    for (int r = 0; r < kNumRegs; ++r) {
        if (name == kAbiNames[r])
            return r;
    }
    if (name == "fp") // alternate name for s0
        return 8;
    return -1;
}

} // namespace vsim::isa
