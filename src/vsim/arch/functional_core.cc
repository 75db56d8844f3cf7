#include "functional_core.hh"

#include "exec.hh"
#include "vsim/base/logging.hh"

namespace vsim::arch
{

ArchState
loadProgram(const assembler::Program &prog)
{
    ArchState st;
    for (std::size_t i = 0; i < prog.text.size(); ++i)
        st.mem.write(prog.textBase + 4 * i, prog.text[i], 4);
    if (!prog.data.empty())
        st.mem.writeBlock(prog.dataBase, prog.data.data(),
                          prog.data.size());
    st.setReg(2, prog.stackTop); // sp
    st.pc = prog.entry;
    return st;
}

bool
FunctionalCore::step(TraceEntry *entry_out)
{
    if (st.halted)
        return false;

    const std::uint64_t word = st.mem.read(st.pc, 4);
    const auto decoded = isa::decode(static_cast<std::uint32_t>(word));
    if (!decoded) {
        VSIM_FATAL("illegal instruction at pc=0x", std::hex, st.pc,
                   " word=0x", word);
    }
    const isa::Inst inst = *decoded;

    ExecOut out = evaluate(inst, st.pc, st.reg(inst.ra), st.reg(inst.rb),
                           st.reg(inst.rc));

    if (inst.isLoad()) {
        const std::uint64_t raw = st.mem.read(out.memAddr, inst.memSize());
        out.value = loadExtend(inst, raw);
    } else if (inst.isStore()) {
        st.mem.write(out.memAddr, out.storeData, inst.memSize());
    } else if (inst.isSystem()) {
        switch (inst.op) {
          case isa::Op::HALT:
            st.halted = true;
            st.exitCode = st.reg(inst.ra);
            break;
          case isa::Op::PUTC:
            st.output.push_back(static_cast<char>(st.reg(inst.ra)));
            break;
          case isa::Op::PUTI:
            st.output += std::to_string(
                static_cast<std::int64_t>(st.reg(inst.ra)));
            break;
          default:
            VSIM_PANIC("unknown system op");
        }
    }

    if (entry_out) {
        entry_out->pc = st.pc;
        entry_out->value = out.value;
        entry_out->nextPc = st.halted ? st.pc : out.nextPc;
        entry_out->memAddr = inst.isMem() ? out.memAddr : 0;
        entry_out->inst = inst;
    }

    if (int dest = inst.destReg(); dest >= 0)
        st.setReg(dest, out.value);
    if (!st.halted)
        st.pc = out.nextPc;
    ++executed;
    return !st.halted;
}

std::uint64_t
FunctionalCore::run(std::uint64_t max_insts)
{
    while (!st.halted) {
        if (executed >= max_insts) {
            VSIM_FATAL("program did not halt within ", max_insts,
                       " instructions (pc=0x", std::hex, st.pc, ")");
        }
        step();
    }
    return executed;
}

ExecTrace
preExecute(const assembler::Program &prog, std::uint64_t max_insts)
{
    FunctionalCore core(prog);
    ExecTrace trace;
    while (!core.state().halted) {
        if (trace.entries.size() >= max_insts) {
            VSIM_FATAL("pre-execution did not halt within ", max_insts,
                       " instructions");
        }
        // Record in place (step() writes every field): a second copy
        // per entry is measurable over a multi-gigabyte trace.
        trace.entries.emplace_back();
        core.step(&trace.entries.back());
    }
    trace.output = core.state().output;
    trace.exitCode = core.state().exitCode;
    return trace;
}

} // namespace vsim::arch
