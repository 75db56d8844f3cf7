/**
 * @file
 * Architectural state and in-order functional execution of VRISC
 * programs. Used three ways:
 *   1. standalone reference execution (tests, Table 1 counts),
 *   2. pre-execution pass that records the dynamic trace consumed by
 *      the timing simulator's oracle facilities (immediate predictor
 *      update and oracle confidence, paper §5.2),
 *   3. golden model the out-of-order core is checked against.
 */

#ifndef VSIM_ARCH_FUNCTIONAL_CORE_HH
#define VSIM_ARCH_FUNCTIONAL_CORE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "vsim/assembler/program.hh"
#include "vsim/isa/isa.hh"
#include "vsim/mem/mem_image.hh"

namespace vsim::arch
{

/** Complete architected state of a VRISC machine. */
struct ArchState
{
    std::array<std::uint64_t, isa::kNumRegs> regs{};
    std::uint64_t pc = 0;
    mem::MemImage mem;

    std::string output;   //!< bytes emitted by PUTC/PUTI
    bool halted = false;
    std::uint64_t exitCode = 0;

    std::uint64_t
    reg(int r) const
    {
        return r == 0 ? 0 : regs[static_cast<std::size_t>(r)];
    }

    void
    setReg(int r, std::uint64_t v)
    {
        if (r != 0)
            regs[static_cast<std::size_t>(r)] = v;
    }
};

/** Load @p prog into a fresh state (text+data+sp+entry). */
ArchState loadProgram(const assembler::Program &prog);

/** One dynamic instruction of the recorded correct-path trace. */
struct TraceEntry
{
    std::uint64_t pc = 0;
    std::uint64_t value = 0;   //!< destination-register result (if any)
    std::uint64_t nextPc = 0;
    std::uint64_t memAddr = 0; //!< effective address; 0 for non-memory
    isa::Inst inst;

    bool operator==(const TraceEntry &) const = default;
};

/**
 * std::allocator, except that construct() with no value leaves the
 * element to the caller: resize() reserves the pages without writing
 * them, so whoever writes an element first touches its page. The
 * trace loader sizes the entries once and has each of its workers
 * fill, and so fault in, its own part of them.
 */
template <class T>
struct UninitAllocator : std::allocator<T>
{
    UninitAllocator() = default;
    template <class U>
    UninitAllocator(const UninitAllocator<U> &) noexcept
    {}

    template <class U>
    void
    construct(U *) noexcept
    {}

    template <class U, class... Args>
    void
    construct(U *p, Args &&...args)
    {
        ::new (static_cast<void *>(p)) U(std::forward<Args>(args)...);
    }
};

/** Result of a complete functional pre-execution. */
struct ExecTrace
{
    std::vector<TraceEntry, UninitAllocator<TraceEntry>> entries;
    std::string output;
    std::uint64_t exitCode = 0;
};

class FunctionalCore
{
  public:
    explicit FunctionalCore(const assembler::Program &prog)
        : st(loadProgram(prog))
    {}

    explicit FunctionalCore(ArchState initial) : st(std::move(initial)) {}

    /**
     * Execute one instruction.
     * @param entry_out optional slot receiving the trace record
     * @return false once the machine has halted
     * @throws vsim::FatalError on an illegal instruction
     */
    bool step(TraceEntry *entry_out = nullptr);

    /**
     * Run until HALT or @p max_insts executed instructions.
     * @return number of instructions executed
     * @throws vsim::FatalError if the limit is hit before HALT
     */
    std::uint64_t run(std::uint64_t max_insts);

    const ArchState &state() const { return st; }
    ArchState &state() { return st; }
    std::uint64_t instCount() const { return executed; }

  private:
    ArchState st;
    std::uint64_t executed = 0;
};

/**
 * Full pre-execution: run @p prog to completion on a scratch copy of
 * its memory and record every dynamic instruction.
 * @throws vsim::FatalError if the program does not halt within
 *         @p max_insts instructions
 */
ExecTrace preExecute(const assembler::Program &prog,
                     std::uint64_t max_insts = 500'000'000);

} // namespace vsim::arch

#endif // VSIM_ARCH_FUNCTIONAL_CORE_HH
