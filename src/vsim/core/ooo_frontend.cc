/**
 * @file
 * Front-end stages of the layered core: instruction fetch (icache
 * timing, next-PC prediction per §5.1) and dispatch (window
 * allocation, operand capture, value prediction per §2.2/§5.2).
 */

#include "ooo_core.hh"

#include <algorithm>

#include "vsim/arch/exec.hh"
#include "vsim/base/logging.hh"

namespace vsim::core
{

namespace
{

/** True when the instruction's result register is value-predictable. */
bool
vpEligibleInst(const isa::Inst &inst)
{
    return inst.destReg() >= 0 && !inst.isControl();
}

} // namespace

// =====================================================================
// fetch
// =====================================================================

template <std::size_t Bits>
void
BasicOooCore<Bits>::fetchStage()
{
    if (halted || fetchSawHalt || cycle < fetchResumeAt)
        return;
    fetchStallIcache = false; // any pending I$ stall has elapsed

    const int width = cfg.effFetchWidth();
    const std::size_t buf_cap = static_cast<std::size_t>(2 * width);
    int fetched = 0;

    while (fetched < width && fetchQueue.size() < buf_cap) {
        // Predecoded text unless the PC is outside it or unaligned, or
        // a store has written text since it was decoded.
        const std::uint64_t text_off = fetchPc - textBase;
        const auto decoded =
            !textWritten && text_off % 4 == 0
                    && text_off / 4 < textInsts.size()
                ? textInsts[text_off / 4]
                : isa::decode(
                      static_cast<std::uint32_t>(memory.read(fetchPc, 4)));
        if (!decoded) {
            // Wrong-path fetch ran into non-code bytes; a real machine
            // would raise a fault that the squash discards. Idle the
            // front end until the redirect arrives.
            VSIM_ASSERT(!fetchOnCorrectPath,
                        "illegal instruction on the correct path at pc=",
                        fetchPc);
            fetchResumeAt = ~0ull;
            return;
        }
        const isa::Inst inst = *decoded;

        // Instruction-cache timing: a miss stalls the front end for
        // the fill delay; the line is resident on resume.
        const int ilat = icacheH.access(fetchPc, false);
        if (ilat > cfg.icacheHitLat) {
            fetchResumeAt =
                cycle + static_cast<std::uint64_t>(ilat - cfg.icacheHitLat);
            fetchStallIcache = true;
            return;
        }

        FetchedInst f;
        f.pc = fetchPc;
        f.inst = inst;
        f.availableAt = cycle + 1;
        f.traceIndex = fetchOnCorrectPath ? fetchTraceIdx : -1;

        // ---- next-PC prediction (paper §5.1 rules) ------------------
        const bool on_path =
            fetchOnCorrectPath
            && fetchTraceIdx
                   < static_cast<std::int64_t>(trace.entries.size());
        VSIM_ASSERT(!fetchOnCorrectPath || on_path,
                    "fetch ran past the end of the program trace");
        const arch::TraceEntry *te =
            on_path ? &trace.entries[static_cast<std::size_t>(
                          fetchTraceIdx)]
                    : nullptr;
        if (te) {
            VSIM_ASSERT(te->pc == fetchPc,
                        "correct-path fetch diverged from trace");
        }

        if (inst.isCondBranch()) {
            const bool pred_dir = bpred_->predict(fetchPc);
            if (te) {
                const bool actual_dir = te->nextPc != fetchPc + 4;
                auto trained =
                    bpTrained.begin() + static_cast<std::ptrdiff_t>(
                                            fetchTraceIdx);
                if (!*trained) {
                    bpred_->update(fetchPc, actual_dir);
                    *trained = true;
                }
                if (pred_dir == actual_dir) {
                    // Targets are always right when direction is right.
                    f.predTaken = actual_dir;
                    f.predNextPc = te->nextPc;
                } else {
                    f.predTaken = pred_dir;
                    f.predNextPc = pred_dir
                                       ? arch::directTarget(inst, fetchPc)
                                       : fetchPc + 4;
                }
            } else {
                f.predTaken = pred_dir;
                f.predNextPc = pred_dir
                                   ? arch::directTarget(inst, fetchPc)
                                   : fetchPc + 4;
            }
        } else if (inst.op == isa::Op::JAL) {
            f.predTaken = true;
            f.predNextPc = arch::directTarget(inst, fetchPc);
        } else if (inst.op == isa::Op::JALR) {
            // Unconditional jumps are always predicted correctly on
            // the correct path (§5.1); the wrong path has no oracle,
            // so fall through and let execution redirect.
            f.predTaken = true;
            f.predNextPc = te ? te->nextPc : fetchPc + 4;
        } else {
            f.predTaken = false;
            f.predNextPc = fetchPc + 4;
        }

        fetchQueue.push_back(f);
        ++stats_.fetched;
        ++fetched;

        if (fetchOnCorrectPath) {
            if (inst.op == isa::Op::HALT) {
                fetchSawHalt = true;
                return;
            }
            if (te && f.predNextPc != te->nextPc)
                fetchOnCorrectPath = false; // entering the wrong path
            ++fetchTraceIdx;
        }
        fetchPc = f.predNextPc;
    }
}

// =====================================================================
// dispatch
// =====================================================================

template <std::size_t Bits>
void
BasicOooCore<Bits>::captureOperand(RsEntry<Bits> &e, int idx, int reg)
{
    // allocSlot() has just reset the whole entry: the operand starts
    // Unused, with no tag and no dependence bits.
    Operand<Bits> &o = e.src[idx];
    VSIM_DEBUG_ASSERT(!o.used() && o.tag == -1,
                      "operand captured into a used entry");
    if (reg < 0)
        return;
    o.reg = reg;
    const int t = reg == 0 ? -1 : regTag[static_cast<std::size_t>(reg)];
    if (t < 0) {
        o.value = reg == 0 ? 0 : archRegs[static_cast<std::size_t>(reg)];
        o.state = OperandState::Valid;
        o.readyAt = cycle;
        o.validAt = cycle;
        return;
    }

    RsEntry<Bits> &p = entry(t);
    o.tag = t;
    if (p.predicted && !p.predResolved) {
        // The prediction stands in for the producer's result until the
        // verification network resolves it.
        o.value = p.predValue;
        o.state = OperandState::Predicted;
        o.deps.set(static_cast<std::size_t>(t));
        o.readyAt = cycle;
        notePredConsumed(p);
    } else if (p.executed) {
        o.value = p.outValue;
        o.deps = p.outDeps;
        o.readyAt = std::max(cycle, cold(t).execDoneAt);
        if (o.deps.none()) {
            o.state = OperandState::Valid;
            o.validAt = cycle;
        } else {
            o.state = OperandState::Speculative;
        }
    } else {
        o.state = OperandState::Invalid; // wait on the result bus
        if (readyListScheduler())
            registerWaiter(e.slot, idx, t);
    }
}

template <std::size_t Bits>
void
BasicOooCore<Bits>::predictValueAt(RsEntry<Bits> &e)
{
    if (!cfg.useValuePrediction || !vpEligibleInst(e.inst))
        return;
    e.vpEligible = true;
    RsCold &c = cold(e.slot);

    const bool have_actual = e.traceIndex >= 0;
    const std::uint64_t actual =
        have_actual
            ? trace.entries[static_cast<std::size_t>(e.traceIndex)].value
            : 0;

    if (predOverride) {
        if (auto forced = predOverride(c.pc, actual)) {
            e.predValue = *forced;
            e.predConfident = true;
            e.predicted = true;
        } else {
            e.vpEligible = false;
        }
        return;
    }

    const vpred::Prediction p = vpred_->predict(c.pc);
    e.predValue = p.value;
    c.predToken = p.token;

    switch (cfg.confidence) {
      case ConfidenceKind::Real:
        e.predConfident = conf_->confident(c.pc);
        break;
      case ConfidenceKind::Oracle:
        e.predConfident = have_actual && p.value == actual;
        break;
      case ConfidenceKind::Always:
        e.predConfident = true;
        break;
    }
    e.predicted = e.predConfident;

    if (cfg.updateTiming == UpdateTiming::Immediate) {
        // Idealised immediate update with the correct value (§5.2),
        // once per dynamic instance. The wrong path has no oracle and
        // cannot train.
        if (have_actual
            && !vpTrained[static_cast<std::size_t>(e.traceIndex)]) {
            vpTrained[static_cast<std::size_t>(e.traceIndex)] = true;
            vpred_->pushHistory(c.pc, actual);
            vpred_->updateTable(c.pc, p.token, actual);
            if (cfg.confidence == ConfidenceKind::Real)
                conf_->update(c.pc, p.value == actual);
        }
    } else {
        // Delayed update: history speculatively advanced with the
        // prediction now; tables trained at retirement (§5.2).
        vpred_->pushHistory(c.pc, p.value);
    }
}

template <std::size_t Bits>
void
BasicOooCore<Bits>::dispatchStage()
{
    if (halted)
        return;
    const int width = cfg.effFetchWidth();
    for (int n = 0; n < width && !fetchQueue.empty(); ++n) {
        const FetchedInst &f = fetchQueue.front();
        if (f.availableAt > cycle || liveEntries >= cfg.windowSize)
            return;

        const int slot = allocSlot();
        RsEntry<Bits> &e = entry(slot);
        RsCold &c = cold(slot);
        e.slot = slot;
        e.seq = nextSeq++;
        c.pc = f.pc;
        e.inst = f.inst;
        e.traceIndex = f.traceIndex;
        e.dispatchAt = cycle;
        c.predTaken = f.predTaken;
        c.predNextPc = f.predNextPc;

        captureOperand(e, 0, e.inst.srcReg1());
        captureOperand(e, 1, e.inst.srcReg2());
        // The captures above are the dispatch-time mask-gaining site:
        // subscribe the entry to every prediction bit it picked up.
        subsIndex.noteEntry(e);
        predictValueAt(e);
        if (e.predicted) {
            ++specLive;
            ++stats_.predMade;
            ledgerPredictionMade(e);
        }

        if (int dest = e.inst.destReg(); dest >= 0)
            regTag[static_cast<std::size_t>(dest)] = slot;
        if (e.inst.isMem())
            lsq.push_back(slot);
        orderPos[static_cast<std::size_t>(slot)] =
            windowOrder.push_back(slot);
        touchWakeup(slot);

        if (tracingEnabled) {
            tracer_.label(e.seq, isa::disassemble(e.inst));
            tracer_.note(e.seq, cycle, "D");
        }

        fetchQueue.pop_front();
        ++stats_.dispatched;
    }
}

// This file's members at every mask width (the class and the members
// defined in ooo_core.cc are instantiated there).
#define VSIM_INSTANTIATE(Bits)                                            \
    template void BasicOooCore<Bits>::fetchStage();                       \
    template void BasicOooCore<Bits>::captureOperand(RsEntry<Bits> &, int, \
                                                     int);                \
    template void BasicOooCore<Bits>::predictValueAt(RsEntry<Bits> &);    \
    template void BasicOooCore<Bits>::dispatchStage();
VSIM_FOR_EACH_MASK_WIDTH(VSIM_INSTANTIATE)
#undef VSIM_INSTANTIATE

} // namespace vsim::core
