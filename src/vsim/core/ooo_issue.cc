/**
 * @file
 * Backend wakeup/select/issue of the layered core. Two wakeup
 * implementations produce the same candidate set every cycle:
 *
 *  - Scan: the legacy O(window) rescan of every reservation station
 *    against the full wakeup conditions (canIssue).
 *  - ReadyList: the event-driven IssueScheduler; the core touches a
 *    slot whenever something a wakeup decision reads changes, and
 *    classifyWakeup() maps the entry onto ready-now / ready-at-a-
 *    known-cycle / parked-until-an-event.
 *
 * Both feed the same SelectOrder: each candidate is a bit at its
 * program-order rank in the bitmask of its SelectionPolicy class
 * (§3.5), and walking the classes in order, each oldest first, is the
 * (prio, spec, seq) order without a sort, so runs are bit-identical.
 * Load store-ordering and data-cache-port constraints are evaluated
 * in the selection walk (not in wakeup): a load blocked by them stays
 * a candidate and retries, exactly as the scan behaved. Each check is
 * one pass over a compact table of the LSQ's stores, built once per
 * cycle (storeTable, store_table.hh). The table's summaries answer
 * without the pass for a load behind a store with an unknown address
 * (blocked) and for one that shares no 8-byte block with any store
 * (issues if a data-cache port is free). The issuing load's byte
 * merge goes through the same pass.
 */

#include "ooo_core.hh"

#include <algorithm>

#include "vsim/arch/exec.hh"
#include "vsim/base/logging.hh"

namespace vsim::core
{

template <std::size_t Bits>
void
BasicOooCore<Bits>::buildStoreTable()
{
    storesCycle = cycle;
    stores.clear();
    const bool spec = specMemResolution();
    for (int slot : lsq) {
        const RsEntry<Bits> &s = entry(slot);
        if (!s.inst.isStore())
            continue;
        // Under valid-ops memory resolution the data must be *valid*;
        // with speculative resolution (memNeedsValidOps=false) a
        // predicted or speculative value forwards as-is and the load
        // carries the store's dependence bits in memDeps instead.
        const Operand<Bits> &data = s.src[0];
        stores.push(
            {s.seq, s.memAddr, data.value, slot,
             static_cast<std::uint8_t>(s.inst.memSize()),
             s.addrReady,
             data.readyAt <= cycle
                 && (spec ? data.hasValue()
                          : data.state == OperandState::Valid)});
    }
}

template <std::size_t Bits>
bool
BasicOooCore<Bits>::loadMayIssue(const RsEntry<Bits> &e)
{
    // Loads execute only once every preceding store address is known
    // (§2.1); bytes covered by an older store additionally need the
    // store's data to be usable. A load that does not forward needs a
    // data-cache port.
    const StoreTable &st = storeTable();
    if (st.unknownOlderThan(e.seq))
        return false;
    // Effective address needed for the ordering check; compute it from
    // the base operand (cheap, pure).
    const std::uint64_t addr =
        e.src[0].value
        + static_cast<std::uint64_t>(static_cast<std::int64_t>(e.inst.imm));
    const int size = e.inst.memSize();
    const bool port_free = dcachePortsUsed < cfg.effDcachePorts();
    // Every older store has an address. A load that shares no block
    // with any store overlaps none, so none blocks it or forwards to
    // it: it issues exactly when a port is free.
    if (!st.mayShareBlock(addr, size))
        return port_free;
    const LoadCheck lc = st.disambiguate(e.seq, addr, size);
    return lc.mayIssue && (port_free || lc.forwards());
}

template <std::size_t Bits>
bool
BasicOooCore<Bits>::canIssue(const RsEntry<Bits> &e) const
{
    if (!e.busy || e.issued || cycle <= e.dispatchAt
        || cycle < e.reissueAt) {
        return false;
    }
    for (const Operand<Bits> &o : e.src) {
        if (!o.used())
            continue;
        if (!o.hasValue() || o.readyAt > cycle)
            return false;
    }

    const bool needs_valid =
        e.inst.isBranch() || e.inst.isSystem()
            ? model.branchNeedsValidOps || !cfg.useValuePrediction
            : false;
    if (needs_valid) {
        for (const Operand<Bits> &o : e.src) {
            if (!o.used())
                continue;
            if (o.state != OperandState::Valid)
                return false;
            if (o.validViaEvent
                && cycle < o.validAt + static_cast<std::uint64_t>(
                               model.verifyToBranch)) {
                return false;
            }
        }
    }

    if (e.inst.isMem() && (model.memNeedsValidOps
                           || !cfg.useValuePrediction)) {
        // Address operand: loads use src[0], stores src[1].
        const Operand<Bits> &base =
            e.inst.isLoad() ? e.src[0] : e.src[1];
        if (base.used()) {
            if (base.state != OperandState::Valid)
                return false;
            if (base.validViaEvent
                && cycle < base.validAt + static_cast<std::uint64_t>(
                               model.verifyAddrToMem)) {
                return false;
            }
        }
    }
    return true;
}

/**
 * canIssue() recast for the ready-list scheduler: instead of a yes/no
 * at the current cycle, report *when* the entry's conditions hold
 * absent further events. Every condition is either monotone in time
 * (dispatch delay, reissue delay, operand readyAt, the verify-to-use
 * gates) — giving a Timed verdict at the max of the thresholds — or
 * requires another event to change operand state, giving Parked.
 */
template <std::size_t Bits>
WakeClass
BasicOooCore<Bits>::classifyWakeup(int slot) const
{
    const RsEntry<Bits> &e = entry(slot);
    if (!e.busy || e.issued)
        return WakeClass::idle();

    std::uint64_t at = std::max(e.dispatchAt + 1, e.reissueAt);
    for (const Operand<Bits> &o : e.src) {
        if (!o.used())
            continue;
        if (!o.hasValue())
            return WakeClass::parked(); // waits on the result bus
        at = std::max(at, o.readyAt);
    }

    const bool needs_valid =
        e.inst.isBranch() || e.inst.isSystem()
            ? model.branchNeedsValidOps || !cfg.useValuePrediction
            : false;
    if (needs_valid) {
        for (const Operand<Bits> &o : e.src) {
            if (!o.used())
                continue;
            if (o.state != OperandState::Valid)
                return WakeClass::parked();
            if (o.validViaEvent) {
                at = std::max(at,
                              o.validAt + static_cast<std::uint64_t>(
                                              model.verifyToBranch));
            }
        }
    }

    if (e.inst.isMem() && (model.memNeedsValidOps
                           || !cfg.useValuePrediction)) {
        const Operand<Bits> &base =
            e.inst.isLoad() ? e.src[0] : e.src[1];
        if (base.used()) {
            if (base.state != OperandState::Valid)
                return WakeClass::parked();
            if (base.validViaEvent) {
                at = std::max(at,
                              base.validAt + static_cast<std::uint64_t>(
                                                 model.verifyAddrToMem));
            }
        }
    }
    return at <= cycle ? WakeClass::ready() : WakeClass::timed(at);
}

template <std::size_t Bits>
void
BasicOooCore<Bits>::issueEntry(RsEntry<Bits> &e)
{
    // Gather register-role values from the operand slots (the operand
    // order mirrors Inst::srcReg1/srcReg2).
    const isa::OpInfo &oi = e.inst.info();
    std::uint64_t ra_val = 0, rb_val = 0, rc_val = 0;
    if (oi.readsRa) {
        ra_val = e.src[0].value;
        if (oi.readsRb)
            rb_val = e.src[1].value;
    } else {
        if (oi.readsRb)
            rb_val = e.src[0].value;
        if (oi.readsRc)
            rc_val = e.src[1].value;
    }

    RsCold &ec = cold(e.slot);
    const arch::ExecOut out =
        arch::evaluate(e.inst, ec.pc, ra_val, rb_val, rc_val);

    int lat = cfg.aluLat;
    Completion c;
    c.slot = e.slot;
    c.seq = e.seq;
    c.value = out.value;
    c.taken = out.taken;
    c.nextPc = out.nextPc;

    switch (e.inst.info().cls) {
      case isa::ExecClass::IntAlu:
      case isa::ExecClass::Branch:
      case isa::ExecClass::System:
        lat = cfg.aluLat;
        break;
      case isa::ExecClass::IntMul:
        lat = cfg.mulLat;
        break;
      case isa::ExecClass::IntDiv:
        lat = cfg.divLat;
        break;
      case isa::ExecClass::Store:
        lat = cfg.aluLat; // address generation only
        e.memAddr = out.memAddr;
        break;
      case isa::ExecClass::Load: {
        e.memAddr = out.memAddr;
        e.memDeps.reset();
        const bool spec_mem = specMemResolution();
        const int size = e.inst.memSize();
        const StoreTable &st = storeTable();
        // The forwarded bytes, and under speculative memory resolution
        // the predictions the result depends on *through the LSQ*
        // (memDeps). Two channels:
        //
        //  - disambiguation: the ordering check consulted every older
        //    store's address, and those addresses may have been
        //    computed from speculative operands — a mispredicted
        //    address re-opens the check, so the address operands'
        //    dependence bits ride along for every older store
        //    regardless of overlap (whether the store overlaps is
        //    itself part of the speculation);
        //  - forwarding: bytes taken from an overlapping store's data
        //    operand inherit that operand's dependence bits.
        //
        // Register-carried dependences (the load's own address base)
        // are covered by the ordinary operand masks and are not
        // duplicated here.
        const LoadCheck lc =
            spec_mem ? st.disambiguate(
                           e.seq, e.memAddr, size,
                           [&](const StoreView &s, bool overlap) {
                               const RsEntry<Bits> &sr = entry(s.slot);
                               if (sr.src[1].used())
                                   e.memDeps |= sr.src[1].deps;
                               if (overlap && sr.src[0].used())
                                   e.memDeps |= sr.src[0].deps;
                           })
                     : st.disambiguate(e.seq, e.memAddr, size);
        VSIM_DEBUG_ASSERT(lc.mayIssue,
                          "load issued against the ordering rule");
        std::uint64_t raw = lc.forwarded;
        if (lc.covered
            != lsq::lowBytes(static_cast<std::uint64_t>(size)))
            raw |= memory.read(e.memAddr, size) & ~lc.covered;
        c.value = arch::loadExtend(e.inst, raw);
        if (spec_mem) {
            // Memory-carried mask-gaining site: the invalidation sweep
            // must find this load through the subscriber lists.
            subsIndex.note(e.slot, e.memDeps);
        }
        if (lc.forwards()) {
            lat = cfg.aluLat + cfg.storeForwardLat;
            ++stats_.loadsForwarded;
        } else {
            lat = cfg.aluLat + dcacheH.access(e.memAddr, false);
            ++dcachePortsUsed;
        }
        break;
      }
    }

    e.issued = true;
    ++e.nonce;
    ++ec.execCount;
    if (ec.execCount > 1) {
        ++stats_.reissues;
        if (statsOpen)
            invalToReissueHist->sample(cycle - ec.nullifiedAt);
    }
    c.nonce = e.nonce;
    completions.push(cycle + static_cast<std::uint64_t>(lat), c);
    ++stats_.issued;

    if (readyListScheduler())
        sched.remove(e.slot);

    if (tracingEnabled) {
        for (int k = 0; k < lat; ++k)
            tracer_.note(e.seq, cycle + static_cast<unsigned>(k), "EX");
    }
}

template <std::size_t Bits>
void
BasicOooCore<Bits>::issueStage()
{
    if (halted)
        return;

    const auto addCandidate = [&](int slot, std::size_t rank) {
        const RsEntry<Bits> &e = entry(slot);
        bool spec = false;
        for (const Operand<Bits> &o : e.src) {
            if (o.used() && o.state != OperandState::Valid)
                spec = true;
        }
        const bool typed = e.inst.isBranch() || e.inst.isLoad();
        selectOrder.add(policies.select->key(typed, spec), rank);
    };

    if (readyListScheduler()) {
        const std::vector<int> &readySlots = sched.collectReady(
            cycle, [this](int slot) { return classifyWakeup(slot); });
        for (int slot : readySlots) {
            VSIM_DEBUG_ASSERT(canIssue(entry(slot)),
                              "ready-list slot fails the wakeup "
                              "conditions");
            addCandidate(slot, windowOrder.rankOf(
                                   orderPos[static_cast<std::size_t>(slot)]));
        }
    } else {
        for (std::size_t rank = 0; rank < windowOrder.size(); ++rank) {
            const int slot = windowOrder[rank];
            if (canIssue(entry(slot)))
                addCandidate(slot, rank);
        }
    }

    int issued = 0;
    selectOrder.drain([&](std::size_t rank) {
        RsEntry<Bits> &e = entry(windowOrder[rank]);
        if (e.inst.isLoad() && !loadMayIssue(e))
            return true;
        issueEntry(e);
        return ++issued < cfg.issueWidth;
    });
}

// This file's members at every mask width (the class and the members
// defined in ooo_core.cc are instantiated there).
#define VSIM_INSTANTIATE(Bits)                                            \
    template void BasicOooCore<Bits>::buildStoreTable();                  \
    template bool BasicOooCore<Bits>::loadMayIssue(                       \
        const RsEntry<Bits> &);                                           \
    template bool BasicOooCore<Bits>::canIssue(const RsEntry<Bits> &)     \
        const;                                                            \
    template WakeClass BasicOooCore<Bits>::classifyWakeup(int) const;     \
    template void BasicOooCore<Bits>::issueEntry(RsEntry<Bits> &);        \
    template void BasicOooCore<Bits>::issueStage();
VSIM_FOR_EACH_MASK_WIDTH(VSIM_INSTANTIATE)
#undef VSIM_INSTANTIATE

} // namespace vsim::core
