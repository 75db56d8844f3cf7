/**
 * @file
 * Backend completion/verification/retire of the layered core:
 * completion apply + result-bus broadcast, the speculation event loop
 * (EqCheck dispatch and the policy-driven verify/invalidate sweeps),
 * and the retire stage with its §3-governed release conditions.
 */

#include "ooo_core.hh"

#include <algorithm>

#include "vsim/arch/exec.hh"
#include "vsim/base/logging.hh"

namespace vsim::core
{

// =====================================================================
// completion / broadcast
// =====================================================================

void
OooCore::broadcast(RsEntry &producer)
{
    const bool keep_prediction =
        producer.predicted && !producer.predResolved;

    if (!readyListScheduler()) {
        // Legacy result bus: sweep every younger entry for operands
        // tagged to this producer.
        for (int slot : windowOrder) {
            RsEntry &f = entry(slot);
            if (f.seq <= producer.seq)
                continue;
            for (Operand &o : f.src) {
                if (!o.used() || o.state != OperandState::Invalid
                    || o.tag != producer.slot) {
                    continue;
                }
                if (keep_prediction) {
                    o.value = producer.predValue;
                    o.state = OperandState::Predicted;
                    o.deps.reset();
                    o.deps.set(
                        static_cast<std::size_t>(producer.slot));
                    o.readyAt = cycle;
                    notePredConsumed(producer);
                } else {
                    o.value = producer.outValue;
                    o.deps = producer.outDeps;
                    o.readyAt = cycle;
                    if (o.deps.none()) {
                        o.state = OperandState::Valid;
                        o.validAt = cycle;
                        o.validViaEvent = false;
                        f.verifiedAt = std::max(f.verifiedAt, cycle);
                    } else {
                        o.state = OperandState::Speculative;
                    }
                }
                // Result-bus mask-gaining site (legacy sweep path).
                subsIndex.note(f.slot, o.deps);
            }
        }
        return;
    }

    // Ready-list mode: only the registered waiters look at the bus.
    // Every live registration is consumed by this broadcast (an
    // Invalid operand tagged here is unconditionally filled), so the
    // list is taken wholesale; entries that fail the same busy/seq/
    // state/tag checks the sweep applied are stale and dropped.
    auto &list = waiters[static_cast<std::size_t>(producer.slot)];
    if (list.empty())
        return;
    waiterScratch.clear();
    std::swap(waiterScratch, list);
    for (const auto &[slot, idx] : waiterScratch) {
        RsEntry &f = entry(slot);
        if (!f.busy || f.seq <= producer.seq)
            continue;
        Operand &o = f.src[idx];
        if (!o.used() || o.state != OperandState::Invalid
            || o.tag != producer.slot) {
            continue;
        }
        if (keep_prediction) {
            o.value = producer.predValue;
            o.state = OperandState::Predicted;
            o.deps.reset();
            o.deps.set(static_cast<std::size_t>(producer.slot));
            o.readyAt = cycle;
            notePredConsumed(producer);
        } else {
            o.value = producer.outValue;
            o.deps = producer.outDeps;
            o.readyAt = cycle;
            if (o.deps.none()) {
                o.state = OperandState::Valid;
                o.validAt = cycle;
                o.validViaEvent = false;
                f.verifiedAt = std::max(f.verifiedAt, cycle);
            } else {
                o.state = OperandState::Speculative;
            }
        }
        // Result-bus mask-gaining site (waiter-list path).
        subsIndex.note(f.slot, o.deps);
        sched.touch(slot);
    }
}

void
OooCore::applyCompletions()
{
    auto it = completions.begin();
    while (it != completions.end() && it->first <= cycle) {
        for (const Completion &c : it->second) {
            RsEntry &e = entry(c.slot);
            if (!e.busy || e.seq != c.seq || e.nonce != c.nonce
                || !e.issued || e.executed) {
                continue; // stale (nullified or squashed meanwhile)
            }
            RsCold &ec = cold(c.slot);
            e.executed = true;
            ec.execDoneAt = cycle;
            e.outValue = c.value;
            e.outDeps.reset();
            for (const Operand &o : e.src) {
                if (o.used())
                    e.outDeps |= o.deps;
            }
            // Memory-carried dependences acquired at issue (always
            // empty under valid-ops memory resolution). The network
            // may have cleared bits while the access was in flight;
            // the fold uses the maintained mask, not the snapshot.
            e.outDeps |= e.memDeps;
            // The fold introduces no bits the operand-capture and
            // memDeps sites did not already subscribe, but keeping the
            // call here makes the invariant independent of that
            // reasoning.
            subsIndex.note(e.slot, e.outDeps);
            e.verifiedAt = std::max(e.verifiedAt, cycle);
            if (e.inst.isStore())
                e.addrReady = true;
            if (tracingEnabled)
                tracer_.note(e.seq, cycle, "W");

            if (e.outDeps.none())
                noteOutputValid(e, false);
            broadcast(e);

            if (e.inst.isBranch() && c.nextPc != ec.predNextPc) {
                // Branch misprediction: squash younger work and
                // redirect fetch to the computed target. Fetch is back
                // on the correct path only if the computed target is
                // architecturally right (it can be wrong when branches
                // are allowed to resolve with speculative operands).
                ++stats_.squashes;
                lastRedirect = RedirectCause::Branch;
                const bool on_path =
                    e.traceIndex >= 0
                    && c.nextPc
                           == trace.entries[static_cast<std::size_t>(
                                                e.traceIndex)]
                                  .nextPc;
                squashAfter(e.seq, c.nextPc,
                            on_path ? e.traceIndex + 1 : -1);
                // Later re-executions (speculative resolution only)
                // compare against the path actually being fetched.
                ec.predNextPc = c.nextPc;
                ec.mispredicted = true;
            }
        }
        it = completions.erase(it);
    }
}

// =====================================================================
// verification / invalidation events
// =====================================================================

void
OooCore::doEqCheck(RsEntry &e)
{
    if (!e.executed || !e.outDeps.none() || !e.predicted
        || e.predResolved) {
        e.eqScheduled = false;
        return;
    }
    e.eqScheduled = false;
    if (e.outValue == e.predValue) {
        events.scheduleWave(cycle + static_cast<std::uint64_t>(
                                        model.equalityToVerify),
                            EventKind::Verify, e.slot, e.seq,
                            policies.verify->hierarchical());
    } else {
        events.scheduleWave(cycle + static_cast<std::uint64_t>(
                                        model.equalityToInvalidate),
                            EventKind::Invalidate, e.slot, e.seq,
                            policies.invalidate->hierarchical());
    }
}

void
OooCore::processEvents()
{
    while (events.due(cycle)) {
        for (const Event &ev : events.popBatch(cycle)) {
            RsEntry &e = entry(ev.slot);
            if (!e.busy || e.seq != ev.seq)
                continue; // squashed
            switch (ev.kind) {
              case EventKind::EqCheck:
                doEqCheck(e);
                break;
              case EventKind::Verify:
                resolvePrediction(e, true);
                if (policies.verify->propagatesOnEvent()
                    && policies.verify->apply(windowRef(), e, cycle,
                                              *this)) {
                    events.advanceWave(cycle, ev);
                }
                break;
              case EventKind::Invalidate:
                resolvePrediction(e, false);
                if (policies.invalidate->apply(windowRef(), e, cycle,
                                               *this)) {
                    events.advanceWave(cycle, ev);
                }
                break;
            }
        }
    }
}

// =====================================================================
// retire
// =====================================================================

bool
OooCore::retireOne()
{
    if (windowOrder.empty())
        return false;
    const int slot = windowOrder.front();
    RsEntry &e = entry(slot);
    RsCold &ec = cold(slot);

    if (!e.executed || !e.outDeps.none())
        return false;
    if (e.predicted && !e.predResolved)
        return false;
    for (const Operand &o : e.src) {
        if (o.used() && o.state != OperandState::Valid)
            return false;
    }
    if (cycle < e.verifiedAt + static_cast<std::uint64_t>(
                                   model.verifyToFreeResource)) {
        return false;
    }
    if (e.inst.isStore() && dcachePortsUsed >= cfg.effDcachePorts())
        return false; // no store port this cycle
    // A predicted instruction drives its verification/invalidation
    // transaction from its reservation station: under a multi-step
    // wave it cannot release the entry while any in-flight value still
    // carries its dependence bit. Whether the applicable scheme leaves
    // such residue is the policy's call (residueGuardAtRetire):
    // single-event schemes never do, and the hybrid's retirement sweep
    // clears its own — under retirement-based verification the guard
    // would deadlock against this very retirement.
    if (e.predicted) {
        const bool mispredicted = e.predValue != e.outValue;
        const bool guard =
            mispredicted ? policies.invalidate->residueGuardAtRetire()
                         : policies.verify->residueGuardAtRetire();
        if (guard) {
            const std::size_t pbit = static_cast<std::size_t>(e.slot);
            if (sparseSweeps()) {
                if (subsIndex.anyOtherCarrier(static_cast<int>(pbit),
                                              window, e.slot)) {
                    return false;
                }
            } else {
                for (int other : windowOrder) {
                    const RsEntry &f = entry(other);
                    if (f.slot == e.slot)
                        continue;
                    if (f.executed && f.outDeps.test(pbit))
                        return false;
                    if (f.memDeps.test(pbit))
                        return false;
                    for (const Operand &o : f.src) {
                        if (o.used() && o.deps.test(pbit))
                            return false;
                    }
                }
            }
        }
    }

    // ---- golden check against the functional pre-execution ----------
    VSIM_ASSERT(e.traceIndex >= 0,
                "wrong-path instruction reached retirement, pc=", ec.pc);
    VSIM_ASSERT(e.traceIndex == static_cast<std::int64_t>(retiredCount),
                "retirement out of trace order at pc=", ec.pc);
    const arch::TraceEntry &te =
        trace.entries[static_cast<std::size_t>(e.traceIndex)];
    VSIM_ASSERT(te.pc == ec.pc, "retired pc mismatch");
    if (int dest = e.inst.destReg(); dest >= 0) {
        VSIM_ASSERT(e.outValue == te.value,
                    "value mismatch at retirement, pc=", ec.pc,
                    " ooo=", e.outValue, " func=", te.value);
        archRegs[static_cast<std::size_t>(dest)] = e.outValue;
        if (regTag[static_cast<std::size_t>(dest)] == slot)
            regTag[static_cast<std::size_t>(dest)] = -1;
    }

    if (e.inst.isStore()) {
        memory.write(e.memAddr, e.src[0].value, e.inst.memSize());
        dcacheH.access(e.memAddr, true);
        ++dcachePortsUsed;
        ++stats_.retiredStores;
    } else if (e.inst.isLoad()) {
        ++stats_.retiredLoads;
    } else if (e.inst.isSystem()) {
        switch (e.inst.op) {
          case isa::Op::HALT:
            halted = true;
            exitCode = e.src[0].used() ? e.src[0].value : 0;
            break;
          case isa::Op::PUTC:
            output.push_back(static_cast<char>(e.src[0].value));
            break;
          case isa::Op::PUTI:
            output += std::to_string(
                static_cast<std::int64_t>(e.src[0].value));
            break;
          default:
            VSIM_PANIC("unknown system op at retire");
        }
    } else if (e.inst.isBranch()) {
        ++stats_.retiredBranches;
        if (e.inst.isCondBranch()) {
            ++stats_.condBranches;
            if (ec.mispredicted)
                ++stats_.condMispredicts;
        }
    }

    // ---- value-prediction accounting & delayed training --------------
    if (e.vpEligible) {
        ++stats_.vpEligible;
        const bool correct = e.predValue == e.outValue;
        auto &pp = perPcVp[ec.pc];
        ++pp.first;
        pp.second += correct;
        if (correct)
            ++(e.predConfident ? stats_.vpCH : stats_.vpCL);
        else
            ++(e.predConfident ? stats_.vpIH : stats_.vpIL);
        if (e.predicted) {
            ++stats_.vpSpeculated;
            // Ledger: the prediction's producer reached architectural
            // state (freeSlot below clears the slot's record index).
            if (cfg.specLedger) {
                const std::int64_t li =
                    ledgerIdx[static_cast<std::size_t>(slot)];
                if (li >= 0)
                    ledger_.records[static_cast<std::size_t>(li)]
                        .committed = true;
            }
        }
        if (!predOverride && cfg.updateTiming == UpdateTiming::Delayed) {
            vpred_->updateTable(ec.pc, ec.predToken, e.outValue);
            vpred_->commitHistory(ec.pc, e.outValue, correct);
            if (cfg.confidence == ConfidenceKind::Real)
                conf_->update(ec.pc, correct);
        }
    }

    // Retirement-based verification: the paper's §3.2 scheme validates
    // consumers through the retirement broadcast.
    if (e.predicted && policies.verify->sweepsAtRetire())
        policies.verify->applyRetire(windowRef(), e, cycle, *this);

    if (tracingEnabled)
        tracer_.note(e.seq, cycle, "RT");

    if (e.inst.isMem()) {
        VSIM_ASSERT(!lsq.empty() && lsq.front() == slot,
                    "LSQ out of order at retirement");
        lsq.pop_front();
    }
    windowOrder.pop_front();
    freeSlot(slot);
    ++retiredCount;
    ++stats_.retired;
    return true;
}

void
OooCore::retireStage()
{
    const int width = cfg.effRetireWidth();
    for (int n = 0; n < width && !halted; ++n) {
        if (!retireOne())
            break;
    }
}

} // namespace vsim::core
