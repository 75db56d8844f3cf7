/**
 * @file
 * Core backbone (BasicOooCore): construction, window slot management,
 * squash, nullification, the SpecHooks bridge into the policy sweeps,
 * the wakeup-scheduler bookkeeping, observability sampling and the
 * top-level cycle loop; then OooCore, which picks the mask width per
 * job. The pipeline stages themselves live in ooo_frontend.cc
 * (fetch/dispatch), ooo_issue.cc (wakeup/select/issue) and
 * ooo_commit.cc (completion/events/retire).
 */

#include "ooo_core.hh"

#include <algorithm>

#include "vsim/arch/exec.hh"
#include "vsim/base/logging.hh"

namespace vsim::core
{

template <std::size_t Bits>
BasicOooCore<Bits>::BasicOooCore(
    const assembler::Program &prog,
    std::shared_ptr<const arch::ExecTrace> recorded,
    const CoreConfig &config)
    : cfg(config), model(config.model),
      policies(makePolicies(config.model)),
      traceOwned(std::move(recorded)), trace(*traceOwned),
      bpred_(bpred::makeBranchPredictor(config.branchPredictor)),
      vpred_(vpred::makeValuePredictor(config.valuePredictor)),
      conf_(std::make_unique<vpred::ResettingConfidence>(
          config.confidenceBits, config.confidenceTableBits,
          config.confidenceThreshold)),
      l2(config.l2cache),
      icacheH(config.icache, l2,
              {config.icacheHitLat, config.l2HitLat, config.l2MissLat}),
      dcacheH(config.dcache, l2,
              {config.dcacheHitLat, config.l2HitLat, config.l2MissLat})
{
    VSIM_ASSERT(cfg.windowSize > 0
                    && cfg.windowSize <= static_cast<int>(Bits),
                "window size ", cfg.windowSize, " out of range");
    VSIM_ASSERT(cfg.issueWidth > 0, "bad issue width");

    // Committed architectural state starts exactly like the loader's.
    arch::ArchState init = arch::loadProgram(prog);
    memory = std::move(init.mem);
    archRegs = init.regs;
    fetchPc = init.pc;
    textBase = prog.textBase;
    textInsts.resize(prog.text.size());
    predecodeText();

    window.resize(static_cast<std::size_t>(cfg.windowSize));
    windowCold.resize(static_cast<std::size_t>(cfg.windowSize));
    for (int i = cfg.windowSize - 1; i >= 0; --i)
        freeSlots.push_back(i);
    regTag.fill(-1);
    vpTrained.assign(trace.entries.size(), false);
    bpTrained.assign(trace.entries.size(), false);

    windowOrder.reset(cfg.windowSize);
    orderPos.assign(static_cast<std::size_t>(cfg.windowSize), 0);
    selectOrder.reset(windowOrder.capacity());
    lsq.reset(cfg.windowSize);
    subsIndex.reset(cfg.windowSize);

    sched.reset(cfg.windowSize);
    waiters.assign(static_cast<std::size_t>(cfg.windowSize), {});

    verifyLatencyHist = &stats_.verifyLatency;
    invalToReissueHist = &stats_.invalToReissue;
    specInFlightHist = &stats_.specInFlight;
    tracingEnabled = cfg.tracePipeline;

    tracer_.setCapacity(cfg.traceRetain);
    intervals_.period = cfg.metricsInterval;

    ledger_.enabled = cfg.specLedger;
    if (cfg.specLedger)
        ledgerIdx.assign(static_cast<std::size_t>(cfg.windowSize), -1);
}

template <std::size_t Bits>
BasicOooCore<Bits>::~BasicOooCore() = default;

template <std::size_t Bits>
void
BasicOooCore<Bits>::setPredictionOverride(PredictionOverride override_fn)
{
    predOverride = std::move(override_fn);
}

// =====================================================================
// snapshot start / shard stats window
// =====================================================================

template <std::size_t Bits>
void
BasicOooCore<Bits>::startFromSnapshot(const SimSnapshot &snap)
{
    VSIM_ASSERT(cycle == 0 && retiredCount == 0 && liveEntries == 0,
                "startFromSnapshot on a running core");
    VSIM_ASSERT(snap.instIndex < trace.entries.size(),
                "snapshot index ", snap.instIndex,
                " outside the trace");
    VSIM_ASSERT(trace.entries[snap.instIndex].pc == snap.pc,
                "snapshot PC does not match the trace at instruction ",
                snap.instIndex);

    archRegs = snap.regs;
    memory = snap.memory;
    predecodeText(); // warmup may have stored into text
    startIndex = snap.instIndex;
    retiredCount = snap.instIndex;
    fetchTraceIdx = static_cast<std::int64_t>(snap.instIndex);
    fetchPc = snap.pc;

    StateReader r(snap.tables.data(), snap.tables.size());
    bpred_->restore(r);
    vpred_->restore(r);
    conf_->restore(r);
    l2.restore(r);
    icacheH.l1().restore(r);
    dcacheH.l1().restore(r);
    VSIM_ASSERT(r.done(), "trailing bytes in snapshot tables");
}

template <std::size_t Bits>
void
BasicOooCore<Bits>::predecodeText()
{
    for (std::size_t i = 0; i < textInsts.size(); ++i) {
        textInsts[i] = isa::decode(static_cast<std::uint32_t>(
            memory.read(textBase + 4 * i, 4)));
    }
}

template <std::size_t Bits>
void
BasicOooCore<Bits>::setRunWindow(std::uint64_t stats_from_retired,
                                 std::uint64_t stop_after_retired)
{
    VSIM_ASSERT(cycle == 0, "setRunWindow on a running core");
    VSIM_ASSERT(stats_from_retired >= retiredCount,
                "stats window starts before the snapshot point");
    VSIM_ASSERT(stop_after_retired > stats_from_retired
                    && stop_after_retired <= trace.entries.size(),
                "bad shard stop boundary");
    statsFromRetired = stats_from_retired;
    stopAfterRetired = stop_after_retired;
    shardWindowed = true;
    // When the window opens at the start (W covers nothing), the
    // all-zero baseline is already correct.
    statsOpen = retiredCount >= statsFromRetired;
}

template <std::size_t Bits>
void
BasicOooCore<Bits>::openStatsWindow()
{
    statsOpen = true;
    statsCut.cycleAt = cycle;
    statsCut.base = stats_;
    statsCut.base.cycles = cycle;
    statsCut.base.icacheMisses = icacheH.l1().stats().misses();
    statsCut.base.dcacheMisses = dcacheH.l1().stats().misses();
    // Restart the interval sampler at the cut: shard samples cover
    // only the counted window, with interval boundaries re-anchored
    // at the cut cycle (DESIGN.md documents the seam).
    if (cfg.metricsInterval != 0) {
        intervals_.samples.clear();
        ivCursor.cycleStart = cycle;
        ivCursor.occupancySum = 0;
        ivCursor.retired = stats_.retired;
        ivCursor.issued = stats_.issued;
        ivCursor.dispatched = stats_.dispatched;
        ivCursor.condBranches = stats_.condBranches;
        ivCursor.condMispredicts = stats_.condMispredicts;
        ivCursor.squashes = stats_.squashes;
        ivCursor.verifyEvents = stats_.verifyEvents;
        ivCursor.invalidateEvents = stats_.invalidateEvents;
        ivCursor.nullifications = stats_.nullifications;
        ivCursor.cpi = stats_.cpi;
    }
}

// =====================================================================
// slot management
// =====================================================================

template <std::size_t Bits>
int
BasicOooCore<Bits>::allocSlot()
{
    VSIM_ASSERT(!freeSlots.empty(), "window overflow");
    const int slot = freeSlots.back();
    freeSlots.pop_back();
    ++liveEntries;
    RsEntry<Bits> &e = window[static_cast<std::size_t>(slot)];
    e = RsEntry<Bits>{};
    windowCold[static_cast<std::size_t>(slot)] = RsCold{};
    e.busy = true;
    // Waiters of the slot's previous tenant are all dead by now (a
    // retiring producer has broadcast; a squashed one took every
    // younger consumer with it) — drop them before they accumulate.
    waiters[static_cast<std::size_t>(slot)].clear();
    return slot;
}

template <std::size_t Bits>
void
BasicOooCore<Bits>::freeSlot(int slot)
{
    RsEntry<Bits> &e = entry(slot);
    VSIM_ASSERT(e.busy, "freeing idle slot");
    e.busy = false;
    freeSlots.push_back(slot);
    --liveEntries;
    if (readyListScheduler())
        sched.remove(slot);
    if (cfg.specLedger)
        ledgerIdx[static_cast<std::size_t>(slot)] = -1;
}

template <std::size_t Bits>
void
BasicOooCore<Bits>::rebuildRegTags()
{
    regTag.fill(-1);
    for (int slot : windowOrder) {
        const RsEntry<Bits> &e = entry(slot);
        if (int dest = e.inst.destReg(); dest >= 0)
            regTag[static_cast<std::size_t>(dest)] = slot;
    }
}

// =====================================================================
// squash
// =====================================================================

template <std::size_t Bits>
void
BasicOooCore<Bits>::squashAfter(std::uint64_t seq,
                                std::uint64_t new_fetch_pc,
                                std::int64_t resume_trace_idx)
{
    while (!windowOrder.empty()) {
        const int slot = windowOrder.back();
        RsEntry<Bits> &e = entry(slot);
        if (e.seq <= seq)
            break;
        if (e.predicted && !e.predResolved) {
            --specLive; // squashed prediction never resolves
            ++stats_.predSquashed;
            ledgerResolved(e, obs::LedgerOutcome::Squashed);
        }
        freeSlot(slot);
        windowOrder.pop_back();
    }
    // The LSQ is in program order, so the squashed (freed-above)
    // entries are exactly its youngest suffix.
    while (!lsq.empty() && entry(lsq.back()).seq > seq)
        lsq.pop_back();
    fetchQueue.clear();
    rebuildRegTags();

    fetchPc = new_fetch_pc;
    fetchResumeAt = cycle + 1;
    fetchSawHalt = false;
    fetchStallIcache = false; // the redirect supersedes any I$ stall
    if (resume_trace_idx >= 0) {
        fetchOnCorrectPath = true;
        fetchTraceIdx = resume_trace_idx;
    } else {
        fetchOnCorrectPath = false;
    }
}

// =====================================================================
// nullification / prediction resolution
// =====================================================================

template <std::size_t Bits>
void
BasicOooCore<Bits>::nullify(RsEntry<Bits> &e)
{
    // Wakeup nullification (§3.4): remove the effects of the previous
    // execution and enable a future wakeup.
    e.issued = false;
    e.executed = false;
    ++e.nonce;
    e.outDeps.reset();
    e.memDeps.reset();
    e.outValid = false;
    e.eqScheduled = false;
    if (e.inst.isStore()) {
        e.addrReady = false;
    }
    e.reissueAt = cycle + static_cast<std::uint64_t>(
                              model.invalidateToReissue);
    cold(e.slot).nullifiedAt = cycle;
    ++stats_.nullifications;
    if (tracingEnabled)
        tracer_.note(e.seq, cycle, "I");
    touchWakeup(e.slot);
}

template <std::size_t Bits>
void
BasicOooCore<Bits>::noteOutputValid(RsEntry<Bits> &e, bool via_event)
{
    e.outValid = true;
    RsCold &ec = cold(e.slot);
    ec.outValidAt = cycle;
    ec.outValidViaEvent = via_event;
    e.verifiedAt = std::max(e.verifiedAt, cycle);
    if (e.predicted && !e.predResolved && !e.eqScheduled) {
        e.eqScheduled = true;
        events.schedule(cycle + static_cast<std::uint64_t>(
                                    model.execToEquality),
                        {EventKind::EqCheck, e.slot, e.seq, -1});
    }
}

template <std::size_t Bits>
void
BasicOooCore<Bits>::resolvePrediction(RsEntry<Bits> &p, bool verified)
{
    if (p.predResolved)
        return;
    ++(verified ? stats_.verifyEvents : stats_.invalidateEvents);
    p.predResolved = true;
    p.verifiedAt = std::max(p.verifiedAt, cycle);
    if (statsOpen)
        verifyLatencyHist->sample(cycle - p.dispatchAt);
    --specLive;
    ledgerResolved(p, verified ? obs::LedgerOutcome::Verified
                               : obs::LedgerOutcome::Invalidated);
    if (tracingEnabled)
        tracer_.note(p.seq, cycle, verified ? "V" : "EQ!");
}

// =====================================================================
// SpecHooks: side effects raised by the policy sweeps
// =====================================================================

template <std::size_t Bits>
void
BasicOooCore<Bits>::outputBecameValid(RsEntry<Bits> &e)
{
    noteOutputValid(e, true);
}

template <std::size_t Bits>
void
BasicOooCore<Bits>::nullifyEntry(RsEntry<Bits> &e)
{
    nullify(e);
}

template <std::size_t Bits>
void
BasicOooCore<Bits>::completeSquash(RsEntry<Bits> &p)
{
    // Complete invalidation (§3.1): treat the value misprediction
    // like a branch misprediction — squash everything younger than
    // p and refetch. p itself keeps its (correct) computed result.
    ++stats_.squashes;
    lastRedirect = RedirectCause::VMisp;
    squashAfter(p.seq, cold(p.slot).pc + 4,
                p.traceIndex >= 0 ? p.traceIndex + 1 : -1);
}

template <std::size_t Bits>
void
BasicOooCore<Bits>::wakeupChanged(RsEntry<Bits> &e)
{
    // A policy sweep may have rewritten the entry's operand masks
    // (the hierarchical invalidation wave re-captures a corrected
    // producer output wholesale) — keep the subscriber lists current.
    subsIndex.noteEntry(e);
    touchWakeup(e.slot);
}

template <std::size_t Bits>
void
BasicOooCore<Bits>::operandInvalidated(RsEntry<Bits> &e, int idx)
{
    if (!readyListScheduler())
        return;
    if (e.src[idx].tag >= 0)
        registerWaiter(e.slot, idx, e.src[idx].tag);
    sched.touch(e.slot);
}

template <std::size_t Bits>
void
BasicOooCore<Bits>::attributeSweep(const RsEntry<Bits> &p,
                                   const RsEntry<Bits> &consumer,
                                   bool invalidation)
{
    (void)consumer;
    if (invalidation) {
        ++stats_.invalTouches;
        // The invalidation of p's prediction killed this consumer:
        // extend p's reissue chain in the ledger.
        if (cfg.specLedger) {
            const std::int64_t i =
                ledgerIdx[static_cast<std::size_t>(p.slot)];
            if (i >= 0)
                ++ledger_.records[static_cast<std::size_t>(i)].reissues;
        }
    } else {
        ++stats_.verifyTouches;
    }
}

// =====================================================================
// speculation-ledger bookkeeping
// =====================================================================

template <std::size_t Bits>
void
BasicOooCore<Bits>::notePredConsumed(const RsEntry<Bits> &producer)
{
    ++stats_.predConsumed;
    if (!cfg.specLedger)
        return;
    const std::int64_t i =
        ledgerIdx[static_cast<std::size_t>(producer.slot)];
    if (i >= 0)
        ++ledger_.records[static_cast<std::size_t>(i)].consumers;
}

template <std::size_t Bits>
void
BasicOooCore<Bits>::ledgerPredictionMade(const RsEntry<Bits> &e)
{
    if (!cfg.specLedger)
        return;
    obs::LedgerRecord r;
    r.seq = e.seq;
    r.pc = cold(e.slot).pc;
    r.madeAt = cycle;
    ledgerIdx[static_cast<std::size_t>(e.slot)] =
        static_cast<std::int64_t>(ledger_.records.size());
    ledger_.records.push_back(r);
}

template <std::size_t Bits>
void
BasicOooCore<Bits>::ledgerResolved(const RsEntry<Bits> &p,
                                   obs::LedgerOutcome outcome)
{
    if (!cfg.specLedger)
        return;
    const std::int64_t i = ledgerIdx[static_cast<std::size_t>(p.slot)];
    if (i < 0)
        return;
    obs::LedgerRecord &r = ledger_.records[static_cast<std::size_t>(i)];
    r.outcome = outcome;
    r.resolvedAt = cycle;
}

// =====================================================================
// wakeup-scheduler bookkeeping
// =====================================================================

template <std::size_t Bits>
void
BasicOooCore<Bits>::touchWakeup(int slot)
{
    if (readyListScheduler())
        sched.touch(slot);
}

template <std::size_t Bits>
void
BasicOooCore<Bits>::registerWaiter(int consumer_slot, int idx, int tag)
{
    waiters[static_cast<std::size_t>(tag)].push_back(
        {consumer_slot, idx});
}

// =====================================================================
// observability sampling
// =====================================================================

template <std::size_t Bits>
obs::CpiCat
BasicOooCore<Bits>::classifyCycle(std::uint64_t retired_delta)
{
    using obs::CpiCat;
    if (retired_delta > 0)
        return CpiCat::Base;

    if (windowOrder.empty()) {
        // Frontend-bound: the backend has nothing at all to work on.
        if (fetchStallIcache)
            return CpiCat::IcacheStall;
        switch (lastRedirect) {
          case RedirectCause::VMisp:
            return CpiCat::VmispSquash;
          case RedirectCause::Branch:
            return CpiCat::BranchRecovery;
          case RedirectCause::None:
            break; // startup ramp
        }
        return CpiCat::FetchRedirect;
    }

    // Commit-centric attribution: nothing retired this cycle, so
    // charge whatever holds the window head (the oldest instruction).
    const RsEntry<Bits> &e = entry(windowOrder.front());
    const RsCold &ec = cold(windowOrder.front());

    if (e.executed) {
        // An executed head failed one of retireOne()'s §3 release
        // conditions; walk them in the same order.
        if (!e.outDeps.none())
            return CpiCat::Verify;
        if (e.predicted && !e.predResolved)
            return CpiCat::Verify;
        for (const Operand<Bits> &o : e.src) {
            if (o.used() && o.state != OperandState::Valid)
                return CpiCat::Verify;
        }
        if (cycle < e.verifiedAt + static_cast<std::uint64_t>(
                                       model.verifyToFreeResource)) {
            // The release delay is verification cost only when the
            // head's validity actually came through the network;
            // otherwise it is the machine's plain commit latency.
            if (e.predicted || ec.outValidViaEvent)
                return CpiCat::Verify;
            for (const Operand<Bits> &o : e.src) {
                if (o.used() && o.validViaEvent)
                    return CpiCat::Verify;
            }
            return CpiCat::Base;
        }
        if (e.inst.isStore())
            return CpiCat::Memory; // store retire needs a dcache port
        return CpiCat::Verify;     // residue guard on a predicted head
    }

    if (e.issued) {
        // In-flight execution: memory-system latency for memory ops,
        // plain functional-unit latency otherwise.
        return e.inst.isMem() ? CpiCat::Memory : CpiCat::Base;
    }

    // Head not yet issued: find the first failing wakeup condition,
    // mirroring canIssue()'s order.
    if (cycle < e.reissueAt)
        return CpiCat::Reissue;
    for (const Operand<Bits> &o : e.src) {
        if (!o.used())
            continue;
        if (!o.hasValue()) {
            // An Invalid operand of an already-executed-once head
            // means it was nullified and waits on its producer's
            // re-broadcast: that is the reissue chain, not a plain
            // operand wait.
            return ec.execCount > 0 ? CpiCat::Reissue
                                   : CpiCat::OperandWait;
        }
        if (o.readyAt > cycle)
            return CpiCat::OperandWait;
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
                return CpiCat::Verify;
            if (o.validViaEvent
                && cycle < o.validAt + static_cast<std::uint64_t>(
                               model.verifyToBranch)) {
                return CpiCat::Verify;
            }
        }
    }
    if (e.inst.isMem()
        && (model.memNeedsValidOps || !cfg.useValuePrediction)) {
        const Operand<Bits> &base = e.inst.isLoad() ? e.src[0] : e.src[1];
        if (base.used()) {
            if (base.state != OperandState::Valid)
                return CpiCat::Verify;
            if (base.validViaEvent
                && cycle < base.validAt + static_cast<std::uint64_t>(
                               model.verifyAddrToMem)) {
                return CpiCat::Verify;
            }
        }
    }
    // No store is older than the head, so the ordering rule never
    // holds a load here; only the data-cache ports can.
    if (e.inst.isLoad() && dcachePortsUsed >= cfg.effDcachePorts())
        return CpiCat::Memory;
    // The head is issueable but was not selected (dispatched this very
    // cycle, or lost the width race): window pressure when the window
    // is full, plain pipeline latency otherwise.
    if (liveEntries >= cfg.windowSize)
        return CpiCat::WindowFull;
    return CpiCat::Base;
}

template <std::size_t Bits>
void
BasicOooCore<Bits>::flushInterval(std::uint64_t cycles)
{
    obs::IntervalSample s;
    s.cycleStart = ivCursor.cycleStart;
    s.cycles = cycles;
    s.occupancySum = ivCursor.occupancySum;
    s.retired = stats_.retired - ivCursor.retired;
    s.issued = stats_.issued - ivCursor.issued;
    s.dispatched = stats_.dispatched - ivCursor.dispatched;
    s.condBranches = stats_.condBranches - ivCursor.condBranches;
    s.condMispredicts =
        stats_.condMispredicts - ivCursor.condMispredicts;
    s.squashes = stats_.squashes - ivCursor.squashes;
    s.verifyEvents = stats_.verifyEvents - ivCursor.verifyEvents;
    s.invalidateEvents =
        stats_.invalidateEvents - ivCursor.invalidateEvents;
    s.nullifications =
        stats_.nullifications - ivCursor.nullifications;
    for (std::size_t i = 0; i < obs::kCpiCatCount; ++i)
        s.cpi.cycles[i] = stats_.cpi.cycles[i] - ivCursor.cpi.cycles[i];
    intervals_.samples.push_back(s);

    ivCursor.cycleStart += cycles;
    ivCursor.occupancySum = 0;
    ivCursor.retired = stats_.retired;
    ivCursor.issued = stats_.issued;
    ivCursor.dispatched = stats_.dispatched;
    ivCursor.condBranches = stats_.condBranches;
    ivCursor.condMispredicts = stats_.condMispredicts;
    ivCursor.squashes = stats_.squashes;
    ivCursor.verifyEvents = stats_.verifyEvents;
    ivCursor.invalidateEvents = stats_.invalidateEvents;
    ivCursor.nullifications = stats_.nullifications;
    ivCursor.cpi = stats_.cpi;
}

template <std::size_t Bits>
void
BasicOooCore<Bits>::sampleObservability()
{
    // Always-on cycle attribution: exactly one category per tick, so
    // the stack sums to total cycles by construction. Like the
    // histograms, collected on every run so memoized results are
    // flag-independent.
    stats_.cpi[classifyCycle(stats_.retired - retiredAtTickStart)] += 1;

    // Always-on distributions: collected on every run so a memoized
    // result is identical no matter which flags requested it.
    if (cfg.useValuePrediction && statsOpen)
        specInFlightHist->sample(static_cast<std::uint64_t>(specLive));

    if (cfg.metricsInterval == 0)
        return;
    ivCursor.occupancySum += static_cast<std::uint64_t>(liveEntries);
    // Flush on absolute period boundaries (cycle + 1 = completed
    // cycles). For a run counted from cycle 0 this is the same as
    // flushing every `metricsInterval` elapsed cycles; for a shard
    // whose window opened mid-run it keeps interval boundaries
    // aligned with the monolithic run's, so a full-warmup merge can
    // coalesce the two partial samples at each seam into exactly the
    // monolithic sample (see sim/shard.cc).
    if ((cycle + 1) % cfg.metricsInterval == 0)
        flushInterval(cycle + 1 - ivCursor.cycleStart);
}

// =====================================================================
// top level
// =====================================================================

template <std::size_t Bits>
bool
BasicOooCore<Bits>::tick()
{
    if (halted)
        return false;
    dcachePortsUsed = 0;
    retiredAtTickStart = stats_.retired;
    applyCompletions();
    processEvents();
    retireStage();
    issueStage();
    dispatchStage();
    fetchStage();
    sampleObservability();
    ++cycle;
    // Shard stats cut: the cycle at whose end the retired count
    // crossed the boundary belongs to the *previous* shard; counting
    // here starts with the next tick.
    if (!statsOpen && retiredCount >= statsFromRetired)
        openStatsWindow();
    return !halted;
}

template <std::size_t Bits>
SimOutcome
BasicOooCore<Bits>::run()
{
    while (!halted && cycle < cfg.maxCycles
           && retiredCount < stopAfterRetired)
        tick();

    if (halted) {
        // A core started mid-trace only produces the suffix of the
        // program's output, so the full-output check needs a start
        // at instruction 0.
        if (startIndex == 0) {
            VSIM_ASSERT(output == trace.output,
                        "program output diverged from functional run");
        }
        VSIM_ASSERT(retiredCount == trace.entries.size(),
                    "retired count != trace length");
    }
    if (shardWindowed) {
        VSIM_ASSERT(retiredCount >= stopAfterRetired || halted,
                    "shard hit the cycle limit before its stop "
                    "boundary");
        VSIM_ASSERT(statsOpen,
                    "shard stats window never opened");
    }

    // Close the trailing (short) interval so its events are not lost.
    // Must happen before the shard-window subtraction below: interval
    // deltas are computed against the absolute counter values the
    // cursor captured.
    if (cfg.metricsInterval != 0 && cycle > ivCursor.cycleStart)
        flushInterval(cycle - ivCursor.cycleStart);

    stats_.cycles = cycle;
    stats_.icacheMisses = icacheH.l1().stats().misses();
    stats_.dcacheMisses = dcacheH.l1().stats().misses();
    if (shardWindowed)
        stats_.subtractCounters(statsCut.base);
    VSIM_ASSERT(stats_.cpi.total() == stats_.cycles,
                "CPI stack does not sum to total cycles");

    // A shard stopping at its boundary leaves correct-path entries in
    // the window that the oracle trace proves will retire; mark their
    // prediction records committed so the bit matches the monolithic
    // run (wrong-path entries stay uncommitted there too).
    if (shardWindowed && !halted && cfg.specLedger) {
        for (const int slot : windowOrder) {
            const RsEntry<Bits> &e = entry(slot);
            const std::int64_t li =
                ledgerIdx[static_cast<std::size_t>(slot)];
            if (e.busy && e.predicted && e.traceIndex >= 0 && li >= 0)
                ledger_.records[static_cast<std::size_t>(li)]
                    .committed = true;
        }
    }

    // Shard ledger window: records of predictions made during the cut
    // cycle or earlier belong to the previous shard. Pre-cut records
    // that *resolved* inside this window are kept as carries: the
    // previous shard saw those predictions as unresolved at its stop
    // boundary, and the merge patches its seam records from them
    // (exact at full warmup, where both shards replay the same
    // machine).
    if (shardWindowed && cfg.specLedger && statsCut.cycleAt > 0) {
        auto &rec = ledger_.records;
        rec.erase(
            std::remove_if(
                rec.begin(), rec.end(),
                [this](const obs::LedgerRecord &r) {
                    if (r.madeAt >= statsCut.cycleAt)
                        return false;
                    return r.outcome == obs::LedgerOutcome::Unresolved
                           || r.resolvedAt < statsCut.cycleAt;
                }),
            rec.end());
    }

    SimOutcome outcome;
    outcome.stats = stats_;
    outcome.exitCode = exitCode;
    outcome.output = output;
    outcome.halted = halted;
    outcome.intervals = intervals_;
    outcome.ledger = ledger_;
    return outcome;
}

#define VSIM_INSTANTIATE(Bits) template class BasicOooCore<Bits>;
VSIM_FOR_EACH_MASK_WIDTH(VSIM_INSTANTIATE)
#undef VSIM_INSTANTIATE

// =====================================================================
// OooCore: the width picked per job
// =====================================================================

OooCore::OooCore(const assembler::Program &prog, const CoreConfig &config)
    : OooCore(prog, arch::preExecute(prog), config)
{}

OooCore::OooCore(const assembler::Program &prog, arch::ExecTrace recorded,
                 const CoreConfig &config)
    : OooCore(prog,
              std::make_shared<const arch::ExecTrace>(std::move(recorded)),
              config)
{}

OooCore::OooCore(const assembler::Program &prog,
                 std::shared_ptr<const arch::ExecTrace> recorded,
                 const CoreConfig &config)
{
    switch (maskBitsFor(config.windowSize)) {
      case 128:
        core_ = std::make_unique<BasicOooCore<128>>(
            prog, std::move(recorded), config);
        break;
      case 256:
        core_ = std::make_unique<BasicOooCore<256>>(
            prog, std::move(recorded), config);
        break;
      default:
        core_ = std::make_unique<BasicOooCore<512>>(
            prog, std::move(recorded), config);
        break;
    }
}

OooCore::~OooCore() = default;

void
OooCore::setPredictionOverride(PredictionOverride override_fn)
{
    std::visit([&](auto &c) {
        c->setPredictionOverride(std::move(override_fn));
    }, core_);
}

void
OooCore::startFromSnapshot(const SimSnapshot &snap)
{
    std::visit([&](auto &c) { c->startFromSnapshot(snap); }, core_);
}

void
OooCore::setRunWindow(std::uint64_t stats_from_retired,
                      std::uint64_t stop_after_retired)
{
    std::visit([&](auto &c) {
        c->setRunWindow(stats_from_retired, stop_after_retired);
    }, core_);
}

std::uint64_t
OooCore::statsCutCycle() const
{
    return std::visit([](auto &c) { return c->statsCutCycle(); }, core_);
}

SimOutcome
OooCore::run()
{
    return std::visit([](auto &c) { return c->run(); }, core_);
}

bool
OooCore::tick()
{
    return std::visit([](auto &c) { return c->tick(); }, core_);
}

const CoreStats &
OooCore::stats() const
{
    return std::visit(
        [](auto &c) -> const CoreStats & { return c->stats(); }, core_);
}

const PipelineTracer &
OooCore::tracer() const
{
    return std::visit(
        [](auto &c) -> const PipelineTracer & { return c->tracer(); },
        core_);
}

std::uint64_t
OooCore::now() const
{
    return std::visit([](auto &c) { return c->now(); }, core_);
}

std::uint64_t
OooCore::programLength() const
{
    return std::visit([](auto &c) { return c->programLength(); }, core_);
}

bool
OooCore::checkSweepInvariants(std::string *why) const
{
    return std::visit(
        [&](auto &c) { return c->checkSweepInvariants(why); }, core_);
}

} // namespace vsim::core
