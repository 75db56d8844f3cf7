#include "snapshot.hh"

#include "vsim/base/logging.hh"
#include "vsim/bpred/bpred.hh"
#include "vsim/mem/cache.hh"
#include "vsim/vpred/vpred.hh"

namespace vsim::core
{

namespace
{

constexpr std::uint64_t kSnapshotVersion = 1;

} // namespace

std::vector<std::uint8_t>
SimSnapshot::toBytes() const
{
    StateWriter w;
    w.tag("SNAP");
    w.u64(kSnapshotVersion);
    w.u64(instIndex);
    w.u64(pc);
    for (std::uint64_t reg : regs)
        w.u64(reg);
    memory.save(w);
    w.u64(tables.size());
    w.bytes(tables.data(), tables.size());
    return w.take();
}

SimSnapshot
SimSnapshot::fromBytes(const std::vector<std::uint8_t> &bytes)
{
    StateReader r(bytes.data(), bytes.size());
    r.tag("SNAP");
    const std::uint64_t version = r.u64();
    VSIM_ASSERT(version == kSnapshotVersion,
                "unsupported snapshot version ", version);
    SimSnapshot snap;
    snap.instIndex = r.u64();
    snap.pc = r.u64();
    for (std::uint64_t &reg : snap.regs)
        reg = r.u64();
    snap.memory.restore(r);
    snap.tables.resize(r.u64());
    r.bytes(snap.tables.data(), snap.tables.size());
    VSIM_ASSERT(r.done(), "trailing bytes after snapshot");
    return snap;
}

bool
SimSnapshot::operator==(const SimSnapshot &other) const
{
    // MemImage has no operator==; the serialized form is canonical
    // (pages sorted), so compare through it.
    return toBytes() == other.toBytes();
}

void
functionalWarmup(const assembler::Program &prog,
                 const arch::ExecTrace &trace, const CoreConfig &cfg,
                 const std::vector<std::uint64_t> &points,
                 const SnapshotSink &sink)
{
    // Mirror the detailed core's construction exactly, so the
    // serialized tables restore into it without geometry mismatches.
    auto bp = bpred::makeBranchPredictor(cfg.branchPredictor);
    auto vp = vpred::makeValuePredictor(cfg.valuePredictor);
    vpred::ResettingConfidence conf(cfg.confidenceBits,
                                    cfg.confidenceTableBits,
                                    cfg.confidenceThreshold);
    mem::Cache l2(cfg.l2cache);
    mem::CacheHierarchy icacheH(
        cfg.icache, l2,
        {cfg.icacheHitLat, cfg.l2HitLat, cfg.l2MissLat});
    mem::CacheHierarchy dcacheH(
        cfg.dcache, l2,
        {cfg.dcacheHitLat, cfg.l2HitLat, cfg.l2MissLat});

    const auto capture = [&](const arch::ArchState &st,
                             std::uint64_t inst_index) {
        SimSnapshot snap;
        snap.instIndex = inst_index;
        snap.pc = st.pc;
        snap.regs = st.regs;
        snap.memory = st.mem;
        StateWriter w;
        bp->save(w);
        vp->save(w);
        conf.save(w);
        l2.save(w);
        icacheH.l1().save(w);
        dcacheH.l1().save(w);
        snap.tables = w.take();
        return snap;
    };

    // Fast-forward by *applying* the recorded entries to the
    // architectural state instead of re-executing them: the trace
    // already carries every destination value, effective address and
    // next pc, so fetch/decode/evaluate are pure overhead here — and
    // this pass is the serial spine of a sampled run. Store data is
    // the ra register at the store (exec.cc), read from the
    // up-to-date state. System output side effects are skipped: a
    // snapshot captures pc/registers/memory, never the output stream.
    // The pc cross-check at every snapshot point still catches a
    // trace that is inconsistent with itself or with the program.
    arch::ArchState st = arch::loadProgram(prog);
    std::size_t nextPoint = 0;
    for (std::uint64_t i = 0; i < trace.entries.size(); ++i) {
        while (nextPoint < points.size() && points[nextPoint] == i) {
            VSIM_ASSERT(st.pc == trace.entries[i].pc,
                        "warmup diverged from trace at instruction ", i);
            sink(capture(st, i));
            ++nextPoint;
        }
        if (nextPoint >= points.size())
            break;

        const arch::TraceEntry &te = trace.entries[i];
        if (te.inst.isStore())
            st.mem.write(te.memAddr, st.reg(te.inst.ra),
                         te.inst.memSize());
        if (int dest = te.inst.destReg(); dest >= 0)
            st.setReg(dest, te.value);
        st.pc = te.nextPc;

        // Train the structures from the retired stream, approximating
        // the detailed machine's steady state (see file header).
        icacheH.access(te.pc, false);
        if (te.inst.isCondBranch()) {
            const bool taken = te.nextPc != te.pc + 4;
            bp->predict(te.pc);
            bp->update(te.pc, taken);
        }
        if (te.inst.isMem())
            dcacheH.access(te.memAddr, te.inst.isStore());
        if (cfg.useValuePrediction && te.inst.destReg() >= 0
            && !te.inst.isControl()) {
            const vpred::Prediction p = vp->predict(te.pc);
            const bool correct = p.value == te.value;
            if (cfg.updateTiming == UpdateTiming::Immediate) {
                vp->pushHistory(te.pc, te.value);
                vp->updateTable(te.pc, p.token, te.value);
            } else {
                vp->pushHistory(te.pc, p.value);
                vp->updateTable(te.pc, p.token, te.value);
                vp->commitHistory(te.pc, te.value, correct);
            }
            if (cfg.confidence == ConfidenceKind::Real)
                conf.update(te.pc, correct);
        }
    }

    // Points at (or past) the end of the trace snapshot final state.
    while (nextPoint < points.size()) {
        VSIM_ASSERT(points[nextPoint] >= trace.entries.size(),
                    "warmup ended before snapshot point ",
                    points[nextPoint]);
        sink(capture(st, trace.entries.size()));
        ++nextPoint;
    }
}

std::vector<SimSnapshot>
functionalWarmup(const assembler::Program &prog,
                 const arch::ExecTrace &trace, const CoreConfig &cfg,
                 const std::vector<std::uint64_t> &points)
{
    std::vector<SimSnapshot> snapshots;
    snapshots.reserve(points.size());
    functionalWarmup(prog, trace, cfg, points, [&](SimSnapshot snap) {
        snapshots.push_back(std::move(snap));
    });
    return snapshots;
}

} // namespace vsim::core
