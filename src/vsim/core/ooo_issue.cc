/**
 * @file
 * Backend wakeup/select/issue of the layered core. Two selection
 * implementations produce the same candidate set every cycle:
 *
 *  - Scan: the legacy O(window) rescan of every reservation station
 *    against the full wakeup conditions (canIssue).
 *  - ReadyList: the event-driven IssueScheduler; the core touches a
 *    slot whenever something a wakeup decision reads changes, and
 *    classifyWakeup() maps the entry onto ready-now / ready-at-a-
 *    known-cycle / parked-until-an-event.
 *
 * Both paths feed the same (prio, spec, seq) sort, where the key comes
 * from the model's SelectionPolicy (§3.5), so runs are bit-identical.
 * Load store-ordering and data-cache-port constraints are evaluated in
 * the selection loop (not in wakeup): a load blocked by them stays a
 * candidate and retries, exactly as the scan behaved. Each check is
 * one pass of disambiguate() over a compact table of the LSQ's stores,
 * built once per cycle (storeTable); the issuing load's byte merge and
 * the CPI classifier go through the same routine.
 */

#include "ooo_core.hh"

#include <algorithm>

#include "vsim/arch/exec.hh"
#include "vsim/base/logging.hh"

namespace vsim::core
{

namespace
{

/** Mask of the low @p n bytes of a 64-bit value (all of it from 8). */
std::uint64_t
lowBytes(std::uint64_t n)
{
    return n >= 8 ? ~std::uint64_t{0} : (std::uint64_t{1} << (8 * n)) - 1;
}

/**
 * The ordering rule's overlap test: the store's and the load's byte
 * ranges intersect, with the range ends wrapping modulo 2^64.
 */
bool
overlaps(const StoreView &s, std::uint64_t addr, int size)
{
    return std::max(s.addr, addr)
           < std::min(s.addr + s.size,
                      addr + static_cast<std::uint64_t>(size));
}

/**
 * The bytes of the @p size-byte load at @p addr that store @p s
 * covers, as a mask over the load's little-endian value, with the
 * store's data shifted onto those bytes in @p placed. Byte addresses
 * compare one by one modulo 2^64: a store whose range wraps past the
 * top of the address space covers nothing, and a wrapping load still
 * finds the bytes it wraps onto. Nonzero exactly when overlaps() holds
 * unless one of the two ranges wraps.
 */
std::uint64_t
coverMask(const StoreView &s, std::uint64_t addr, int size,
          std::uint64_t &placed)
{
    if (s.addr + s.size < s.addr)
        return 0;
    const auto n = static_cast<std::uint64_t>(size);
    // The store starts `ahead` bytes into the load ...
    const std::uint64_t ahead = s.addr - addr;
    if (ahead < n) {
        placed = s.data << (8 * ahead);
        return lowBytes(ahead + s.size) & lowBytes(n) & ~lowBytes(ahead);
    }
    // ... or `behind` bytes before it.
    const std::uint64_t behind = addr - s.addr;
    if (behind < s.size) {
        placed = s.data >> (8 * behind);
        return lowBytes(s.size - behind) & lowBytes(n);
    }
    return 0;
}

} // namespace

template <std::size_t Bits>
const std::vector<StoreView> &
BasicOooCore<Bits>::storeTable()
{
    if (storesCycle == cycle)
        return stores;
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
        stores.push_back(
            {s.seq, s.memAddr, data.value, slot,
             static_cast<std::uint8_t>(s.inst.memSize()),
             s.addrReady,
             data.readyAt <= cycle
                 && (spec ? data.hasValue()
                          : data.state == OperandState::Valid)});
    }
    return stores;
}

template <std::size_t Bits>
typename BasicOooCore<Bits>::LoadCheck
BasicOooCore<Bits>::disambiguate(const RsEntry<Bits> &e,
                                 std::uint64_t addr,
                                 SpecMask<Bits> *mem_deps)
{
    // Loads execute only once every preceding store address is known
    // (§2.1); bytes covered by an older store additionally need the
    // store's data to be usable. Selection asks whether the load may
    // issue and, once the data-cache ports are used up, whether it
    // would forward; the issuing load takes its forwarded bytes.
    //
    // Under speculative memory resolution the issuing load also
    // collects in @p mem_deps the predictions its result depends on
    // *through the LSQ*. Two channels:
    //
    //  - disambiguation: the ordering check consulted every older
    //    store's address, and those addresses may have been computed
    //    from speculative operands — a mispredicted address re-opens
    //    the check, so the address operands' dependence bits ride
    //    along for every older store regardless of overlap (whether
    //    the store overlaps is itself part of the speculation);
    //  - forwarding: bytes taken from an overlapping store's data
    //    operand inherit that operand's dependence bits.
    //
    // Register-carried dependences (the load's own address base) are
    // covered by the ordinary operand masks and are not duplicated
    // here.
    const int size = e.inst.memSize();
    LoadCheck r;
    for (const StoreView &s : storeTable()) {
        if (s.seq >= e.seq)
            break;
        const bool overlap = overlaps(s, addr, size);
        if (!s.addrKnown || (overlap && !s.dataUsable))
            return {false, 0, 0};
        // Oldest to youngest: the youngest store covering a byte wins.
        std::uint64_t placed = 0;
        const std::uint64_t mask = coverMask(s, addr, size, placed);
        r.forwarded = (r.forwarded & ~mask) | (placed & mask);
        r.covered |= mask;
        if (mem_deps) {
            const RsEntry<Bits> &st = entry(s.slot);
            if (st.src[1].used())
                *mem_deps |= st.src[1].deps;
            if (overlap && st.src[0].used())
                *mem_deps |= st.src[0].deps;
        }
    }
    return r;
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
        const LoadCheck lc =
            disambiguate(e, e.memAddr, spec_mem ? &e.memDeps : nullptr);
        VSIM_DEBUG_ASSERT(lc.mayIssue,
                          "load issued against the ordering rule");
        const int size = e.inst.memSize();
        std::uint64_t raw = lc.forwarded;
        if (lc.covered != lowBytes(static_cast<std::uint64_t>(size)))
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

    issueCands.clear();

    const auto addCandidate = [&](int slot) {
        const RsEntry<Bits> &e = entry(slot);
        bool spec = false;
        for (const Operand<Bits> &o : e.src) {
            if (o.used() && o.state != OperandState::Valid)
                spec = true;
        }
        const bool typed = e.inst.isBranch() || e.inst.isLoad();
        const SelectKey k = policies.select->key(typed, spec);
        issueCands.push_back({k.prio, k.spec, e.seq, slot});
    };

    if (readyListScheduler()) {
        const std::vector<int> &readySlots = sched.collectReady(
            cycle, [this](int slot) { return classifyWakeup(slot); });
        for (int slot : readySlots) {
            VSIM_DEBUG_ASSERT(canIssue(entry(slot)),
                              "ready-list slot fails the wakeup "
                              "conditions");
            addCandidate(slot);
        }
    } else {
        for (int slot : windowOrder) {
            if (canIssue(entry(slot)))
                addCandidate(slot);
        }
    }

    std::sort(issueCands.begin(), issueCands.end(),
              [](const Candidate &a, const Candidate &b) {
                  if (a.prio != b.prio)
                      return a.prio < b.prio;
                  if (a.spec != b.spec)
                      return a.spec < b.spec;
                  return a.seq < b.seq;
              });

    int issued = 0;
    for (const Candidate &cand : issueCands) {
        if (issued >= cfg.issueWidth)
            break;
        RsEntry<Bits> &e = entry(cand.slot);
        if (e.inst.isLoad()) {
            // Effective address needed for the ordering check; compute
            // it from the base operand (cheap, pure).
            const LoadCheck lc = disambiguate(
                e, e.src[0].value
                       + static_cast<std::uint64_t>(
                           static_cast<std::int64_t>(e.inst.imm)));
            if (!lc.mayIssue)
                continue;
            // Loads that cannot forward need a data-cache port.
            if (!lc.forwards() && dcachePortsUsed >= cfg.effDcachePorts())
                continue;
        }
        issueEntry(e);
        ++issued;
    }
}

// This file's members at every mask width (the class and the members
// defined in ooo_core.cc are instantiated there).
#define VSIM_INSTANTIATE(Bits)                                            \
    template const std::vector<StoreView> &                               \
    BasicOooCore<Bits>::storeTable();                                     \
    template BasicOooCore<Bits>::LoadCheck                                \
    BasicOooCore<Bits>::disambiguate(const RsEntry<Bits> &, std::uint64_t, \
                                     SpecMask<Bits> *);                   \
    template bool BasicOooCore<Bits>::canIssue(const RsEntry<Bits> &)     \
        const;                                                            \
    template WakeClass BasicOooCore<Bits>::classifyWakeup(int) const;     \
    template void BasicOooCore<Bits>::issueEntry(RsEntry<Bits> &);        \
    template void BasicOooCore<Bits>::issueStage();
VSIM_FOR_EACH_MASK_WIDTH(VSIM_INSTANTIATE)
#undef VSIM_INSTANTIATE

} // namespace vsim::core
