#include "inval_policy.hh"

#include "vsim/base/logging.hh"
#include "../subscriber_index.hh"

namespace vsim::core
{

template <std::size_t Bits>
bool
InvalidatePolicy::apply(const WindowRef<Bits> &w, RsEntry<Bits> &p,
                        std::uint64_t cycle, SpecHooks<Bits> &hooks) const
{
    if (complete()) {
        // Treat the value misprediction like a branch misprediction:
        // the squash path does all the work, no consumer is touched.
        hooks.completeSquash(p);
        return false;
    }

    const std::size_t pbit = static_cast<std::size_t>(p.slot);
    const bool hier = hierarchical();
    bool any_left = false;

    // Sparse sweeps visit only the live carriers of bit p, in seq
    // order. Order matters more here than in verification: the wave
    // branches below read *live* producer state (an earlier iteration
    // may have nullified or left a producer alone), so the carriers
    // must be visited in the same program order the dense scan used.
    const std::vector<int> *sparse =
        w.subs ? &w.subs->collect(static_cast<int>(pbit), w.window)
               : nullptr;

    // Snapshot pre-step producer state for the hierarchical wave (see
    // VerifyPolicy::apply: in-place nullification must not let the
    // wave jump levels within one event).
    SpecMask<Bits> was_executed, out_had_bit;
    if (hier) {
        const auto snap = [&](const RsEntry<Bits> &f) {
            if (f.executed) {
                was_executed.set(static_cast<std::size_t>(f.slot));
                if (f.outDeps.test(pbit))
                    out_had_bit.set(static_cast<std::size_t>(f.slot));
            }
        };
        forEachSweepSlot(w, sparse, [&](int slot) {
            const RsEntry<Bits> &f = w.at(slot);
            snap(f);
            if (!sparse)
                return;
            // The dense scan snapshotted every slot; the sparse
            // domain holds only carriers of bit p, but a carrying
            // operand's producer need not itself carry the bit (it
            // may have re-executed with corrected inputs before this
            // step) — snapshot those producers explicitly.
            for (const Operand<Bits> &o : f.src) {
                if (o.used() && o.deps.test(pbit) && o.tag >= 0)
                    snap(w.at(o.tag));
            }
        });
    }

    forEachSweepSlot(w, sparse, [&](int slot) {
        RsEntry<Bits> &f = w.at(slot);
        if (f.slot == p.slot)
            return;
        bool affected = false;
        for (int idx = 0; idx < 2; ++idx) {
            Operand<Bits> &o = f.src[idx];
            if (!o.used() || !o.deps.test(pbit))
                continue;
            if (o.tag == p.slot) {
                // Direct consumer: the correct value rides the same
                // broadcast that signals the invalidation.
                o.value = p.outValue;
                o.deps.reset();
                o.state = OperandState::Valid;
                o.validAt = cycle;
                o.validViaEvent = true;
                o.readyAt = cycle;
                f.verifiedAt = std::max(f.verifiedAt, cycle);
                hooks.wakeupChanged(f);
                affected = true;
            } else if (!hier) {
                // Flattened: every transitive dependent resets at once
                // and re-captures from its producer's re-broadcast.
                o.state = OperandState::Invalid;
                o.deps.reset();
                hooks.operandInvalidated(f, idx);
                affected = true;
            } else {
                // Hierarchical wave: react only once the operand's own
                // producer was dealt with in an *earlier* step.
                const RsEntry<Bits> *prod =
                    o.tag >= 0 ? &w.at(o.tag) : nullptr;
                const std::size_t tbit =
                    static_cast<std::size_t>(o.tag >= 0 ? o.tag : 0);
                if (!prod || !prod->busy || prod->seq >= f.seq) {
                    o.state = OperandState::Invalid;
                    o.deps.reset();
                    hooks.operandInvalidated(f, idx);
                    affected = true;
                } else if (!was_executed.test(tbit)) {
                    // Producer was nullified in an earlier wave step.
                    o.state = OperandState::Invalid;
                    o.deps.reset();
                    hooks.operandInvalidated(f, idx);
                    affected = true;
                } else if (!out_had_bit.test(tbit)
                           && prod->executed) {
                    // Producer re-executed with corrected inputs
                    // before this step.
                    o.value = prod->outValue;
                    o.deps = prod->outDeps;
                    o.readyAt = cycle;
                    if (o.deps.none()) {
                        o.state = OperandState::Valid;
                        o.validAt = cycle;
                        o.validViaEvent = true;
                        f.verifiedAt = std::max(f.verifiedAt, cycle);
                    } else {
                        o.state = OperandState::Speculative;
                    }
                    hooks.wakeupChanged(f);
                    affected = true;
                } else {
                    any_left = true;
                }
            }
        }
        if (f.memDeps.test(pbit)) {
            // Memory-carried dependence: the load's disambiguation or
            // forwarding consulted prediction p through the LSQ. The
            // access itself is suspect, so the load is killed outright
            // (no selective value patch is possible — the wrong datum
            // came from the memory system, not an operand latch) and
            // reissue re-runs disambiguation against the corrected
            // store state. Like the LSQ port in the verification
            // sweep, this reacts in one step under every scheme.
            affected = true;
        }
        if (affected && (f.issued || f.executed)) {
            // Attribution before the kill: raised only for entries the
            // sweep actually nullifies, so dense and sparse domains
            // report identical touch counts.
            hooks.attributeSweep(p, f, true);
            hooks.nullifyEntry(f);
        }
    });
    return hier && any_left;
}

#define VSIM_INSTANTIATE(Bits)                                            \
    template bool InvalidatePolicy::apply(const WindowRef<Bits> &,        \
                                          RsEntry<Bits> &, std::uint64_t, \
                                          SpecHooks<Bits> &) const;
VSIM_FOR_EACH_MASK_WIDTH(VSIM_INSTANTIATE)
#undef VSIM_INSTANTIATE

namespace
{

/** Selective, all successors in one event (parallel network). */
class FlattenedInval final : public InvalidatePolicy
{
  public:
    const char *name() const override { return "flattened"; }
};

/** Selective, one dependence level per cycle. */
class HierarchicalInval final : public InvalidatePolicy
{
  public:
    const char *name() const override { return "hierarchical"; }
    bool hierarchical() const override { return true; }
};

/** Treat value misprediction like branch misprediction (§3.1). */
class CompleteInval final : public InvalidatePolicy
{
  public:
    const char *name() const override { return "complete"; }
    bool complete() const override { return true; }
};

} // namespace

std::unique_ptr<InvalidatePolicy>
makeInvalPolicy(InvalScheme scheme)
{
    switch (scheme) {
      case InvalScheme::Flattened:
        return std::make_unique<FlattenedInval>();
      case InvalScheme::Hierarchical:
        return std::make_unique<HierarchicalInval>();
      case InvalScheme::Complete:
        return std::make_unique<CompleteInval>();
    }
    VSIM_PANIC("unhandled invalidation scheme");
}

} // namespace vsim::core
