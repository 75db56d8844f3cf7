#include "verify_policy.hh"

#include "vsim/base/logging.hh"
#include "../mask_ops.hh"
#include "../subscriber_index.hh"

namespace vsim::core
{

template <std::size_t Bits>
bool
VerifyPolicy::apply(const WindowRef<Bits> &w, RsEntry<Bits> &p,
                    std::uint64_t cycle, SpecHooks<Bits> &hooks) const
{
    const std::size_t pbit = static_cast<std::size_t>(p.slot);
    const bool hier = hierarchical();

    // Sparse sweeps visit only the live carriers of bit p, in seq
    // order — the same relative order the dense program-order scan
    // visits them in, with the non-carriers (for which every action
    // below is a no-op) skipped.
    const std::vector<int> *sparse =
        w.subs ? &w.subs->collect(static_cast<int>(pbit), w.window)
               : nullptr;

    // Hierarchical semantics advance one dependence level per event.
    // All "was X cleansed?" tests must observe the state *before* the
    // event started, otherwise an in-order sweep cleanses producers
    // in-place and collapses the wave into the flattened behaviour —
    // so snapshot which outputs and which entries' inputs carried the
    // bit at the start of the step. Sparse domains lose nothing here:
    // both masks are only ever consulted for slots that carry bit p.
    SpecMask<Bits> out_had_bit; //!< slots whose output carried bit p
    SpecMask<Bits> in_had_bit;  //!< slots with an input carrying bit p
    if (hier) {
        forEachSweepSlot(w, sparse, [&](int slot) {
            const RsEntry<Bits> &f = w.at(slot);
            if (f.executed && f.outDeps.test(pbit))
                out_had_bit.set(static_cast<std::size_t>(slot));
            for (const Operand<Bits> &o : f.src) {
                if (o.used() && o.deps.test(pbit))
                    in_had_bit.set(static_cast<std::size_t>(slot));
            }
        });
    }

    bool any_left = false;
    forEachSweepSlot(w, sparse, [&](int slot) {
        RsEntry<Bits> &f = w.at(slot);
        if (f.slot == p.slot)
            return;
        bool touched = false; //!< any dependence bit actually cleansed
        for (Operand<Bits> &o : f.src) {
            if (!o.used() || !o.deps.test(pbit))
                continue;
            bool clear = true;
            if (hier && o.tag != p.slot && o.tag >= 0) {
                // Clears only when the operand's producer's output was
                // already cleansed before this wave step.
                const RsEntry<Bits> &prod = w.at(o.tag);
                clear = !prod.busy || prod.seq >= f.seq
                        || !prod.executed
                        || !out_had_bit.test(
                               static_cast<std::size_t>(o.tag));
            }
            if (!clear) {
                any_left = true;
                continue;
            }
            o.deps.reset(pbit);
            touched = true;
            if (o.deps.none() && o.state != OperandState::Invalid
                && o.state != OperandState::Valid) {
                o.state = OperandState::Valid;
                o.validAt = cycle;
                o.validViaEvent = true;
                f.verifiedAt = std::max(f.verifiedAt, cycle);
                hooks.wakeupChanged(f);
            }
        }
        // Memory-carried dependences clear in one step regardless of
        // scheme: the LSQ disambiguation port is a flattened structure
        // (it re-checked against the store's slot directly, not
        // through the tag-broadcast tree), so there is no wave to run.
        if (f.memDeps.test(pbit)) {
            f.memDeps.reset(pbit);
            touched = true;
        }
        if (f.executed && f.outDeps.test(pbit)) {
            // The output cleanses one wave step after its inputs did
            // (flattened: immediately).
            const bool inputs_were_clean =
                !hier
                || !in_had_bit.test(static_cast<std::size_t>(slot));
            if (inputs_were_clean) {
                f.outDeps.reset(pbit);
                touched = true;
                if (f.outDeps.none())
                    hooks.outputBecameValid(f);
            } else {
                any_left = true;
            }
        }
        // Attribution: raised only for entries the sweep acted on, so
        // dense scans (which also visit non-carriers) report the same
        // touch counts as sparse subscriber-list sweeps.
        if (touched)
            hooks.attributeSweep(p, f, false);
    });
    return hier && any_left;
}

template <std::size_t Bits>
void
VerifyPolicy::applyRetire(const WindowRef<Bits> &w, RsEntry<Bits> &p,
                          std::uint64_t cycle, SpecHooks<Bits> &hooks) const
{
    const std::size_t pbit = static_cast<std::size_t>(p.slot);
    const std::vector<int> *sparse =
        w.subs ? &w.subs->collect(static_cast<int>(pbit), w.window)
               : nullptr;
    forEachSweepSlot(w, sparse, [&](int slot) {
        RsEntry<Bits> &f = w.at(slot);
        if (f.slot == p.slot)
            return;
        bool touched = false;
        for (Operand<Bits> &o : f.src) {
            if (!o.used() || !mask::testAndClear(o.deps, pbit))
                continue;
            touched = true;
            if (o.deps.none() && o.state != OperandState::Invalid
                && o.state != OperandState::Valid) {
                o.state = OperandState::Valid;
                o.validAt = cycle;
                o.validViaEvent = true;
                f.verifiedAt = std::max(f.verifiedAt, cycle);
                hooks.wakeupChanged(f);
            }
        }
        if (mask::testAndClear(f.memDeps, pbit))
            touched = true;
        if (f.executed && mask::testAndClear(f.outDeps, pbit)) {
            touched = true;
            if (f.outDeps.none())
                hooks.outputBecameValid(f);
        }
        if (touched)
            hooks.attributeSweep(p, f, false);
    });
}

#define VSIM_INSTANTIATE(Bits)                                            \
    template bool VerifyPolicy::apply(const WindowRef<Bits> &,            \
                                      RsEntry<Bits> &, std::uint64_t,     \
                                      SpecHooks<Bits> &) const;           \
    template void VerifyPolicy::applyRetire(                              \
        const WindowRef<Bits> &, RsEntry<Bits> &, std::uint64_t,          \
        SpecHooks<Bits> &) const;
VSIM_FOR_EACH_MASK_WIDTH(VSIM_INSTANTIATE)
#undef VSIM_INSTANTIATE

namespace
{

/**
 * Flattened-hierarchical "verification network": all direct and
 * indirect successors informed in a single event (§3.2).
 */
class FlattenedVerify final : public VerifyPolicy
{
  public:
    const char *name() const override { return "flattened"; }
};

/** One dependence level per cycle on the tag-broadcast network. */
class HierarchicalVerify final : public VerifyPolicy
{
  public:
    const char *name() const override { return "hierarchical"; }
    bool hierarchical() const override { return true; }
};

/** Consumers learn only through the retirement broadcast. */
class RetirementVerify final : public VerifyPolicy
{
  public:
    const char *name() const override { return "retirement"; }
    bool propagatesOnEvent() const override { return false; }
    bool sweepsAtRetire() const override { return true; }
};

/**
 * Hybrid: hierarchical detection plus retirement-based release — the
 * retirement sweep clears any residue, so no retire guard is needed.
 */
class HybridVerify final : public VerifyPolicy
{
  public:
    const char *name() const override { return "hybrid"; }
    bool hierarchical() const override { return true; }
    bool sweepsAtRetire() const override { return true; }
    bool residueGuardAtRetire() const override { return false; }
};

} // namespace

std::unique_ptr<VerifyPolicy>
makeVerifyPolicy(VerifyScheme scheme)
{
    switch (scheme) {
      case VerifyScheme::Flattened:
        return std::make_unique<FlattenedVerify>();
      case VerifyScheme::Hierarchical:
        return std::make_unique<HierarchicalVerify>();
      case VerifyScheme::RetirementBased:
        return std::make_unique<RetirementVerify>();
      case VerifyScheme::Hybrid:
        return std::make_unique<HybridVerify>();
    }
    VSIM_PANIC("unhandled verify scheme");
}

} // namespace vsim::core
