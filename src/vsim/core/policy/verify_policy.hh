/**
 * @file
 * Verification-scheme policies (§3.2) as strategy objects. A policy
 * owns the consumer-informing sweep that runs when a prediction is
 * verified: how fast validity propagates through the window (all
 * transitive dependents at once, one dependence level per cycle, or
 * only through the retirement broadcast).
 *
 * The sweeps mutate window entries directly and raise everything with
 * wider side effects (output-valid notifications, wakeup-scheduler
 * updates) through SpecHooks, so each policy is unit-testable against
 * a synthetic window and a fake hook sink.
 */

#ifndef VSIM_CORE_POLICY_VERIFY_POLICY_HH
#define VSIM_CORE_POLICY_VERIFY_POLICY_HH

#include <cstddef>
#include <cstdint>
#include <memory>

#include "vsim/core/spec_model.hh"
#include "vsim/core/window_types.hh"

namespace vsim::core
{

class VerifyPolicy
{
  public:
    virtual ~VerifyPolicy() = default;

    virtual const char *name() const = 0;

    /** Wave advances one dependence level per cycle. */
    virtual bool hierarchical() const { return false; }

    /** Consumers learn through the per-event network sweep. */
    virtual bool propagatesOnEvent() const { return true; }

    /** Consumers (also) learn through the retirement broadcast. */
    virtual bool sweepsAtRetire() const { return false; }

    /**
     * A predicted producer cannot release its window entry while any
     * in-flight value still carries its dependence bit (multi-step
     * waves only; single-event schemes never leave residue).
     */
    virtual bool residueGuardAtRetire() const { return hierarchical(); }

    /**
     * Run one verification event of producer @p p over the window:
     * clear p's dependence bit from consumer operands and outputs.
     * @return true when a hierarchical wave still has work (the
     * caller reschedules the next level through the EventQueue).
     * Built for every core mask width; the scheme predicates above
     * steer it.
     */
    template <std::size_t Bits>
    bool apply(const WindowRef<Bits> &w, RsEntry<Bits> &p,
               std::uint64_t cycle, SpecHooks<Bits> &hooks) const;

    /**
     * Retirement broadcast of producer @p p (retirement-based and
     * hybrid schemes): validate every remaining dependent at once.
     */
    template <std::size_t Bits>
    void applyRetire(const WindowRef<Bits> &w, RsEntry<Bits> &p,
                     std::uint64_t cycle, SpecHooks<Bits> &hooks) const;
};

/** Construct the §3.2 scheme selected by @p scheme. */
std::unique_ptr<VerifyPolicy> makeVerifyPolicy(VerifyScheme scheme);

} // namespace vsim::core

#endif // VSIM_CORE_POLICY_VERIFY_POLICY_HH
