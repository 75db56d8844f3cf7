/**
 * @file
 * Invalidation-scheme policies (§3.1) as strategy objects. A policy
 * owns the consumer-nullifying sweep that runs when a prediction
 * turns out wrong: selective flattened (all transitive dependents in
 * one event), selective hierarchical (one dependence level per
 * cycle), or complete (treat the value misprediction like a branch
 * misprediction and squash).
 */

#ifndef VSIM_CORE_POLICY_INVAL_POLICY_HH
#define VSIM_CORE_POLICY_INVAL_POLICY_HH

#include <cstddef>
#include <cstdint>
#include <memory>

#include "vsim/core/spec_model.hh"
#include "vsim/core/window_types.hh"

namespace vsim::core
{

class InvalidatePolicy
{
  public:
    virtual ~InvalidatePolicy() = default;

    virtual const char *name() const = 0;

    /** Wave advances one dependence level per cycle. */
    virtual bool hierarchical() const { return false; }

    /** Complete invalidation: squash instead of selective repair. */
    virtual bool complete() const { return false; }

    /** See VerifyPolicy::residueGuardAtRetire. */
    virtual bool residueGuardAtRetire() const { return hierarchical(); }

    /**
     * Run one invalidation event of producer @p p over the window:
     * hand direct consumers the corrected value, reset transitive
     * dependents, and nullify everything that consumed the wrong
     * value. Complete invalidation raises SpecHooks::completeSquash
     * instead. @return true when a hierarchical wave still has work.
     * Built for every core mask width; the scheme predicates above
     * steer it.
     */
    template <std::size_t Bits>
    bool apply(const WindowRef<Bits> &w, RsEntry<Bits> &p,
               std::uint64_t cycle, SpecHooks<Bits> &hooks) const;
};

/** Construct the §3.1 scheme selected by @p scheme. */
std::unique_ptr<InvalidatePolicy> makeInvalPolicy(InvalScheme scheme);

} // namespace vsim::core

#endif // VSIM_CORE_POLICY_INVAL_POLICY_HH
