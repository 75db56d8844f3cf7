/**
 * @file
 * Issue-selection policies (§3.5) as strategy objects. A policy maps
 * a wakeup candidate's raw attributes — is it a branch/load, does any
 * operand still carry speculative state — to a (prio, spec) key;
 * candidates issue in ascending (prio, spec, seq) order, so lower
 * keys win and age breaks every tie. Each half of the key is one bit,
 * so a key names one of four classes (SelectKey::cls) and the issue
 * stage walks the classes in order, oldest first within each, rather
 * than sorting (SelectOrder in issue_scheduler.hh).
 */

#ifndef VSIM_CORE_POLICY_SELECT_POLICY_HH
#define VSIM_CORE_POLICY_SELECT_POLICY_HH

#include <memory>

#include "vsim/core/spec_model.hh"

namespace vsim::core
{

/** Selection key of one wakeup candidate; compared before age. */
struct SelectKey
{
    bool prio; //!< false = issue first
    bool spec; //!< within a prio class, false issues first

    /** The key's class, 0..3 in issue order: (prio, spec) as bits. */
    int cls() const { return 2 * prio + spec; }

    bool operator==(const SelectKey &) const = default;
};

class SelectionPolicy
{
  public:
    virtual ~SelectionPolicy() = default;

    virtual const char *name() const = 0;

    /**
     * Key for a candidate: @p typed_first is the branch-or-load class
     * bit, @p speculative is true when any operand is not yet Valid.
     */
    virtual SelectKey key(bool typed_first, bool speculative) const = 0;
};

/** Construct the §3.5 policy selected by @p policy. */
std::unique_ptr<SelectionPolicy> makeSelectionPolicy(SelectPolicy policy);

} // namespace vsim::core

#endif // VSIM_CORE_POLICY_SELECT_POLICY_HH
