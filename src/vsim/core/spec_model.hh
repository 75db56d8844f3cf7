/**
 * @file
 * The paper's central contribution: the *speculative-execution model*
 * (§4) — a systematic description of a value-speculative
 * microarchitecture as a set of model variables (policies) and
 * latency variables (cycles between microarchitectural events).
 *
 * Latency variables are measured from the end of the first event to
 * the end of the second event, in cycles:
 *
 *   Execution – Equality            (execToEquality)
 *   Equality – Invalidation         (equalityToInvalidate)
 *   Equality – Verification         (equalityToVerify)
 *   Verification – Free issue res.  (verifyToFreeResource; unified RUU
 *   Verification – Free retire res.  makes these one variable)
 *   Invalidation – Reissue          (invalidateToReissue)
 *   Verification – Branch           (verifyToBranch)
 *   Verification Address – Mem.Acc. (verifyAddrToMem)
 *
 * The three named models of §4.1 are provided as factories:
 *
 *   | latency variable                    | super | great | good |
 *   |-------------------------------------|-------|-------|------|
 *   | Execution – Equality – Invalidation |   0   |   0   |  1   |
 *   | Execution – Equality – Verification |   0   |   0   |  1   |
 *   | Verification – Free Issue Resource  |   1   |   1   |  1   |
 *   | Verification – Free Retirement Res. |   1   |   1   |  1   |
 *   | Invalidation – Reissue              |   0   |   1   |  1   |
 *   | Verification – Branch               |   0   |   1   |  1   |
 *   | Verification Address – Mem. Access  |   0   |   1   |  1   |
 */

#ifndef VSIM_CORE_SPEC_MODEL_HH
#define VSIM_CORE_SPEC_MODEL_HH

#include <cstddef>
#include <string>

namespace vsim::core
{

/** Verification mechanism (model variable, §3.2). */
enum class VerifyScheme
{
    /**
     * Flattened-hierarchical "verification network": all direct and
     * indirect successors of a (in)validated instruction are informed
     * in a single event. Highest performance potential.
     */
    Flattened,

    /**
     * Hierarchical: a verified instruction validates only its direct
     * successors; the wave advances one dependence level per cycle on
     * the tag-broadcast network.
     */
    Hierarchical,

    /**
     * Retirement-based: only the w oldest window entries can be
     * validated each cycle, where w is the retirement width.
     */
    RetirementBased,

    /** Hybrid of retirement-based (release) + hierarchical (detect). */
    Hybrid,
};

/** Invalidation mechanism (model variable, §3.1). */
enum class InvalScheme
{
    /** Selective, all successors in one event (parallel network). */
    Flattened,
    /** Selective, one dependence level per cycle. */
    Hierarchical,
    /** Complete: treat value misprediction like branch misprediction. */
    Complete,
};

/**
 * Issue-selection policy (model variable, §3.5). The paper evaluates
 * TypedSpecLast and calls selection for speculative execution "an
 * important research subject not explored in this paper"; the other
 * policies make that exploration possible.
 */
enum class SelectPolicy
{
    /**
     * Paper §3.5: branches and loads first, non-speculative preferred
     * over speculative, then oldest-first.
     */
    TypedSpecLast,
    /** Branches/loads first, then oldest; speculative state ignored. */
    TypedOnly,
    /** Pure dynamic program order. */
    OldestFirst,
    /**
     * Speculative candidates preferred (aggressive speculation-first
     * scheduling: spend issue slots on predictions, let valid work
     * wait).
     */
    TypedSpecFirst,
};

/**
 * A complete speculative-execution model: latency variables plus the
 * policy (model) variables the paper's evaluation fixes in §4.1 —
 * wakeup on valid/speculative operands, selection by type/age with
 * non-speculative preferred, branches and memory resolved only with
 * valid operands, verification network for verify+invalidate.
 */
struct SpecModel
{
    std::string name = "custom";

    // ---- latency variables (cycles) -----------------------------------
    int execToEquality = 0;
    int equalityToInvalidate = 0;
    int equalityToVerify = 0;
    int verifyToFreeResource = 1;
    int invalidateToReissue = 1;
    int verifyToBranch = 1;
    int verifyAddrToMem = 1;

    // ---- model variables ----------------------------------------------
    VerifyScheme verifyScheme = VerifyScheme::Flattened;
    InvalScheme invalScheme = InvalScheme::Flattened;
    SelectPolicy selectPolicy = SelectPolicy::TypedSpecLast;

    /** Branches resolve only with valid operands (paper's choice). */
    bool branchNeedsValidOps = true;
    /**
     * Memory ops access memory only with valid addresses (§3.2,
     * the paper's evaluation default). When false, loads may issue
     * with speculative addresses and forward speculative store data;
     * the LSQ tracks the memory-carried dependences (RsEntry::memDeps)
     * and raises violations through the invalidation network
     * (--mem-resolution spec).
     */
    bool memNeedsValidOps = true;

    /** Most optimistic model of §4.1. */
    static SpecModel superModel();
    /** 1-cycle reissue / branch-inform / mem-inform. */
    static SpecModel greatModel();
    /** Most pessimistic: 1-cycle equality+verify/invalidate as well. */
    static SpecModel goodModel();

    /**
     * Look up by name ("super", "great", "good") or build a custom
     * model from a latency tuple "E,EI,EV,VF,IR,VB,VA" — the seven §4
     * latency variables in the order execToEquality,
     * equalityToInvalidate, equalityToVerify, verifyToFreeResource,
     * invalidateToReissue, verifyToBranch, verifyAddrToMem (e.g.
     * "0,0,1,1,1,1,1"). Fatal on anything else.
     */
    static SpecModel byName(const std::string &name);

    /**
     * Take @p from's latency variables and name, and keep this
     * model's model variables: what --model does to a configuration,
     * whatever the order of the flags.
     */
    void setLatencies(const SpecModel &from);
};

/**
 * One spelling of an enumerator on the command line. A table lists
 * each value's canonical name in enum order, then any short aliases;
 * the tools' flags accept every entry.
 */
template <typename E>
struct Spelling
{
    const char *name;
    E value;
};

/** The canonical name of @p value in @p table (labels, jobKey). */
template <typename E, std::size_t N>
constexpr const char *
spellingOf(const Spelling<E> (&table)[N], E value)
{
    for (const Spelling<E> &s : table) {
        if (s.value == value)
            return s.name;
    }
    return "?";
}

inline constexpr Spelling<VerifyScheme> kVerifySchemeSpellings[] = {
    {"flattened", VerifyScheme::Flattened},
    {"hierarchical", VerifyScheme::Hierarchical},
    {"retirement", VerifyScheme::RetirementBased},
    {"hybrid", VerifyScheme::Hybrid},
    {"flat", VerifyScheme::Flattened},
    {"hier", VerifyScheme::Hierarchical},
    {"retire", VerifyScheme::RetirementBased},
};

inline constexpr Spelling<InvalScheme> kInvalSchemeSpellings[] = {
    {"flattened", InvalScheme::Flattened},
    {"hierarchical", InvalScheme::Hierarchical},
    {"complete", InvalScheme::Complete},
    {"flat", InvalScheme::Flattened},
    {"hier", InvalScheme::Hierarchical},
};

inline constexpr Spelling<SelectPolicy> kSelectPolicySpellings[] = {
    {"typed-spec-last", SelectPolicy::TypedSpecLast},
    {"typed-only", SelectPolicy::TypedOnly},
    {"oldest-first", SelectPolicy::OldestFirst},
    {"typed-spec-first", SelectPolicy::TypedSpecFirst},
};

inline const char *
verifySchemeName(VerifyScheme scheme)
{
    return spellingOf(kVerifySchemeSpellings, scheme);
}

inline const char *
invalSchemeName(InvalScheme scheme)
{
    return spellingOf(kInvalSchemeSpellings, scheme);
}

inline const char *
selectPolicyName(SelectPolicy policy)
{
    return spellingOf(kSelectPolicySpellings, policy);
}

inline void
SpecModel::setLatencies(const SpecModel &from)
{
    name = from.name;
    execToEquality = from.execToEquality;
    equalityToInvalidate = from.equalityToInvalidate;
    equalityToVerify = from.equalityToVerify;
    verifyToFreeResource = from.verifyToFreeResource;
    invalidateToReissue = from.invalidateToReissue;
    verifyToBranch = from.verifyToBranch;
    verifyAddrToMem = from.verifyAddrToMem;
}

inline SpecModel
SpecModel::superModel()
{
    SpecModel m;
    m.name = "super";
    m.execToEquality = 0;
    m.equalityToInvalidate = 0;
    m.equalityToVerify = 0;
    m.verifyToFreeResource = 1;
    m.invalidateToReissue = 0;
    m.verifyToBranch = 0;
    m.verifyAddrToMem = 0;
    return m;
}

inline SpecModel
SpecModel::greatModel()
{
    SpecModel m;
    m.name = "great";
    m.execToEquality = 0;
    m.equalityToInvalidate = 0;
    m.equalityToVerify = 0;
    m.verifyToFreeResource = 1;
    m.invalidateToReissue = 1;
    m.verifyToBranch = 1;
    m.verifyAddrToMem = 1;
    return m;
}

inline SpecModel
SpecModel::goodModel()
{
    SpecModel m;
    m.name = "good";
    // The paper states these as combined Execution–Equality–X = 1; we
    // charge the cycle to the comparator stage.
    m.execToEquality = 1;
    m.equalityToInvalidate = 0;
    m.equalityToVerify = 0;
    m.verifyToFreeResource = 1;
    m.invalidateToReissue = 1;
    m.verifyToBranch = 1;
    m.verifyAddrToMem = 1;
    return m;
}

} // namespace vsim::core

#endif // VSIM_CORE_SPEC_MODEL_HH
