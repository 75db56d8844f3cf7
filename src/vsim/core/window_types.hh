/**
 * @file
 * The core's shared window substrate: reservation-station entries,
 * operand state, and the dependence masks that make the verification
 * network's parallel semantics (§3.1/§3.2) a single mask sweep.
 *
 * These types used to be private to OooCore; the layered core keeps
 * them in one header so the frontend/backend stage files, the policy
 * objects under policy/, the event queue and the wakeup scheduler all
 * operate on the same structures without friending each other.
 */

#ifndef VSIM_CORE_WINDOW_TYPES_HH
#define VSIM_CORE_WINDOW_TYPES_HH

#include <bitset>
#include <cstdint>
#include <vector>

#include "slot_ring.hh"
#include "vsim/isa/isa.hh"

namespace vsim::core
{

/**
 * Upper bound on the instruction window. Sized for the CVP-style
 * trace-replay configuration (512-entry window); everything that
 * scales with it — SpecMask, mask_ops, SlotRing, SubscriberIndex —
 * is sized off CoreConfig::windowSize or the bitset width, so runs
 * with smaller windows are unaffected by the headroom.
 */
constexpr int kMaxWindow = 512;

/** Set of unresolved predictions a value transitively depends on. */
using SpecMask = std::bitset<kMaxWindow>;

/** State of a reservation-station input operand (§2.2). */
enum class OperandState : std::uint8_t
{
    Unused,      //!< the instruction has no such operand
    Invalid,     //!< no value yet; waiting on the result bus
    Predicted,   //!< value came directly from the value predictor
    Speculative, //!< computed from >=1 predicted/speculative input
    Valid,       //!< architecturally correct
};

struct Operand
{
    OperandState state = OperandState::Unused;
    int reg = -1;
    int tag = -1;            //!< producing slot; -1 = register file
    std::uint64_t value = 0;
    SpecMask deps;
    std::uint64_t readyAt = 0;  //!< cycle the value can be consumed
    std::uint64_t validAt = 0;  //!< cycle state became Valid
    bool validViaEvent = false; //!< validity arrived via the network

    bool hasValue() const { return state != OperandState::Invalid
                                   && state != OperandState::Unused; }
    bool used() const { return state != OperandState::Unused; }
};

/**
 * Cold tail of a reservation-station entry, split out of RsEntry into
 * a parallel (structure-of-arrays) vector indexed by the same physical
 * slot. Everything here is touched a bounded number of times per
 * dynamic instruction — at dispatch, completion, squash or retirement
 * — never by the per-cycle wakeup scans or the verification/
 * invalidation sweeps, so evicting it shrinks the hot entry the
 * schedulers and policies stream over. The policy objects provably
 * read none of these fields; they reach the cold array only through
 * WindowRef::cold if a future scheme needs it.
 */
struct RsCold
{
    std::uint64_t pc = 0;

    // value prediction bookkeeping
    std::uint64_t predToken = 0;
    bool predWasCorrect = false; //!< filled at retire

    // control
    bool predTaken = false;
    std::uint64_t predNextPc = 0;
    bool mispredicted = false; //!< caused a squash at resolution

    // execution/latency bookkeeping
    std::uint64_t execDoneAt = 0;
    std::uint64_t nullifiedAt = 0; //!< cycle of the last nullification
    int execCount = 0;
    std::uint64_t outValidAt = 0;
    bool outValidViaEvent = false;
};

struct RsEntry
{
    bool busy = false;
    int slot = -1; //!< own physical index (= prediction bit)
    std::uint64_t seq = 0;
    std::uint64_t nonce = 0; //!< bumps on (re)issue/nullify
    isa::Inst inst;
    std::int64_t traceIndex = -1; //!< -1 on the wrong path

    Operand src[2];

    bool issued = false;
    bool executed = false;
    std::uint64_t dispatchAt = 0;
    std::uint64_t reissueAt = 0; //!< earliest re-select after nullify

    std::uint64_t outValue = 0;
    SpecMask outDeps;
    bool outValid = false;

    // value prediction bookkeeping
    bool vpEligible = false;
    bool predicted = false; //!< confident prediction visible to users
    bool predResolved = false;
    bool eqScheduled = false;
    std::uint64_t predValue = 0;
    bool predConfident = false;

    // memory
    bool addrReady = false; //!< store address computed (at completion)
    std::uint64_t memAddr = 0;
    /**
     * Memory-carried dependences (§3.2, memNeedsValidOps=false): the
     * predictions a load's *result* depends on through the LSQ rather
     * than through its register operands — the address operands of the
     * older stores it was disambiguated against plus the data operands
     * of the stores it forwarded from. Snapshotted at issue, folded
     * into outDeps at completion, cleared by the verification network
     * and tested by the invalidation sweep (a set bit there nullifies
     * the load for reissue). Always empty when memory resolution
     * requires valid operands.
     */
    SpecMask memDeps;

    // retire gating
    std::uint64_t verifiedAt = 0;
};

/** In-flight execution whose completion is pending. */
struct Completion
{
    int slot;
    std::uint64_t seq;
    std::uint64_t nonce;
    std::uint64_t value;   //!< result computed at issue
    bool taken;            //!< branch outcome
    std::uint64_t nextPc;  //!< branch target / next pc
};

class SubscriberIndex;

/**
 * Borrowed view of the window a policy object sweeps over: the
 * physical slots plus their program (seq) order. The policies never
 * allocate or free entries; they only rewrite operand/output state.
 * A non-null subscriber index narrows the sweeps to the resolving
 * bit's subscribers (SweepKind::Sparse); null keeps the legacy dense
 * scan over the full order. The cold array (the SoA tail split out of
 * RsEntry) rides along for completeness; the shipped policies never
 * touch it, so fakes may leave it null.
 */
struct WindowRef
{
    std::vector<RsEntry> &window;
    const SlotRing &order;
    SubscriberIndex *subs = nullptr;
    std::vector<RsCold> *cold = nullptr;

    RsEntry &at(int slot) const
    {
        return window[static_cast<std::size_t>(slot)];
    }

    RsCold &coldAt(int slot) const
    {
        return (*cold)[static_cast<std::size_t>(slot)];
    }
};

/**
 * Mutations the policy sweeps raise back into the core: everything
 * with side effects beyond the window entry itself (stats, tracer,
 * event scheduling, squash, wakeup-scheduler notifications) goes
 * through this interface, which keeps the policies unit-testable
 * against a trivial fake.
 */
class SpecHooks
{
  public:
    virtual ~SpecHooks() = default;

    /** @p e's output lost its last dependence bit via the network. */
    virtual void outputBecameValid(RsEntry &e) = 0;

    /** Wakeup nullification (§3.4) of a mis-speculated consumer. */
    virtual void nullifyEntry(RsEntry &e) = 0;

    /** Complete invalidation: squash everything younger than @p p. */
    virtual void completeSquash(RsEntry &p) = 0;

    /**
     * @p e's operands changed in a way that can affect its wakeup
     * (value arrived, state promoted/demoted); the issue scheduler
     * must re-evaluate it.
     */
    virtual void wakeupChanged(RsEntry &e) = 0;

    /**
     * Operand @p idx of @p e was reset to Invalid and now waits on the
     * result bus again (the core re-registers it with the broadcast
     * waiter lists on top of wakeupChanged).
     */
    virtual void operandInvalidated(RsEntry &e, int idx) = 0;

    /**
     * Cycle attribution: the sweep resolving prediction @p p acted on
     * @p consumer — a verification sweep (@p invalidation false)
     * cleansed at least one of its dependence bits, or an
     * invalidation sweep (@p invalidation true) nullified it. Raised
     * only for entries actually acted upon, never for entries a dense
     * scan merely visited, so sparse and dense sweeps attribute
     * identically. Default no-op keeps policy unit-test fakes simple.
     */
    virtual void attributeSweep(const RsEntry &p, const RsEntry &consumer,
                                bool invalidation)
    {
        (void)p;
        (void)consumer;
        (void)invalidation;
    }
};

} // namespace vsim::core

#endif // VSIM_CORE_WINDOW_TYPES_HH
