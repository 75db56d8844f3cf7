/**
 * @file
 * Event-driven wakeup/select support: ready lists keyed by operand
 * availability, replacing the per-cycle O(window) rescan of every
 * reservation station.
 *
 * Slots move between four states:
 *
 *   Idle    not tracked (free slot, or issued and in flight)
 *   Dirty   something changed; reclassify at the next collect
 *   Timed   will satisfy the wakeup conditions at a known cycle
 *           (operand readyAt, reissue delay, verify-to-branch gate)
 *   Ready   wakeup conditions hold now; stays ready until it issues
 *           or an event disturbs its operands
 *
 * The core marks a slot Dirty (touch) whenever dispatch, a result
 * broadcast, a verify/invalidate sweep, a nullification or a
 * retirement-broadcast changes anything a wakeup decision reads; the
 * scheduler re-derives the state lazily once per cycle through a
 * caller-supplied classifier. Entries whose conditions cannot be
 * satisfied without a further event (an operand with no value yet, a
 * branch waiting on a non-Valid operand) park untracked until the
 * next touch, so a cycle's work is proportional to the number of
 * state changes, not to the window size.
 *
 * Timed slots wait on a CycleWheel (cycle_wheel.hh) keyed by their
 * wake cycle. Re-arming a slot leaves its old timer behind; a timer
 * whose slot is no longer Timed for that cycle is stale and skipped.
 *
 * The collect result is the exact set the monolithic scan used to
 * produce, unordered. SelectOrder below puts either path's candidates
 * in (prio, spec, seq) order without sorting, so the scan and
 * ready-list paths are bit-identical (asserted by
 * tests/test_scheduler.cc).
 */

#ifndef VSIM_CORE_ISSUE_SCHEDULER_HH
#define VSIM_CORE_ISSUE_SCHEDULER_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "cycle_wheel.hh"
#include "policy/select_policy.hh"

namespace vsim::core
{

/** Classifier verdict for one slot at one cycle. */
struct WakeClass
{
    enum Kind : std::uint8_t
    {
        Ready, //!< wakeup conditions hold this cycle
        Timed, //!< will hold at cycle `at` absent further events
        Parked, //!< needs another event; wait for the next touch
        Idle,  //!< not a wakeup candidate at all (issued/free)
    };
    Kind kind;
    std::uint64_t at = 0;

    static WakeClass ready() { return {Ready, 0}; }
    static WakeClass timed(std::uint64_t at) { return {Timed, at}; }
    static WakeClass parked() { return {Parked, 0}; }
    static WakeClass idle() { return {Idle, 0}; }
};

class IssueScheduler
{
  public:
    /** Drop all state and size for @p nslots physical slots. */
    void
    reset(int nslots)
    {
        slots.assign(static_cast<std::size_t>(nslots), SlotState{});
        dirty.clear();
        timers.clear();
        ready.clear();
    }

    /** Re-evaluate @p slot at the next collect. */
    void
    touch(int slot)
    {
        SlotState &s = at(slot);
        if (s.kind == Kind::Dirty)
            return;
        s.kind = Kind::Dirty;
        dirty.push_back(slot);
    }

    /** @p slot issued or was freed; stop tracking it. */
    void
    remove(int slot)
    {
        at(slot).kind = Kind::Idle;
    }

    /**
     * Wake due timed slots, reclassify everything touched since the
     * last collect, and return the slots whose wakeup conditions hold
     * at @p now (unordered). @p classify is called as
     * `WakeClass classify(int slot)` and must evaluate the conditions
     * at cycle @p now.
     */
    template <typename ClassifyFn>
    const std::vector<int> &
    collectReady(std::uint64_t now, ClassifyFn &&classify)
    {
        // Due timers become dirty and go through the same classifier
        // (their conditions may have shifted since they were armed).
        while (timers.due(now)) {
            const std::uint64_t due_at = timers.take(now, woken);
            for (int slot : woken) {
                SlotState &s = at(slot);
                if (s.kind == Kind::Timed && s.wakeAt == due_at)
                    touch(slot);
            }
        }

        for (std::size_t i = 0; i < dirty.size(); ++i) {
            const int slot = dirty[i];
            SlotState &s = at(slot);
            if (s.kind != Kind::Dirty)
                continue; // duplicate touch already handled
            const WakeClass c = classify(slot);
            switch (c.kind) {
              case WakeClass::Ready:
                s.kind = Kind::Ready;
                if (!s.queued) {
                    s.queued = true;
                    ready.push_back(slot);
                }
                break;
              case WakeClass::Timed:
                s.kind = Kind::Timed;
                s.wakeAt = c.at > now ? c.at : now + 1;
                timers.push(s.wakeAt, slot);
                break;
              case WakeClass::Parked:
                s.kind = Kind::Parked;
                break;
              case WakeClass::Idle:
                s.kind = Kind::Idle;
                break;
            }
        }
        dirty.clear();

        // Compact the ready list, dropping slots that issued or were
        // reclassified since they queued.
        std::size_t w = 0;
        for (int slot : ready) {
            SlotState &s = at(slot);
            if (s.kind == Kind::Ready) {
                ready[w++] = slot;
            } else {
                s.queued = false;
            }
        }
        ready.resize(w);
        return ready;
    }

    /** Number of slots currently in the ready list (tests). */
    std::size_t readyCount() const { return ready.size(); }

  private:
    enum class Kind : std::uint8_t { Idle, Dirty, Timed, Ready, Parked };

    struct SlotState
    {
        Kind kind = Kind::Idle;
        bool queued = false; //!< present in the ready vector
        std::uint64_t wakeAt = 0;
    };

    SlotState &
    at(int slot)
    {
        return slots[static_cast<std::size_t>(slot)];
    }

    std::vector<SlotState> slots;
    std::vector<int> dirty;
    /** Timed slots by wake cycle (stale once reclassified). */
    CycleWheel<int> timers;
    std::vector<int> woken; //!< the timer bucket being drained
    std::vector<int> ready;
};

/**
 * One cycle's issue candidates in selection order (§3.5): ascending
 * (prio, spec, seq). A candidate is a bit at its program-order rank
 * (its index from the head of the window's order ring) in one of four
 * bitmasks, one per SelectKey class. drain() walks the classes in
 * order and each mask from its lowest bit up, which is oldest first,
 * so ordering a cycle costs one bit per candidate plus a pass over
 * 4 x capacity/64 words, with no comparison sort.
 */
class SelectOrder
{
  public:
    /** Empty, for ranks below @p capacity. */
    void
    reset(std::size_t capacity)
    {
        words_ = (capacity + 63) / 64;
        bits_.assign(kClasses * words_, 0);
    }

    /** Queue the candidate at program-order rank @p rank. */
    void
    add(SelectKey key, std::size_t rank)
    {
        bits_[static_cast<std::size_t>(key.cls()) * words_ + rank / 64] |=
            std::uint64_t{1} << (rank % 64);
    }

    /**
     * Call @p fn(rank) for the queued candidates in selection order
     * until it returns false; the order is empty afterwards either
     * way.
     */
    template <typename Fn>
    void
    drain(Fn &&fn)
    {
        // Classes lie one after another, each lowest rank first, so
        // one pass over the words is the selection order.
        for (std::size_t i = 0; i < bits_.size(); ++i) {
            std::uint64_t w = bits_[i];
            if (!w)
                continue;
            bits_[i] = 0;
            const std::size_t base = (i % words_) * 64;
            for (; w; w &= w - 1) {
                if (!fn(base + static_cast<std::size_t>(
                                   std::countr_zero(w)))) {
                    std::fill(bits_.begin()
                                  + static_cast<std::ptrdiff_t>(i + 1),
                              bits_.end(), 0);
                    return;
                }
            }
        }
    }

  private:
    static constexpr std::size_t kClasses = 4;
    std::size_t words_ = 0;
    /** Class-major: class c's rank r is bit r of words [c*words_, ...). */
    std::vector<std::uint64_t> bits_;
};

} // namespace vsim::core

#endif // VSIM_CORE_ISSUE_SCHEDULER_HH
