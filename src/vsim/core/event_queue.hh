/**
 * @file
 * The speculation event network's scheduler: equality checks,
 * verification and invalidation events (§3.1/§3.2), previously
 * inlined in OooCore::processEvents.
 *
 * Ordering contract — events pop in deterministic (cycle, seq, kind)
 * order: strictly by cycle first; within one cycle, a *batch* is
 * everything already scheduled for that cycle when draining starts,
 * sorted by (seq, kind); events scheduled for the same cycle while a
 * batch is being processed (zero-latency chains such as
 * EqCheck -> Verify under the super model) form the next batch of the
 * same cycle. The contract is independent of scheduling order, so a
 * run is bit-reproducible no matter which code path enqueued first.
 * Events that tie on (seq, kind) keep their scheduling order.
 *
 * Pending events sit in a CycleWheel (cycle_wheel.hh), one bucket per
 * cycle. A batch is one bucket taken whole and sorted in place, so
 * draining a cycle allocates nothing.
 *
 * The queue also owns the hierarchical-wave depth bookkeeping that
 * used to be duplicated between the verify and invalidate paths: an
 * event carries the wave depth (-1 for single-event schemes), and
 * advanceWave() reschedules the next dependence level one cycle out.
 */

#ifndef VSIM_CORE_EVENT_QUEUE_HH
#define VSIM_CORE_EVENT_QUEUE_HH

#include <cstdint>
#include <vector>

#include "cycle_wheel.hh"

namespace vsim::core
{

enum class EventKind : std::uint8_t { EqCheck, Verify, Invalidate };

struct Event
{
    EventKind kind;
    int slot;
    std::uint64_t seq;
    /** Hierarchical schemes: remaining wave depth (unused = -1). */
    int depth = -1;
};

class EventQueue
{
  public:
    /** Schedule @p ev at absolute cycle @p at. */
    void schedule(std::uint64_t at, const Event &ev);

    /**
     * Schedule the opening event of a verify/invalidate transaction:
     * hierarchical schemes start a wave at depth 0, single-event
     * schemes carry no depth.
     */
    void scheduleWave(std::uint64_t at, EventKind kind, int slot,
                      std::uint64_t seq, bool hierarchical);

    /**
     * A hierarchical wave step left work behind: reschedule @p ev one
     * cycle after @p now, one dependence level deeper.
     */
    void advanceWave(std::uint64_t now, const Event &ev);

    /** Any event scheduled at or before @p now? */
    bool due(std::uint64_t now) { return byCycle.due(now); }

    /**
     * Remove and return the earliest due batch, sorted (seq, kind)
     * and stable, so events that tie on both keep their scheduling
     * order. Only valid while due(now) holds. The returned reference
     * aliases reused internal storage: it stays valid while the batch
     * is iterated (schedule() during iteration only touches the
     * wheel's buckets) and is overwritten by the next popBatch() call.
     */
    const std::vector<Event> &popBatch(std::uint64_t now);

    bool empty() const { return byCycle.empty(); }
    std::size_t pendingEvents() const { return byCycle.size(); }

  private:
    CycleWheel<Event> byCycle;
    std::vector<Event> batchScratch;
};

} // namespace vsim::core

#endif // VSIM_CORE_EVENT_QUEUE_HH
