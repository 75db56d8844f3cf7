/**
 * @file
 * The core's time queues — completions, speculation events and
 * wakeup timers — as one structure: a power-of-two ring of per-cycle
 * buckets keyed by absolute cycle (the latency-indexed wheel of
 * cycle-level simulators).
 *
 * Contract:
 *
 *  - Every pending entry lies in [cursor, cursor + ring size). A push
 *    beyond that horizon doubles the ring (as often as it must), so
 *    no latency bound is configured anywhere.
 *  - Entries of one cycle keep their insertion order.
 *  - take() hands over the earliest bucket due at or before `now`,
 *    and the cursor stops on that bucket's cycle: a push for the
 *    cycle just taken (a zero-latency completion, an EqCheck -> Verify
 *    chain) comes out in the next take, ahead of later cycles.
 *    Draining `while (due(now)) take(now, out)` therefore yields
 *    everything due at or before `now` in cycle order.
 *  - Pushes never go below the cursor: callers push at or after the
 *    latest `now` they drained with.
 *  - Buckets keep their storage from lap to lap, and take() swaps a
 *    bucket with the caller's vector, so a steady-state cycle
 *    allocates nothing.
 */

#ifndef VSIM_CORE_CYCLE_WHEEL_HH
#define VSIM_CORE_CYCLE_WHEEL_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "vsim/base/logging.hh"

namespace vsim::core
{

template <typename T>
class CycleWheel
{
  public:
    /** Queue @p v for absolute cycle @p at. */
    void
    push(std::uint64_t at, const T &v)
    {
        VSIM_ASSERT(at >= cursor, "push at cycle ", at,
                    " behind the wheel's cursor ", cursor);
        if (at - cursor >= buckets.size())
            grow(at);
        buckets[index(at)].push_back(v);
        ++pending;
    }

    /**
     * Any entry at or before @p now? Moves the cursor over the empty
     * cycles it passes, so idle cycles are scanned once, not on every
     * call.
     */
    bool
    due(std::uint64_t now)
    {
        if (now < cursor)
            return false;
        if (pending == 0) {
            cursor = now;
            return false;
        }
        while (cursor < now && buckets[index(cursor)].empty())
            ++cursor;
        return !buckets[index(cursor)].empty();
    }

    /**
     * Move the earliest due bucket's entries into @p out, in insertion
     * order, and return their cycle. @p out's previous contents are
     * dropped and its storage becomes the bucket's. Only valid while
     * due(now) holds.
     */
    std::uint64_t
    take(std::uint64_t now, std::vector<T> &out)
    {
        const bool ready = due(now);
        VSIM_ASSERT(ready, "take with nothing due at cycle ", now);
        std::vector<T> &b = buckets[index(cursor)];
        out.clear();
        out.swap(b);
        pending -= out.size();
        return cursor;
    }

    /** Drop every entry and rewind to cycle 0 (storage is kept). */
    void
    clear()
    {
        for (std::vector<T> &b : buckets)
            b.clear();
        pending = 0;
        cursor = 0;
    }

    bool empty() const { return pending == 0; }
    /** Number of queued entries. */
    std::size_t size() const { return pending; }

  private:
    std::size_t
    index(std::uint64_t at) const
    {
        return static_cast<std::size_t>(at) & (buckets.size() - 1);
    }

    /**
     * Double the ring until @p at fits, moving every bucket (and its
     * storage) to its cycle's index in the larger ring.
     */
    void
    grow(std::uint64_t at)
    {
        const std::size_t old_size = buckets.size();
        std::size_t size = old_size;
        while (at - cursor >= size)
            size *= 2;
        std::vector<std::vector<T>> larger(size);
        for (std::size_t i = 0; i < old_size; ++i) {
            // Bucket i holds the one cycle of [cursor, cursor +
            // old_size) that maps onto it.
            const std::uint64_t c = cursor + ((i - cursor) & (old_size - 1));
            larger[static_cast<std::size_t>(c) & (size - 1)] =
                std::move(buckets[i]);
        }
        buckets = std::move(larger);
    }

    /**
     * Starts wider than the default machine's longest latency (a load
     * that misses in L2, about 50 cycles), so growth is rare.
     */
    std::vector<std::vector<T>> buckets = std::vector<std::vector<T>>(64);
    /** No entry is queued before this cycle. */
    std::uint64_t cursor = 0;
    std::size_t pending = 0;
};

} // namespace vsim::core

#endif // VSIM_CORE_CYCLE_WHEEL_HH
