#include "event_queue.hh"

#include "vsim/base/logging.hh"

namespace vsim::core
{

void
EventQueue::schedule(std::uint64_t at, const Event &ev)
{
    byCycle.push(at, ev);
}

void
EventQueue::scheduleWave(std::uint64_t at, EventKind kind, int slot,
                         std::uint64_t seq, bool hierarchical)
{
    schedule(at, {kind, slot, seq, hierarchical ? 0 : -1});
}

void
EventQueue::advanceWave(std::uint64_t now, const Event &ev)
{
    VSIM_ASSERT(ev.depth >= 0, "advancing a non-wave event");
    schedule(now + 1, {ev.kind, ev.slot, ev.seq, ev.depth + 1});
}

const std::vector<Event> &
EventQueue::popBatch(std::uint64_t now)
{
    byCycle.take(now, batchScratch);
    // Stable insertion sort by (seq, kind): batches are short and
    // mostly scheduled in order already, and it needs no buffer.
    const auto before = [](const Event &a, const Event &b) {
        if (a.seq != b.seq)
            return a.seq < b.seq;
        return static_cast<int>(a.kind) < static_cast<int>(b.kind);
    };
    for (std::size_t i = 1; i < batchScratch.size(); ++i) {
        const Event ev = batchScratch[i];
        std::size_t j = i;
        for (; j > 0 && before(ev, batchScratch[j - 1]); --j)
            batchScratch[j] = batchScratch[j - 1];
        batchScratch[j] = ev;
    }
    return batchScratch;
}

} // namespace vsim::core
