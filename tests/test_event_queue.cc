/**
 * @file
 * Unit tests of the speculation event network's scheduler: the
 * deterministic (cycle, seq, kind) ordering contract, the batch
 * semantics for zero-latency event chains, and the unified
 * hierarchical-wave depth bookkeeping; then the cycle wheel beneath
 * it and the core's other time queues.
 */

#include <gtest/gtest.h>

#include <vector>

#include "vsim/core/cycle_wheel.hh"
#include "vsim/core/event_queue.hh"

namespace
{

using namespace vsim::core;

Event
ev(EventKind kind, int slot, std::uint64_t seq, int depth = -1)
{
    return Event{kind, slot, seq, depth};
}

TEST(EventQueue, StartsEmpty)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.pendingEvents(), 0u);
    EXPECT_FALSE(q.due(0));
    EXPECT_FALSE(q.due(1'000'000));
}

TEST(EventQueue, PopsStrictlyByCycle)
{
    EventQueue q;
    q.schedule(7, ev(EventKind::Verify, 0, 10));
    q.schedule(3, ev(EventKind::EqCheck, 1, 20));
    q.schedule(5, ev(EventKind::Invalidate, 2, 30));
    EXPECT_EQ(q.pendingEvents(), 3u);

    EXPECT_FALSE(q.due(2));
    ASSERT_TRUE(q.due(3));
    auto b = q.popBatch(3);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(b[0].seq, 20u);

    // Cycle 5 is due at any now >= 5, including a late drain.
    ASSERT_TRUE(q.due(6));
    b = q.popBatch(6);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(b[0].seq, 30u);

    ASSERT_TRUE(q.due(7));
    b = q.popBatch(7);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(b[0].seq, 10u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, BatchSortsBySeqThenKind)
{
    EventQueue q;
    // Scheduled in scrambled order; one slot has both its Verify and
    // a (stale) EqCheck pending at the same cycle.
    q.schedule(4, ev(EventKind::Verify, 3, 50));
    q.schedule(4, ev(EventKind::Invalidate, 1, 20));
    q.schedule(4, ev(EventKind::EqCheck, 2, 50));
    q.schedule(4, ev(EventKind::EqCheck, 0, 10));

    auto b = q.popBatch(4);
    ASSERT_EQ(b.size(), 4u);
    EXPECT_EQ(b[0].seq, 10u);
    EXPECT_EQ(b[1].seq, 20u);
    // seq tie: EqCheck (kind 0) before Verify (kind 1).
    EXPECT_EQ(b[2].seq, 50u);
    EXPECT_EQ(b[2].kind, EventKind::EqCheck);
    EXPECT_EQ(b[3].seq, 50u);
    EXPECT_EQ(b[3].kind, EventKind::Verify);
}

TEST(EventQueue, SeqKindTiesKeepSchedulingOrder)
{
    // Two events with the same (seq, kind) in one cycle, told apart
    // by slot and depth; an older event scheduled after them makes the
    // sort move both.
    EventQueue q;
    q.schedule(3, ev(EventKind::Verify, 1, 40, 2));
    q.schedule(3, ev(EventKind::Verify, 2, 40, 0));
    q.schedule(3, ev(EventKind::Invalidate, 0, 30));

    const auto &b = q.popBatch(3);
    ASSERT_EQ(b.size(), 3u);
    EXPECT_EQ(b[0].seq, 30u);
    EXPECT_EQ(b[1].slot, 1);
    EXPECT_EQ(b[1].depth, 2);
    EXPECT_EQ(b[2].slot, 2);
    EXPECT_EQ(b[2].depth, 0);
}

TEST(EventQueue, OrderIndependentOfSchedulingOrder)
{
    // The same event set must drain identically no matter which code
    // path enqueued first (bit-reproducibility contract).
    const std::vector<Event> events = {
        ev(EventKind::Verify, 0, 5), ev(EventKind::EqCheck, 1, 9),
        ev(EventKind::Invalidate, 2, 7), ev(EventKind::EqCheck, 3, 5)};

    EventQueue fwd, rev;
    for (const Event &e : events)
        fwd.schedule(2, e);
    for (auto it = events.rbegin(); it != events.rend(); ++it)
        rev.schedule(2, *it);

    const auto bf = fwd.popBatch(2);
    const auto br = rev.popBatch(2);
    ASSERT_EQ(bf.size(), br.size());
    for (std::size_t i = 0; i < bf.size(); ++i) {
        EXPECT_EQ(bf[i].seq, br[i].seq);
        EXPECT_EQ(bf[i].kind, br[i].kind);
        EXPECT_EQ(bf[i].slot, br[i].slot);
    }
}

TEST(EventQueue, MidDrainSchedulesFormNextBatch)
{
    // A zero-latency chain (EqCheck -> Verify under the super model)
    // schedules for the *same* cycle while that cycle is draining; the
    // new event must not join the batch in flight.
    EventQueue q;
    q.schedule(9, ev(EventKind::EqCheck, 0, 1));
    q.schedule(9, ev(EventKind::EqCheck, 1, 2));

    int drains = 0;
    std::vector<std::uint64_t> order;
    while (q.due(9)) {
        ++drains;
        for (const Event &e : q.popBatch(9)) {
            order.push_back(e.seq);
            if (e.kind == EventKind::EqCheck)
                q.schedule(9, ev(EventKind::Verify, e.slot, e.seq));
        }
    }
    EXPECT_EQ(drains, 2);
    ASSERT_EQ(order.size(), 4u);
    // First batch: both EqChecks; second batch: both Verifies.
    EXPECT_EQ(order[0], 1u);
    EXPECT_EQ(order[1], 2u);
    EXPECT_EQ(order[2], 1u);
    EXPECT_EQ(order[3], 2u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ScheduleWaveDepth)
{
    EventQueue q;
    // Hierarchical transactions open at depth 0, single-event schemes
    // carry no depth; both kinds coexist in one queue (mixed
    // hierarchical-verify + flattened-invalidate configurations).
    q.scheduleWave(1, EventKind::Verify, 4, 100, /*hierarchical=*/true);
    q.scheduleWave(1, EventKind::Invalidate, 5, 200,
                   /*hierarchical=*/false);

    auto b = q.popBatch(1);
    ASSERT_EQ(b.size(), 2u);
    EXPECT_EQ(b[0].kind, EventKind::Verify);
    EXPECT_EQ(b[0].depth, 0);
    EXPECT_EQ(b[1].kind, EventKind::Invalidate);
    EXPECT_EQ(b[1].depth, -1);
}

TEST(EventQueue, AdvanceWaveOneCycleOneLevel)
{
    EventQueue q;
    q.scheduleWave(2, EventKind::Invalidate, 7, 300, true);
    auto b = q.popBatch(2);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(b[0].depth, 0);

    // The sweep left work behind: next level, one cycle out.
    q.advanceWave(2, b[0]);
    EXPECT_FALSE(q.due(2));
    ASSERT_TRUE(q.due(3));
    b = q.popBatch(3);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(b[0].kind, EventKind::Invalidate);
    EXPECT_EQ(b[0].slot, 7);
    EXPECT_EQ(b[0].seq, 300u);
    EXPECT_EQ(b[0].depth, 1);

    q.advanceWave(3, b[0]);
    b = q.popBatch(4);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(b[0].depth, 2);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueDeathTest, AdvanceWaveRequiresWaveEvent)
{
    // Advancing a depthless (single-event-scheme) event is a misuse of
    // the wave bookkeeping and trips the invariant check.
    EventQueue q;
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(q.advanceWave(0, ev(EventKind::Verify, 0, 1, -1)),
                 "non-wave");
}

// =====================================================================
// CycleWheel
// =====================================================================

/** Drain everything due at @p now as (cycle, entries) pairs. */
std::vector<std::pair<std::uint64_t, std::vector<int>>>
drainAll(CycleWheel<int> &w, std::uint64_t now)
{
    std::vector<std::pair<std::uint64_t, std::vector<int>>> out;
    std::vector<int> batch;
    while (w.due(now)) {
        const std::uint64_t at = w.take(now, batch);
        out.emplace_back(at, batch);
    }
    return out;
}

TEST(CycleWheel, InsertionOrderWithinOneCycle)
{
    CycleWheel<int> w;
    for (int v : {7, 3, 9, 1})
        w.push(5, v);
    w.push(6, 0);
    EXPECT_EQ(w.size(), 5u);
    EXPECT_FALSE(w.due(4));

    const auto got = drainAll(w, 5);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].first, 5u);
    EXPECT_EQ(got[0].second, (std::vector<int>{7, 3, 9, 1}));
    EXPECT_EQ(w.size(), 1u);
}

TEST(CycleWheel, GrowthKeepsPendingEntriesInTheirCycles)
{
    // The 64-bucket ring's cursor sits at cycle 62, so the pending
    // cycles 62..65 fill buckets 62, 63, 0 and 1 when a push 200
    // cycles out doubles the ring twice.
    CycleWheel<int> w;
    w.push(62, -1);
    ASSERT_EQ(drainAll(w, 62).size(), 1u);
    for (std::uint64_t c = 62; c < 66; ++c) {
        w.push(c, static_cast<int>(10 * c));
        w.push(c, static_cast<int>(10 * c + 1));
    }
    w.push(262, 2620);
    w.push(64, 642); // after growth, into a moved bucket
    EXPECT_EQ(w.size(), 10u);

    EXPECT_FALSE(w.due(61));
    const auto got = drainAll(w, 1000);
    using Bucket = std::pair<std::uint64_t, std::vector<int>>;
    ASSERT_EQ(got.size(), 5u);
    EXPECT_EQ(got[0], (Bucket{62, {620, 621}}));
    EXPECT_EQ(got[1], (Bucket{63, {630, 631}}));
    EXPECT_EQ(got[2], (Bucket{64, {640, 641, 642}}));
    EXPECT_EQ(got[3], (Bucket{65, {650, 651}}));
    EXPECT_EQ(got[4], (Bucket{262, {2620}}));
    EXPECT_TRUE(w.empty());
}

TEST(CycleWheel, LateDrainCoversSeveralCycles)
{
    CycleWheel<int> w;
    w.push(9, 90);
    w.push(2, 20);
    w.push(5, 50);
    w.push(3, 30);

    // Draining at 8 yields every cycle up to 8 in cycle order, and
    // leaves cycle 9 pending.
    const auto got = drainAll(w, 8);
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0].first, 2u);
    EXPECT_EQ(got[1].first, 3u);
    EXPECT_EQ(got[2].first, 5u);
    EXPECT_EQ(got[2].second, (std::vector<int>{50}));
    EXPECT_EQ(w.size(), 1u);
    EXPECT_FALSE(w.due(8));
    ASSERT_TRUE(w.due(9));
}

TEST(CycleWheel, PushForCycleJustDrainedComesOutNext)
{
    // A zero-latency push lands on the cycle that was just drained;
    // it comes out in the next drain, ahead of later cycles queued
    // before it.
    CycleWheel<int> w;
    w.push(4, 40);
    w.push(5, 50);
    ASSERT_EQ(drainAll(w, 4).size(), 1u);
    w.push(4, 41);
    EXPECT_TRUE(w.due(4));

    const auto got = drainAll(w, 5);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].first, 4u);
    EXPECT_EQ(got[0].second, (std::vector<int>{41}));
    EXPECT_EQ(got[1].first, 5u);
    EXPECT_EQ(got[1].second, (std::vector<int>{50}));
}

TEST(CycleWheel, DueOnEmptyWheelAtFarCycle)
{
    CycleWheel<int> w;
    const std::uint64_t far = std::uint64_t{1} << 40;
    EXPECT_FALSE(w.due(far));
    // The cursor moved with the idle wheel: a push near the far cycle
    // fits the ring as it is.
    w.push(far + 3, 7);
    EXPECT_FALSE(w.due(far + 2));
    const auto got = drainAll(w, far + 3);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].first, far + 3);
    EXPECT_EQ(got[0].second, (std::vector<int>{7}));
}

} // namespace
