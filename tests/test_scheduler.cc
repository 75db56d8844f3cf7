/**
 * @file
 * Tests of the event-driven wakeup/select path: IssueScheduler state
 * transitions in isolation, the SelectOrder walk against the
 * (prio, spec, seq) sort it replaces, then the load-bearing system
 * property — full simulations through the ready-list scheduler are
 * bit-identical to the legacy per-cycle window scan.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <tuple>
#include <vector>

#include "vsim/core/issue_scheduler.hh"
#include "vsim/core/ooo_core.hh"
#include "vsim/core/slot_ring.hh"
#include "vsim/sim/simulator.hh"
#include "vsim/workloads/workloads.hh"

namespace
{

using namespace vsim;
using core::IssueScheduler;
using core::WakeClass;

// =====================================================================
// IssueScheduler unit
// =====================================================================

std::vector<int>
sorted(std::vector<int> v)
{
    std::sort(v.begin(), v.end());
    return v;
}

TEST(IssueScheduler, UntouchedSlotsAreIdle)
{
    IssueScheduler s;
    s.reset(8);
    const auto &ready = s.collectReady(0, [](int) {
        ADD_FAILURE() << "classifier called without a touch";
        return WakeClass::idle();
    });
    EXPECT_TRUE(ready.empty());
}

TEST(IssueScheduler, TouchClassifiesOnceNextCollect)
{
    IssueScheduler s;
    s.reset(8);
    s.touch(3);
    s.touch(3); // duplicate touches collapse
    int calls = 0;
    const auto &ready = s.collectReady(0, [&](int slot) {
        EXPECT_EQ(slot, 3);
        ++calls;
        return WakeClass::ready();
    });
    EXPECT_EQ(calls, 1);
    ASSERT_EQ(ready.size(), 1u);
    EXPECT_EQ(ready[0], 3);
}

TEST(IssueScheduler, ReadyPersistsUntilRemoved)
{
    IssueScheduler s;
    s.reset(8);
    s.touch(2);
    auto classify = [](int) { return WakeClass::ready(); };
    EXPECT_EQ(s.collectReady(0, classify).size(), 1u);
    // Still ready next cycle with no further touches, no reclassify.
    const auto &again = s.collectReady(1, [](int) {
        ADD_FAILURE() << "ready slot must not reclassify";
        return WakeClass::idle();
    });
    ASSERT_EQ(again.size(), 1u);
    EXPECT_EQ(again[0], 2);

    s.remove(2); // issued
    EXPECT_TRUE(s.collectReady(2, classify).empty());
    EXPECT_EQ(s.readyCount(), 0u);
}

TEST(IssueScheduler, TimedSlotWakesAtItsCycle)
{
    IssueScheduler s;
    s.reset(8);
    s.touch(5);
    auto classifyAt = [&](std::uint64_t now) {
        return [now](int) {
            // Conditions hold from cycle 4 on.
            return now >= 4 ? WakeClass::ready() : WakeClass::timed(4);
        };
    };
    EXPECT_TRUE(s.collectReady(1, classifyAt(1)).empty());
    // No touches needed: the timer alone re-presents the slot.
    EXPECT_TRUE(s.collectReady(2, classifyAt(2)).empty());
    EXPECT_TRUE(s.collectReady(3, classifyAt(3)).empty());
    const auto &ready = s.collectReady(4, classifyAt(4));
    ASSERT_EQ(ready.size(), 1u);
    EXPECT_EQ(ready[0], 5);
}

TEST(IssueScheduler, TimedReclassifiesWhenConditionsShift)
{
    IssueScheduler s;
    s.reset(8);
    s.touch(1);
    // Armed for cycle 3...
    EXPECT_TRUE(
        s.collectReady(1, [](int) { return WakeClass::timed(3); })
            .empty());
    // ...but by cycle 3 an event pushed the wake further out.
    EXPECT_TRUE(
        s.collectReady(3, [](int) { return WakeClass::timed(6); })
            .empty());
    EXPECT_TRUE(s.collectReady(5, [](int) {
                     ADD_FAILURE() << "not due yet";
                     return WakeClass::idle();
                 }).empty());
    const auto &ready =
        s.collectReady(6, [](int) { return WakeClass::ready(); });
    ASSERT_EQ(ready.size(), 1u);
    EXPECT_EQ(ready[0], 1);
}

TEST(IssueScheduler, ParkedWaitsForTouch)
{
    IssueScheduler s;
    s.reset(8);
    s.touch(4);
    EXPECT_TRUE(
        s.collectReady(0, [](int) { return WakeClass::parked(); })
            .empty());
    // No timer: without a touch the slot is never re-examined.
    EXPECT_TRUE(s.collectReady(50, [](int) {
                     ADD_FAILURE() << "parked slot reclassified";
                     return WakeClass::idle();
                 }).empty());
    s.touch(4); // the operand broadcast arrived
    const auto &ready =
        s.collectReady(51, [](int) { return WakeClass::ready(); });
    ASSERT_EQ(ready.size(), 1u);
    EXPECT_EQ(ready[0], 4);
}

TEST(IssueScheduler, TouchDemotesQueuedReadySlot)
{
    IssueScheduler s;
    s.reset(8);
    s.touch(0);
    s.touch(6);
    auto ready2 =
        sorted(s.collectReady(0, [](int) { return WakeClass::ready(); }));
    EXPECT_EQ(ready2, (std::vector<int>{0, 6}));

    // An invalidation disturbs slot 6's operands: parked again.
    s.touch(6);
    const auto &ready = s.collectReady(1, [](int slot) {
        EXPECT_EQ(slot, 6);
        return WakeClass::parked();
    });
    ASSERT_EQ(ready.size(), 1u);
    EXPECT_EQ(ready[0], 0);
    EXPECT_EQ(s.readyCount(), 1u);
}

TEST(IssueScheduler, ResetDropsAllState)
{
    IssueScheduler s;
    s.reset(4);
    s.touch(1);
    s.collectReady(0, [](int) { return WakeClass::timed(9); });
    s.reset(4);
    EXPECT_TRUE(s.collectReady(9, [](int) {
                     ADD_FAILURE() << "stale timer survived reset";
                     return WakeClass::idle();
                 }).empty());
}

// =====================================================================
// SelectOrder: the bucketed walk is the (prio, spec, seq) sort
// =====================================================================

TEST(SelectOrder, WalkMatchesSortAtEveryRingOffset)
{
    // Random candidate sets in a window ring whose head sits at every
    // storage offset, so program-order ranks wrap around the ring the
    // way the core computes them: the position push_back() returned
    // at dispatch, through rankOf(). The walk must give exactly the
    // order a sort by (prio, spec, seq) gives, also when it stops
    // early, and must leave nothing queued behind.
    std::mt19937_64 rng(2002);
    const core::SelectPolicy policies[] = {
        core::SelectPolicy::TypedSpecLast, core::SelectPolicy::TypedOnly,
        core::SelectPolicy::OldestFirst, core::SelectPolicy::TypedSpecFirst};
    std::size_t walks = 0, wrapped = 0;
    for (int window : {24, 48, 96, 256, 512}) {
        SCOPED_TRACE("window " + std::to_string(window));
        core::SlotRing ring;
        ring.reset(window);
        const std::size_t capacity = ring.capacity();
        core::SelectOrder order;
        order.reset(capacity);
        std::vector<int> slots(static_cast<std::size_t>(window));
        std::iota(slots.begin(), slots.end(), 0);
        std::vector<std::size_t> pos(slots.size());
        for (std::size_t head = 0; head < capacity; ++head) {
            for (core::SelectPolicy sp : policies) {
                const auto policy = core::makeSelectionPolicy(sp);
                // An empty ring whose head sits at position `head`.
                ring.reset(window);
                for (std::size_t k = 0; k < head; ++k) {
                    ring.push_back(-1);
                    ring.pop_front();
                }
                // Dispatch n entries onto free physical slots.
                std::shuffle(slots.begin(), slots.end(), rng);
                const std::size_t n =
                    1 + rng() % static_cast<std::size_t>(window);
                std::vector<std::tuple<bool, bool, std::uint64_t, int>>
                    expect;
                for (std::size_t i = 0; i < n; ++i) {
                    const int slot = slots[i];
                    pos[static_cast<std::size_t>(slot)] =
                        ring.push_back(slot);
                    ASSERT_EQ(ring.rankOf(pos[static_cast<std::size_t>(
                                  slot)]),
                              i);
                    if (rng() % 3 == 0)
                        continue; // not ready this cycle
                    const core::SelectKey k =
                        policy->key(rng() % 2 == 0, rng() % 2 == 0);
                    // seq grows with dispatch order.
                    expect.emplace_back(k.prio, k.spec, 1000 + i, slot);
                    order.add(k, ring.rankOf(
                                     pos[static_cast<std::size_t>(slot)]));
                }
                wrapped += head + n > capacity;
                std::sort(expect.begin(), expect.end());

                // Stop after `limit` candidates, as the issue width
                // stops the core's walk; half the time never.
                const std::size_t limit =
                    expect.empty() || rng() % 2
                        ? expect.size()
                        : 1 + rng() % expect.size();
                std::vector<int> got;
                order.drain([&](std::size_t rank) {
                    got.push_back(ring[rank]);
                    return got.size() < limit;
                });
                std::vector<int> want;
                for (std::size_t i = 0; i < limit; ++i)
                    want.push_back(std::get<3>(expect[i]));
                ASSERT_EQ(got, want) << "head " << head << ", policy "
                                     << policy->name();
                order.drain([&](std::size_t rank) {
                    ADD_FAILURE() << "rank " << rank << " left queued";
                    return true;
                });
                ++walks;
            }
        }
    }
    EXPECT_EQ(walks, 4u * (32 + 64 + 128 + 256 + 512));
    EXPECT_GT(wrapped, walks / 4);
}

// =====================================================================
// system property: scan and ready-list runs are bit-identical
// =====================================================================

core::SimOutcome
runWith(const assembler::Program &prog, core::CoreConfig cfg,
        core::SchedulerKind kind)
{
    cfg.scheduler = kind;
    core::OooCore c(prog, cfg);
    return c.run();
}

void
expectIdentical(const core::SimOutcome &a, const core::SimOutcome &b)
{
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);
    EXPECT_EQ(a.stats.retired, b.stats.retired);
    EXPECT_EQ(a.stats.fetched, b.stats.fetched);
    EXPECT_EQ(a.stats.dispatched, b.stats.dispatched);
    EXPECT_EQ(a.stats.issued, b.stats.issued);
    EXPECT_EQ(a.stats.squashes, b.stats.squashes);
    EXPECT_EQ(a.stats.nullifications, b.stats.nullifications);
    EXPECT_EQ(a.stats.reissues, b.stats.reissues);
    EXPECT_EQ(a.stats.verifyEvents, b.stats.verifyEvents);
    EXPECT_EQ(a.stats.invalidateEvents, b.stats.invalidateEvents);
    EXPECT_EQ(a.stats.vpCH, b.stats.vpCH);
    EXPECT_EQ(a.stats.vpCL, b.stats.vpCL);
    EXPECT_EQ(a.stats.vpIH, b.stats.vpIH);
    EXPECT_EQ(a.stats.vpIL, b.stats.vpIL);
    EXPECT_EQ(a.stats.condMispredicts, b.stats.condMispredicts);
    EXPECT_EQ(a.stats.loadsForwarded, b.stats.loadsForwarded);
    EXPECT_EQ(a.exitCode, b.exitCode);
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.halted, b.halted);
}

TEST(SchedulerIdentity, BaseCore)
{
    const auto prog =
        workloads::buildProgram(workloads::byName("queens"), 1);
    const core::CoreConfig cfg = sim::baseConfig({8, 48});
    expectIdentical(
        runWith(prog, cfg, core::SchedulerKind::Scan),
        runWith(prog, cfg, core::SchedulerKind::ReadyList));
}

TEST(SchedulerIdentity, NamedModels)
{
    const auto prog =
        workloads::buildProgram(workloads::byName("queens"), 1);
    for (const char *model : {"super", "great", "good"}) {
        SCOPED_TRACE(model);
        const core::CoreConfig cfg = sim::vpConfig(
            {8, 48}, core::SpecModel::byName(model),
            core::ConfidenceKind::Real, core::UpdateTiming::Delayed);
        expectIdentical(
            runWith(prog, cfg, core::SchedulerKind::Scan),
            runWith(prog, cfg, core::SchedulerKind::ReadyList));
    }
}

TEST(SchedulerIdentity, AcrossSchemesAndSelection)
{
    // The combinations with the thorniest wakeup interactions: waves
    // that reset operands mid-flight, retirement-only validation, and
    // the speculation-first selection order.
    struct Combo
    {
        core::VerifyScheme v;
        core::InvalScheme i;
        core::SelectPolicy s;
    };
    const Combo combos[] = {
        {core::VerifyScheme::Hierarchical, core::InvalScheme::Flattened,
         core::SelectPolicy::TypedSpecLast},
        {core::VerifyScheme::Flattened, core::InvalScheme::Hierarchical,
         core::SelectPolicy::TypedSpecFirst},
        {core::VerifyScheme::RetirementBased,
         core::InvalScheme::Complete, core::SelectPolicy::OldestFirst},
        {core::VerifyScheme::Hybrid, core::InvalScheme::Hierarchical,
         core::SelectPolicy::TypedOnly},
    };
    const auto prog =
        workloads::buildProgram(workloads::byName("queens"), 1);
    for (const Combo &c : combos) {
        SCOPED_TRACE(core::verifySchemeName(c.v)
                     + std::string("/")
                     + core::invalSchemeName(c.i) + "/"
                     + core::selectPolicyName(c.s));
        core::SpecModel model = core::SpecModel::greatModel();
        model.verifyScheme = c.v;
        model.invalScheme = c.i;
        model.selectPolicy = c.s;
        const core::CoreConfig cfg = sim::vpConfig(
            {8, 48}, model, core::ConfidenceKind::Real,
            core::UpdateTiming::Delayed);
        expectIdentical(
            runWith(prog, cfg, core::SchedulerKind::Scan),
            runWith(prog, cfg, core::SchedulerKind::ReadyList));
    }
}

TEST(SchedulerIdentity, LargeWindow)
{
    // The --window 256 configuration the perf benchmark compares.
    const auto prog =
        workloads::buildProgram(workloads::byName("compress"), 1);
    const core::CoreConfig cfg = sim::vpConfig(
        {8, 256}, core::SpecModel::greatModel(),
        core::ConfidenceKind::Real, core::UpdateTiming::Delayed);
    expectIdentical(
        runWith(prog, cfg, core::SchedulerKind::Scan),
        runWith(prog, cfg, core::SchedulerKind::ReadyList));
}

} // namespace
