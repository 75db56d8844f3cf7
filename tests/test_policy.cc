/**
 * @file
 * Unit tests of the policy strategy objects under core/policy/:
 * selection keys (§3.5), verification sweeps (§3.2) and invalidation
 * sweeps (§3.1), each run in isolation against a synthetic window and
 * a recording SpecHooks fake — no OooCore involved.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "vsim/core/mask_ops.hh"
#include "vsim/core/policy/policies.hh"
#include "vsim/core/slot_ring.hh"
#include "vsim/core/subscriber_index.hh"
#include "mask_width.hh"

namespace
{

using namespace vsim::core;
using vsim::testutil::forEachMaskWidth;

/**
 * Mask width of the synthetic windows. The sweeps are one template at
 * every width; the mask operations below run at all of them.
 */
constexpr std::size_t kBits = 128;

// =====================================================================
// selection (§3.5)
// =====================================================================

TEST(SelectPolicyTest, Names)
{
    EXPECT_STREQ(
        makeSelectionPolicy(SelectPolicy::TypedSpecLast)->name(),
        "typed-spec-last");
    EXPECT_STREQ(makeSelectionPolicy(SelectPolicy::TypedOnly)->name(),
                 "typed-only");
    EXPECT_STREQ(makeSelectionPolicy(SelectPolicy::OldestFirst)->name(),
                 "oldest-first");
    EXPECT_STREQ(
        makeSelectionPolicy(SelectPolicy::TypedSpecFirst)->name(),
        "typed-spec-first");
}

/** (prio, spec) compared lexicographically, as issue selection does. */
bool
beats(const SelectKey &a, const SelectKey &b)
{
    return a.prio != b.prio ? a.prio < b.prio : a.spec < b.spec;
}

TEST(SelectPolicyTest, TypedSpecLastOrder)
{
    // Paper §3.5: branches/loads first; within a class,
    // non-speculative preferred; age (handled by the caller) last.
    const auto p = makeSelectionPolicy(SelectPolicy::TypedSpecLast);
    const SelectKey tn = p->key(true, false), ts = p->key(true, true);
    const SelectKey un = p->key(false, false), us = p->key(false, true);
    EXPECT_TRUE(beats(tn, ts));
    EXPECT_TRUE(beats(ts, un));
    EXPECT_TRUE(beats(un, us));
}

TEST(SelectPolicyTest, TypedOnlyIgnoresSpeculation)
{
    const auto p = makeSelectionPolicy(SelectPolicy::TypedOnly);
    EXPECT_EQ(p->key(true, false), p->key(true, true));
    EXPECT_EQ(p->key(false, false), p->key(false, true));
    EXPECT_TRUE(beats(p->key(true, true), p->key(false, false)));
}

TEST(SelectPolicyTest, OldestFirstIsPureAge)
{
    const auto p = makeSelectionPolicy(SelectPolicy::OldestFirst);
    EXPECT_EQ(p->key(true, false), p->key(false, true));
    EXPECT_EQ(p->key(true, true), p->key(false, false));
}

TEST(SelectPolicyTest, TypedSpecFirstPrefersSpeculative)
{
    const auto p = makeSelectionPolicy(SelectPolicy::TypedSpecFirst);
    EXPECT_TRUE(beats(p->key(true, true), p->key(true, false)));
    EXPECT_TRUE(beats(p->key(false, true), p->key(false, false)));
    EXPECT_TRUE(beats(p->key(true, false), p->key(false, true)));
}

// =====================================================================
// synthetic window + recording hooks
// =====================================================================

/** Records every hook the sweeps raise, mutating nothing. */
struct RecordingHooks final : SpecHooks<kBits>
{
    std::vector<int> outputValid;  //!< slots via outputBecameValid
    std::vector<int> nullified;    //!< slots via nullifyEntry
    std::vector<int> squashed;     //!< producer slots, completeSquash
    std::vector<int> wakeups;      //!< slots via wakeupChanged
    std::vector<std::pair<int, int>> invalidated; //!< (slot, operand)

    void outputBecameValid(RsEntry<kBits> &e) override
    {
        outputValid.push_back(e.slot);
    }
    void nullifyEntry(RsEntry<kBits> &e) override
    {
        nullified.push_back(e.slot);
    }
    void completeSquash(RsEntry<kBits> &p) override
    {
        squashed.push_back(p.slot);
    }
    void wakeupChanged(RsEntry<kBits> &e) override
    {
        wakeups.push_back(e.slot);
    }
    void operandInvalidated(RsEntry<kBits> &e, int idx) override
    {
        invalidated.push_back({e.slot, idx});
    }
};

/**
 * A three-deep dependence chain around a predicted producer:
 *
 *   slot 0  producer, predicted, executed
 *   slot 1  direct consumer   src[0]: tag 0, deps {0}, Predicted
 *   slot 2  indirect consumer src[0]: tag 1, deps {0}, Speculative
 *
 * Both consumers executed, so their outputs also carry bit 0.
 */
struct ChainFixture
{
    /**
     * Physical window capacity: larger than the three live entries so
     * tests can park unrelated prediction bits (e.g. bit 5) without
     * stepping outside the subscriber index, as a real core's unused
     * slots do.
     */
    static constexpr int kSlots = 8;

    std::vector<RsEntry<kBits>> window;
    SlotRing order;
    SubscriberIndex<kBits> subs;
    RecordingHooks hooks;

    ChainFixture()
    {
        order.reset(kSlots);
        for (int s = 0; s < 3; ++s)
            order.push_back(s);
        subs.reset(kSlots);
        window.resize(kSlots);
        for (int s = 0; s < 3; ++s) {
            RsEntry<kBits> &e = window[static_cast<std::size_t>(s)];
            e.busy = true;
            e.slot = s;
            e.seq = static_cast<std::uint64_t>(s + 1);
            e.executed = true;
            e.issued = true;
        }
        RsEntry<kBits> &p = window[0];
        p.predicted = true;
        p.outValue = 111;
        p.outDeps.set(0);

        RsEntry<kBits> &c1 = window[1];
        c1.src[0].state = OperandState::Predicted;
        c1.src[0].tag = 0;
        c1.src[0].value = 42; // stale predicted value
        c1.src[0].deps.set(0);
        c1.outDeps.set(0);

        RsEntry<kBits> &c2 = window[2];
        c2.src[0].state = OperandState::Speculative;
        c2.src[0].tag = 1;
        c2.src[0].deps.set(0);
        c2.outDeps.set(0);
    }

    WindowRef<kBits> ref() { return {window, order}; }

    /** Sparse view: subscribe every entry's current masks first. */
    WindowRef<kBits>
    sparseRef()
    {
        for (const RsEntry<kBits> &e : window)
            subs.noteEntry(e);
        return {window, order, &subs};
    }
};

// =====================================================================
// verification (§3.2)
// =====================================================================

TEST(VerifyPolicyTest, PredicateTable)
{
    const auto flat = makeVerifyPolicy(VerifyScheme::Flattened);
    const auto hier = makeVerifyPolicy(VerifyScheme::Hierarchical);
    const auto ret = makeVerifyPolicy(VerifyScheme::RetirementBased);
    const auto hyb = makeVerifyPolicy(VerifyScheme::Hybrid);

    EXPECT_STREQ(flat->name(), "flattened");
    EXPECT_FALSE(flat->hierarchical());
    EXPECT_TRUE(flat->propagatesOnEvent());
    EXPECT_FALSE(flat->sweepsAtRetire());
    EXPECT_FALSE(flat->residueGuardAtRetire());

    EXPECT_STREQ(hier->name(), "hierarchical");
    EXPECT_TRUE(hier->hierarchical());
    EXPECT_TRUE(hier->propagatesOnEvent());
    EXPECT_FALSE(hier->sweepsAtRetire());
    EXPECT_TRUE(hier->residueGuardAtRetire());

    EXPECT_STREQ(ret->name(), "retirement");
    EXPECT_FALSE(ret->hierarchical());
    EXPECT_FALSE(ret->propagatesOnEvent());
    EXPECT_TRUE(ret->sweepsAtRetire());
    EXPECT_FALSE(ret->residueGuardAtRetire());

    EXPECT_STREQ(hyb->name(), "hybrid");
    EXPECT_TRUE(hyb->hierarchical());
    EXPECT_TRUE(hyb->propagatesOnEvent());
    EXPECT_TRUE(hyb->sweepsAtRetire());
    // Hybrid's retirement sweep clears residue; no guard needed.
    EXPECT_FALSE(hyb->residueGuardAtRetire());
}

TEST(VerifyPolicyTest, FlattenedValidatesAllInOneEvent)
{
    ChainFixture f;
    const auto policy = makeVerifyPolicy(VerifyScheme::Flattened);
    const bool more = policy->apply(f.ref(), f.window[0], 10, f.hooks);

    EXPECT_FALSE(more);
    // Both consumers' operands lose the bit and turn Valid at once.
    EXPECT_EQ(f.window[1].src[0].state, OperandState::Valid);
    EXPECT_EQ(f.window[1].src[0].validAt, 10u);
    EXPECT_TRUE(f.window[1].src[0].validViaEvent);
    EXPECT_EQ(f.window[2].src[0].state, OperandState::Valid);
    EXPECT_TRUE(f.window[1].outDeps.none());
    EXPECT_TRUE(f.window[2].outDeps.none());
    EXPECT_EQ(f.hooks.wakeups, (std::vector<int>{1, 2}));
    EXPECT_EQ(f.hooks.outputValid, (std::vector<int>{1, 2}));
    EXPECT_TRUE(f.hooks.nullified.empty());
    EXPECT_TRUE(f.hooks.invalidated.empty());
}

TEST(VerifyPolicyTest, HierarchicalAdvancesOneLevelPerEvent)
{
    ChainFixture f;
    const auto policy = makeVerifyPolicy(VerifyScheme::Hierarchical);

    // Step 1: only the direct consumer's input cleanses; its output
    // (and the indirect consumer) wait for the next wave step.
    ASSERT_TRUE(policy->apply(f.ref(), f.window[0], 10, f.hooks));
    EXPECT_EQ(f.window[1].src[0].state, OperandState::Valid);
    EXPECT_EQ(f.window[2].src[0].state, OperandState::Speculative);
    EXPECT_FALSE(f.window[1].outDeps.none());
    EXPECT_EQ(f.hooks.wakeups, (std::vector<int>{1}));

    // Step 2: the direct consumer's output cleanses; the indirect
    // consumer's input sees it only at step 3.
    ASSERT_TRUE(policy->apply(f.ref(), f.window[0], 11, f.hooks));
    EXPECT_TRUE(f.window[1].outDeps.none());
    EXPECT_EQ(f.hooks.outputValid, (std::vector<int>{1}));
    EXPECT_EQ(f.window[2].src[0].state, OperandState::Speculative);

    // Step 3: the wave reaches the indirect consumer's input; its
    // output cleanses one step after its inputs, i.e. at step 4.
    ASSERT_TRUE(policy->apply(f.ref(), f.window[0], 12, f.hooks));
    EXPECT_EQ(f.window[2].src[0].state, OperandState::Valid);
    EXPECT_EQ(f.window[2].src[0].validAt, 12u);
    EXPECT_FALSE(f.window[2].outDeps.none());

    // Step 4: nothing remains.
    EXPECT_FALSE(policy->apply(f.ref(), f.window[0], 13, f.hooks));
    EXPECT_TRUE(f.window[2].outDeps.none());
    EXPECT_EQ(f.hooks.outputValid, (std::vector<int>{1, 2}));
}

TEST(VerifyPolicyTest, RetirementSweepValidatesEverything)
{
    ChainFixture f;
    const auto policy = makeVerifyPolicy(VerifyScheme::RetirementBased);
    policy->applyRetire(f.ref(), f.window[0], 20, f.hooks);

    EXPECT_EQ(f.window[1].src[0].state, OperandState::Valid);
    EXPECT_EQ(f.window[2].src[0].state, OperandState::Valid);
    EXPECT_TRUE(f.window[1].outDeps.none());
    EXPECT_TRUE(f.window[2].outDeps.none());
    EXPECT_EQ(f.hooks.outputValid, (std::vector<int>{1, 2}));
}

TEST(VerifyPolicyTest, SweepLeavesUnrelatedBitsAlone)
{
    ChainFixture f;
    // The indirect consumer also depends on some other prediction.
    f.window[2].src[0].deps.set(5);
    f.window[2].outDeps.set(5);

    const auto policy = makeVerifyPolicy(VerifyScheme::Flattened);
    policy->apply(f.ref(), f.window[0], 10, f.hooks);

    // Bit 0 cleared, bit 5 kept: still speculative, no wakeup raised
    // beyond the direct consumer, output not yet valid.
    EXPECT_EQ(f.window[2].src[0].state, OperandState::Speculative);
    EXPECT_TRUE(f.window[2].src[0].deps.test(5));
    EXPECT_FALSE(f.window[2].src[0].deps.test(0));
    EXPECT_TRUE(f.window[2].outDeps.test(5));
    EXPECT_EQ(f.hooks.wakeups, (std::vector<int>{1}));
    EXPECT_EQ(f.hooks.outputValid, (std::vector<int>{1}));
}

// =====================================================================
// invalidation (§3.1)
// =====================================================================

TEST(InvalPolicyTest, PredicateTable)
{
    const auto flat = makeInvalPolicy(InvalScheme::Flattened);
    const auto hier = makeInvalPolicy(InvalScheme::Hierarchical);
    const auto comp = makeInvalPolicy(InvalScheme::Complete);

    EXPECT_STREQ(flat->name(), "flattened");
    EXPECT_FALSE(flat->hierarchical());
    EXPECT_FALSE(flat->complete());
    EXPECT_FALSE(flat->residueGuardAtRetire());

    EXPECT_STREQ(hier->name(), "hierarchical");
    EXPECT_TRUE(hier->hierarchical());
    EXPECT_FALSE(hier->complete());
    EXPECT_TRUE(hier->residueGuardAtRetire());

    EXPECT_STREQ(comp->name(), "complete");
    EXPECT_FALSE(comp->hierarchical());
    EXPECT_TRUE(comp->complete());
    EXPECT_FALSE(comp->residueGuardAtRetire());
}

TEST(InvalPolicyTest, FlattenedCorrectsDirectResetsIndirect)
{
    ChainFixture f;
    const auto policy = makeInvalPolicy(InvalScheme::Flattened);
    const bool more = policy->apply(f.ref(), f.window[0], 10, f.hooks);

    EXPECT_FALSE(more);
    // Direct consumer rides the corrected value off the broadcast.
    EXPECT_EQ(f.window[1].src[0].state, OperandState::Valid);
    EXPECT_EQ(f.window[1].src[0].value, 111u);
    EXPECT_EQ(f.window[1].src[0].readyAt, 10u);
    // Indirect consumer re-captures from its producer's re-broadcast.
    EXPECT_EQ(f.window[2].src[0].state, OperandState::Invalid);
    EXPECT_TRUE(f.window[2].src[0].deps.none());
    EXPECT_EQ(f.hooks.invalidated,
              (std::vector<std::pair<int, int>>{{2, 0}}));
    // Both consumed a wrong value while issued: wakeup nullification.
    EXPECT_EQ(f.hooks.nullified, (std::vector<int>{1, 2}));
    EXPECT_TRUE(f.hooks.squashed.empty());
}

TEST(InvalPolicyTest, HierarchicalWaveReactsLevelByLevel)
{
    ChainFixture f;
    const auto policy = makeInvalPolicy(InvalScheme::Hierarchical);

    // Step 1: direct consumer corrected; the indirect consumer's
    // producer still carried the bit at the start of the step, so it
    // must wait for a later level.
    ASSERT_TRUE(policy->apply(f.ref(), f.window[0], 10, f.hooks));
    EXPECT_EQ(f.window[1].src[0].state, OperandState::Valid);
    EXPECT_EQ(f.window[1].src[0].value, 111u);
    EXPECT_EQ(f.window[2].src[0].state, OperandState::Speculative);
    EXPECT_EQ(f.hooks.nullified, (std::vector<int>{1}));

    // The nullification resets the direct consumer's execution state,
    // as OooCore::nullify does.
    f.window[1].executed = false;
    f.window[1].issued = false;
    f.window[1].outDeps.reset();

    // Step 2: the indirect consumer sees its producer was nullified
    // and resets to wait on the re-broadcast.
    EXPECT_FALSE(policy->apply(f.ref(), f.window[0], 11, f.hooks));
    EXPECT_EQ(f.window[2].src[0].state, OperandState::Invalid);
    EXPECT_EQ(f.hooks.invalidated,
              (std::vector<std::pair<int, int>>{{2, 0}}));
    EXPECT_EQ(f.hooks.nullified, (std::vector<int>{1, 2}));
}

TEST(InvalPolicyTest, CompleteRaisesSquashOnly)
{
    ChainFixture f;
    const auto policy = makeInvalPolicy(InvalScheme::Complete);
    EXPECT_FALSE(policy->apply(f.ref(), f.window[0], 10, f.hooks));

    // Complete invalidation delegates wholesale to the squash path;
    // the sweep itself must not touch any consumer state.
    EXPECT_EQ(f.hooks.squashed, (std::vector<int>{0}));
    EXPECT_EQ(f.window[1].src[0].state, OperandState::Predicted);
    EXPECT_EQ(f.window[2].src[0].state, OperandState::Speculative);
    EXPECT_TRUE(f.hooks.nullified.empty());
    EXPECT_TRUE(f.hooks.wakeups.empty());
    EXPECT_TRUE(f.hooks.invalidated.empty());
}

// =====================================================================
// word-parallel mask operations (every mask width)
// =====================================================================

TEST(MaskOpsTest, TestAndClear)
{
    forEachMaskWidth([](auto width) {
        constexpr std::size_t kW = decltype(width)::value;
        // Bit 200 where the mask has it, else the top bit.
        constexpr std::size_t kHigh = std::min<std::size_t>(200, kW - 1);
        SpecMask<kW> m;
        m.set(3);
        m.set(kHigh);
        EXPECT_TRUE(mask::testAndClear(m, 3));
        EXPECT_FALSE(m.test(3));
        EXPECT_FALSE(mask::testAndClear(m, 3));
        EXPECT_TRUE(m.test(kHigh)); // untouched
        EXPECT_FALSE(mask::testAndClear(m, 0));
        // The top bit clears like any other.
        m.set(kW - 1);
        EXPECT_TRUE(mask::testAndClear(m, kW - 1));
        EXPECT_FALSE(m.test(kW - 1));
    });
}

TEST(MaskOpsTest, AnyIntersect)
{
    forEachMaskWidth([](auto width) {
        constexpr std::size_t kW = decltype(width)::value;
        // Bit 130 where the mask has it, else the top bit.
        constexpr std::size_t kHigh = std::min<std::size_t>(130, kW - 1);
        SpecMask<kW> a, b;
        a.set(7);
        a.set(kHigh);
        b.set(8);
        EXPECT_FALSE(mask::anyIntersect(a, b));
        b.set(kHigh);
        EXPECT_TRUE(mask::anyIntersect(a, b));
        EXPECT_FALSE(mask::anyIntersect(a, SpecMask<kW>{}));
        a.reset(kHigh);
        a.set(kW - 1);
        b.set(kW - 1);
        EXPECT_TRUE(mask::anyIntersect(a, b));
    });
}

TEST(MaskOpsTest, ForEachSetBitAscendingAcrossWords)
{
    forEachMaskWidth([](auto width) {
        constexpr std::size_t kW = decltype(width)::value;
        // Bits in every 64-bit word the width has, including both
        // ends and each width's top bit.
        std::vector<int> want;
        for (int b : {0, 5, 63, 64, 127, 128, 255, 511}) {
            if (static_cast<std::size_t>(b) < kW)
                want.push_back(b);
        }
        ASSERT_EQ(want.back(), static_cast<int>(kW - 1));
        SpecMask<kW> m;
        for (int b : want)
            m.set(static_cast<std::size_t>(b));
        std::vector<int> seen;
        mask::forEachSetBit(m, [&](int b) { seen.push_back(b); });
        EXPECT_EQ(seen, want);

        seen.clear();
        mask::forEachSetBit(SpecMask<kW>{},
                            [&](int b) { seen.push_back(b); });
        EXPECT_TRUE(seen.empty());
    });
}

TEST(MaskOpsTest, FindFirst)
{
    forEachMaskWidth([](auto width) {
        constexpr std::size_t kW = decltype(width)::value;
        // Bit 255 where the mask has it, else the top bit.
        constexpr int kHigh = static_cast<int>(std::min<std::size_t>(
            255, kW - 1));
        EXPECT_EQ(mask::findFirst(SpecMask<kW>{}), -1);
        SpecMask<kW> top;
        top.set(kW - 1);
        EXPECT_EQ(mask::findFirst(top), static_cast<int>(kW - 1));
        SpecMask<kW> m;
        m.set(kHigh);
        EXPECT_EQ(mask::findFirst(m), kHigh);
        m.set(64);
        EXPECT_EQ(mask::findFirst(m), 64);
        m.set(0);
        EXPECT_EQ(mask::findFirst(m), 0);
    });
}

// =====================================================================
// SlotRing (contiguous circular window/lsq order)
// =====================================================================

TEST(SlotRingTest, FifoOrder)
{
    SlotRing r;
    r.reset(4);
    EXPECT_TRUE(r.empty());
    for (int v : {10, 11, 12})
        r.push_back(v);
    EXPECT_EQ(r.size(), 3u);
    EXPECT_EQ(r.front(), 10);
    EXPECT_EQ(r.back(), 12);
    EXPECT_EQ(r[1], 11);
    r.pop_front();
    EXPECT_EQ(r.front(), 11);
    EXPECT_EQ(r.size(), 2u);
}

TEST(SlotRingTest, WrapAroundKeepsIndexingConsistent)
{
    SlotRing r;
    r.reset(4); // power of two: storage wraps at 4
    for (int v = 0; v < 4; ++v)
        r.push_back(v);
    // Slide the ring far past its capacity; logical order must hold.
    for (int v = 4; v < 40; ++v) {
        r.pop_front();
        r.push_back(v);
        ASSERT_EQ(r.size(), 4u);
        for (std::size_t i = 0; i < 4; ++i)
            ASSERT_EQ(r[i], v - 3 + static_cast<int>(i))
                << "after pushing " << v;
    }
}

TEST(SlotRingTest, PopBackDropsYoungestSuffix)
{
    // The squash path pops the youngest entries one by one.
    SlotRing r;
    r.reset(8);
    for (int v = 0; v < 6; ++v)
        r.push_back(v);
    r.pop_back();
    r.pop_back();
    EXPECT_EQ(r.size(), 4u);
    EXPECT_EQ(r.back(), 3);
    r.push_back(99); // reuse the vacated storage
    EXPECT_EQ(r.back(), 99);
    EXPECT_EQ(r.front(), 0);
}

TEST(SlotRingTest, IterationMatchesIndexing)
{
    SlotRing r;
    r.reset(4);
    for (int v = 0; v < 4; ++v)
        r.push_back(v);
    r.pop_front();
    r.pop_front();
    r.push_back(4);
    r.push_back(5); // head is now wrapped
    std::vector<int> via_iter(r.begin(), r.end());
    std::vector<int> via_index;
    for (std::size_t i = 0; i < r.size(); ++i)
        via_index.push_back(r[i]);
    EXPECT_EQ(via_iter, (std::vector<int>{2, 3, 4, 5}));
    EXPECT_EQ(via_iter, via_index);
}

TEST(SlotRingTest, CapacityRoundsUpToPowerOfTwo)
{
    SlotRing r;
    r.reset(3); // rounds to 4
    for (int v = 0; v < 3; ++v)
        r.push_back(v);
    EXPECT_EQ(r.size(), 3u);
    EXPECT_EQ(r.front(), 0);
    EXPECT_EQ(r.back(), 2);
}

// =====================================================================
// subscriber lists
// =====================================================================

TEST(SubscriberIndexTest, CollectReturnsSeqSortedCarriers)
{
    ChainFixture f;
    // Subscribe in reverse program order; collect must sort by seq.
    for (int s = 2; s >= 0; --s)
        f.subs.noteEntry(f.window[static_cast<std::size_t>(s)]);
    const std::vector<int> &domain = f.subs.collect(0, f.window);
    EXPECT_EQ(domain, (std::vector<int>{0, 1, 2}));
    EXPECT_TRUE(f.subs.checkInvariants(f.window));
}

TEST(SubscriberIndexTest, DuplicateNotesSubscribeOnce)
{
    ChainFixture f;
    for (int round = 0; round < 3; ++round)
        for (const RsEntry<kBits> &e : f.window)
            f.subs.noteEntry(e);
    EXPECT_EQ(f.subs.collect(0, f.window).size(), 3u);
    EXPECT_TRUE(f.subs.checkInvariants(f.window));
}

TEST(SubscriberIndexTest, CollectPrunesStaleSubscriptions)
{
    ChainFixture f;
    for (const RsEntry<kBits> &e : f.window)
        f.subs.noteEntry(e);
    // The indirect consumer loses the bit (as a verify sweep would
    // clear it) and the producer's slot is freed.
    f.window[2].src[0].deps.reset(0);
    f.window[2].outDeps.reset(0);
    f.window[0].busy = false;
    const std::vector<int> &domain = f.subs.collect(0, f.window);
    EXPECT_EQ(domain, (std::vector<int>{1}));
    // Pruning unsubscribed the dropped slots, keeping the bijection.
    EXPECT_FALSE(f.subs.isSubscribed(2, 0));
    EXPECT_FALSE(f.subs.isSubscribed(0, 0));
    EXPECT_TRUE(f.subs.isSubscribed(1, 0));
    EXPECT_TRUE(f.subs.checkInvariants(f.window));
}

TEST(SubscriberIndexTest, AnyOtherCarrierExcludesSelf)
{
    ChainFixture f;
    for (const RsEntry<kBits> &e : f.window)
        f.subs.noteEntry(e);
    EXPECT_TRUE(f.subs.anyOtherCarrier(0, f.window, 0));
    // Only the producer itself still carries the bit: no residue.
    f.window[1].src[0].deps.reset(0);
    f.window[1].outDeps.reset(0);
    f.window[2].src[0].deps.reset(0);
    f.window[2].outDeps.reset(0);
    EXPECT_FALSE(f.subs.anyOtherCarrier(0, f.window, 0));
    EXPECT_TRUE(f.subs.checkInvariants(f.window));
}

TEST(SubscriberIndexTest, CarriesTestsAllFourMasks)
{
    RsEntry<kBits> e;
    e.slot = 0;
    EXPECT_FALSE(SubscriberIndex<kBits>::carries(e, 7));
    e.src[0].deps.set(7);
    EXPECT_TRUE(SubscriberIndex<kBits>::carries(e, 7));
    e.src[0].deps.reset(7);
    e.src[1].deps.set(7);
    EXPECT_TRUE(SubscriberIndex<kBits>::carries(e, 7));
    e.src[1].deps.reset(7);
    e.outDeps.set(7);
    EXPECT_TRUE(SubscriberIndex<kBits>::carries(e, 7));
    e.outDeps.reset(7);
    e.memDeps.set(7);
    EXPECT_TRUE(SubscriberIndex<kBits>::carries(e, 7));
}

TEST(SubscriberIndexTest, InvariantCheckerCatchesMissedNote)
{
    ChainFixture f;
    // Busy entries carry bit 0 but nothing was noted: invariant (B).
    std::string why;
    EXPECT_FALSE(f.subs.checkInvariants(f.window, &why));
    EXPECT_NE(why.find("without a subscription"), std::string::npos);
    for (const RsEntry<kBits> &e : f.window)
        f.subs.noteEntry(e);
    EXPECT_TRUE(f.subs.checkInvariants(f.window, &why)) << why;
}

// =====================================================================
// sparse sweeps reproduce the dense sweeps exactly
// =====================================================================

/** Window state + hook trace must match field for field. */
void
expectSameOutcome(const ChainFixture &dense, const ChainFixture &sparse)
{
    for (std::size_t s = 0; s < dense.window.size(); ++s) {
        SCOPED_TRACE("slot " + std::to_string(s));
        const RsEntry<kBits> &d = dense.window[s];
        const RsEntry<kBits> &sp = sparse.window[s];
        EXPECT_EQ(d.executed, sp.executed);
        EXPECT_EQ(d.issued, sp.issued);
        EXPECT_EQ(d.outDeps, sp.outDeps);
        EXPECT_EQ(d.memDeps, sp.memDeps);
        EXPECT_EQ(d.verifiedAt, sp.verifiedAt);
        for (int i = 0; i < 2; ++i) {
            SCOPED_TRACE("operand " + std::to_string(i));
            EXPECT_EQ(d.src[i].state, sp.src[i].state);
            EXPECT_EQ(d.src[i].deps, sp.src[i].deps);
            EXPECT_EQ(d.src[i].value, sp.src[i].value);
            EXPECT_EQ(d.src[i].readyAt, sp.src[i].readyAt);
            EXPECT_EQ(d.src[i].validAt, sp.src[i].validAt);
            EXPECT_EQ(d.src[i].validViaEvent, sp.src[i].validViaEvent);
        }
    }
    EXPECT_EQ(dense.hooks.outputValid, sparse.hooks.outputValid);
    EXPECT_EQ(dense.hooks.nullified, sparse.hooks.nullified);
    EXPECT_EQ(dense.hooks.squashed, sparse.hooks.squashed);
    EXPECT_EQ(dense.hooks.wakeups, sparse.hooks.wakeups);
    EXPECT_EQ(dense.hooks.invalidated, sparse.hooks.invalidated);
}

TEST(SparseSweepTest, VerifySchemesMatchDense)
{
    for (int v = 0; v < 4; ++v) {
        SCOPED_TRACE("verify scheme " + std::to_string(v));
        const auto policy =
            makeVerifyPolicy(static_cast<VerifyScheme>(v));
        ChainFixture dense, sparse;
        // Extra cross-bit dependence to exercise partial clears.
        dense.window[2].src[0].deps.set(5);
        dense.window[2].outDeps.set(5);
        sparse.window[2].src[0].deps.set(5);
        sparse.window[2].outDeps.set(5);

        std::uint64_t cycle = 10;
        bool more_d = true, more_s = true;
        while (more_d || more_s) {
            more_d = policy->apply(dense.ref(), dense.window[0], cycle,
                                   dense.hooks);
            more_s = policy->apply(sparse.sparseRef(), sparse.window[0],
                                   cycle, sparse.hooks);
            ASSERT_EQ(more_d, more_s);
            ++cycle;
        }
        if (policy->sweepsAtRetire()) {
            policy->applyRetire(dense.ref(), dense.window[0], cycle,
                                dense.hooks);
            policy->applyRetire(sparse.sparseRef(), sparse.window[0],
                                cycle, sparse.hooks);
        }
        expectSameOutcome(dense, sparse);
        EXPECT_TRUE(sparse.subs.checkInvariants(sparse.window));
    }
}

TEST(SparseSweepTest, InvalSchemesMatchDense)
{
    for (int in = 0; in < 3; ++in) {
        SCOPED_TRACE("inval scheme " + std::to_string(in));
        const auto policy = makeInvalPolicy(static_cast<InvalScheme>(in));
        ChainFixture dense, sparse;

        std::uint64_t cycle = 10;
        bool more_d = true, more_s = true;
        while (more_d || more_s) {
            more_d = policy->apply(dense.ref(), dense.window[0], cycle,
                                   dense.hooks);
            more_s = policy->apply(sparse.sparseRef(), sparse.window[0],
                                   cycle, sparse.hooks);
            ASSERT_EQ(more_d, more_s);
            // Mirror the core's nullification side effects on both
            // fixtures between wave steps, as the hierarchical dense
            // test does.
            for (ChainFixture *f : {&dense, &sparse}) {
                for (int slot : f->hooks.nullified) {
                    RsEntry<kBits> &e =
                        f->window[static_cast<std::size_t>(slot)];
                    e.executed = false;
                    e.issued = false;
                    e.outDeps.reset();
                }
            }
            ++cycle;
        }
        expectSameOutcome(dense, sparse);
        EXPECT_TRUE(sparse.subs.checkInvariants(sparse.window));
    }
}

TEST(SparseSweepTest, MemDepsClearedForSubscribedLoads)
{
    // A load that carries the prediction only through the LSQ
    // (memDeps) must still be visited by the sparse verify sweep.
    ChainFixture dense, sparse;
    for (ChainFixture *f : {&dense, &sparse}) {
        f->window[2].src[0].state = OperandState::Valid;
        f->window[2].src[0].deps.reset();
        f->window[2].outDeps.reset();
        f->window[2].memDeps.set(0);
    }
    const auto policy = makeVerifyPolicy(VerifyScheme::Flattened);
    policy->apply(dense.ref(), dense.window[0], 10, dense.hooks);
    policy->apply(sparse.sparseRef(), sparse.window[0], 10,
                  sparse.hooks);
    EXPECT_TRUE(sparse.window[2].memDeps.none());
    expectSameOutcome(dense, sparse);
}

// =====================================================================
// factory
// =====================================================================

TEST(PolicySetTest, FactoryBindsModelVariables)
{
    SpecModel m = SpecModel::greatModel();
    m.verifyScheme = VerifyScheme::Hybrid;
    m.invalScheme = InvalScheme::Complete;
    m.selectPolicy = SelectPolicy::OldestFirst;

    const PolicySet p = makePolicies(m);
    EXPECT_STREQ(p.verify->name(), "hybrid");
    EXPECT_STREQ(p.invalidate->name(), "complete");
    EXPECT_STREQ(p.select->name(), "oldest-first");
}

} // namespace
