/**
 * @file
 * Unit tests for value predictors and confidence estimators: FCM
 * context learning of repeating sequences, stride and last-value
 * behaviour, delayed-vs-immediate history updating, the 1-bit
 * replacement rule, and resetting-counter confidence.
 */

#include <gtest/gtest.h>

#include <vector>

#include "vsim/base/logging.hh"
#include "vsim/vpred/vpred.hh"

namespace
{

using namespace vsim::vpred;

/** Immediate-update convenience: predict then train with the truth. */
std::uint64_t
predictAndTrain(ValuePredictor &vp, std::uint64_t pc, std::uint64_t actual)
{
    const Prediction p = vp.predict(pc);
    vp.pushHistory(pc, actual);
    vp.updateTable(pc, p.token, actual);
    return p.value;
}

TEST(Fcm, LearnsRepeatingSequence)
{
    FcmPredictor vp(10, 10);
    const std::uint64_t pc = 0x1000;
    const std::vector<std::uint64_t> seq = {3, 1, 4, 1, 5, 9, 2, 6};

    // Warm up for several periods.
    for (int rep = 0; rep < 6; ++rep)
        for (std::uint64_t v : seq)
            predictAndTrain(vp, pc, v);

    // Now every prediction must be correct.
    for (int rep = 0; rep < 2; ++rep) {
        for (std::uint64_t v : seq)
            EXPECT_EQ(predictAndTrain(vp, pc, v), v);
    }
}

TEST(Fcm, SequenceLongerThanOrderStillLearned)
{
    // Period-8 sequence with repeated sub-patterns still resolves with
    // order-4 context as long as every 4-gram is unambiguous.
    FcmPredictor vp;
    const std::uint64_t pc = 0x40;
    const std::vector<std::uint64_t> seq = {7, 7, 1, 7, 7, 2, 7, 3};
    for (int rep = 0; rep < 8; ++rep)
        for (std::uint64_t v : seq)
            predictAndTrain(vp, pc, v);
    int correct = 0;
    for (std::uint64_t v : seq)
        correct += predictAndTrain(vp, pc, v) == v;
    EXPECT_EQ(correct, 8);
}

TEST(Fcm, CannotPredictFreshRandomStream)
{
    FcmPredictor vp;
    const std::uint64_t pc = 0x40;
    std::uint64_t x = 88172645463325252ull;
    int correct = 0;
    for (int i = 0; i < 200; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        correct += predictAndTrain(vp, pc, x) == x;
    }
    EXPECT_LT(correct, 10);
}

TEST(Fcm, OneBitReplacementGivesHysteresis)
{
    // Two interleaved instructions sharing one level-2 entry must not
    // thrash it immediately: the 1-bit counter lets the incumbent
    // survive a single conflicting update.
    FcmPredictor vp(4, 4); // tiny tables to force conflict
    const std::uint64_t pc = 0x8;

    // Saturate history on a constant so the context is stable.
    for (int i = 0; i < 8; ++i)
        predictAndTrain(vp, pc, 42);
    EXPECT_EQ(vp.predict(pc).value, 42u);

    // One conflicting update through the same context: value survives.
    const Prediction p = vp.predict(pc);
    vp.updateTable(pc, p.token, 999);
    EXPECT_EQ(vp.predict(pc).value, 42u);
    // A second conflicting update replaces it.
    vp.updateTable(pc, p.token, 999);
    EXPECT_EQ(vp.predict(pc).value, 999u);
}

TEST(Fcm, DelayedSpeculativeHistoryKeepsPredictingThroughLoop)
{
    // Delayed update (paper §5.2): at prediction time the history is
    // pushed with the *prediction*; the table trains later. For a
    // fully repeating value stream this must still predict correctly
    // once warmed up, because predictions equal actuals.
    FcmPredictor vp;
    const std::uint64_t pc = 0x100;
    const std::vector<std::uint64_t> seq = {10, 20, 30, 40};

    // Warm-up with immediate semantics.
    for (int rep = 0; rep < 6; ++rep)
        for (std::uint64_t v : seq)
            predictAndTrain(vp, pc, v);

    // Now simulate in-flight pipelining: push predictions speculatively,
    // train the table a full iteration later.
    struct Outstanding { std::uint64_t token, actual; };
    std::vector<Outstanding> inflight;
    int correct = 0;
    for (int rep = 0; rep < 4; ++rep) {
        for (std::uint64_t v : seq) {
            const Prediction p = vp.predict(pc);
            vp.pushHistory(pc, p.value); // speculative
            correct += p.value == v;
            inflight.push_back({p.token, v});
            if (inflight.size() > seq.size()) {
                vp.updateTable(pc, inflight.front().token,
                               inflight.front().actual);
                inflight.erase(inflight.begin());
            }
        }
    }
    EXPECT_EQ(correct, 16);
}

TEST(LastValue, PredictsConstantsOnly)
{
    LastValuePredictor vp;
    const std::uint64_t pc = 0x10;
    EXPECT_EQ(predictAndTrain(vp, pc, 5), 0u); // cold
    EXPECT_EQ(predictAndTrain(vp, pc, 5), 5u);
    EXPECT_EQ(predictAndTrain(vp, pc, 6), 5u); // wrong on change
    EXPECT_EQ(predictAndTrain(vp, pc, 6), 6u);
}

TEST(Stride, LearnsArithmeticSequence)
{
    StridePredictor vp;
    const std::uint64_t pc = 0x10;
    // 2-delta: needs two identical deltas before committing.
    predictAndTrain(vp, pc, 100);
    predictAndTrain(vp, pc, 104);
    predictAndTrain(vp, pc, 108);
    for (std::uint64_t v = 112; v < 160; v += 4)
        EXPECT_EQ(predictAndTrain(vp, pc, v), v);

    // A step of 2^62 crosses the sign boundary every other value, and
    // the sequence wraps past 2^64: deltas are taken modulo 2^64.
    const std::uint64_t wide_pc = 0x20;
    const std::uint64_t step = std::uint64_t{1} << 62;
    for (std::uint64_t i = 0; i < 3; ++i)
        predictAndTrain(vp, wide_pc, i * step);
    for (std::uint64_t i = 3; i < 8; ++i)
        EXPECT_EQ(predictAndTrain(vp, wide_pc, i * step), i * step) << i;
}

TEST(Stride, TwoDeltaFiltersOneOffJumps)
{
    StridePredictor vp;
    const std::uint64_t pc = 0x10;
    for (std::uint64_t v = 0; v < 40; v += 4)
        predictAndTrain(vp, pc, v);
    // One-off jump: the committed stride (4) must survive.
    predictAndTrain(vp, pc, 1000);
    EXPECT_EQ(vp.predict(pc).value, 1004u);
}

TEST(Hybrid, TracksBetterComponentPerPc)
{
    HybridPredictor vp(12);
    const std::uint64_t stride_pc = 0x20;
    const std::uint64_t repeat_pc = 0x5000; // distinct chooser slot

    // Train a strided stream (stride component's home turf) and a
    // repeating stream (FCM's home turf) continuously, then measure
    // the tail of the same schedule.
    int stride_ok = 0, repeat_ok = 0;
    for (int rep = 0; rep < 48; ++rep) {
        const std::uint64_t sv = 1000 + 8 * static_cast<unsigned>(rep);
        const std::uint64_t rv =
            static_cast<std::uint64_t>((rep % 3) + 7);
        const bool s_hit = predictAndTrain(vp, stride_pc, sv) == sv;
        const bool r_hit = predictAndTrain(vp, repeat_pc, rv) == rv;
        if (rep >= 36) {
            stride_ok += s_hit;
            repeat_ok += r_hit;
        }
    }
    EXPECT_GE(stride_ok, 11);
    EXPECT_GE(repeat_ok, 11);
}

TEST(Factory, MakesAllKindsAndRejectsUnknown)
{
    for (const char *kind : {"fcm", "last-value", "stride", "hybrid"})
        EXPECT_EQ(makeValuePredictor(kind)->name(), kind);
    EXPECT_THROW(makeValuePredictor("psychic"), vsim::FatalError);
}

// ---- confidence -------------------------------------------------------

TEST(Resetting, ConfidentOnlyAtSaturation)
{
    ResettingConfidence conf(3, 10); // max 7
    const std::uint64_t pc = 0x30;
    for (int i = 0; i < 6; ++i) {
        EXPECT_FALSE(conf.confident(pc)) << i;
        conf.update(pc, true);
    }
    EXPECT_FALSE(conf.confident(pc)); // count = 6
    conf.update(pc, true);            // count = 7
    EXPECT_TRUE(conf.confident(pc));
    conf.update(pc, true);            // saturates at 7
    EXPECT_TRUE(conf.confident(pc));
}

TEST(Resetting, IncorrectResetsToZero)
{
    ResettingConfidence conf(3, 10);
    const std::uint64_t pc = 0x30;
    for (int i = 0; i < 7; ++i)
        conf.update(pc, true);
    EXPECT_TRUE(conf.confident(pc));
    conf.update(pc, false);
    EXPECT_FALSE(conf.confident(pc));
    // Needs the full 7 correct predictions again.
    for (int i = 0; i < 6; ++i)
        conf.update(pc, true);
    EXPECT_FALSE(conf.confident(pc));
}

TEST(Resetting, CustomThreshold)
{
    ResettingConfidence conf(3, 10, 2);
    const std::uint64_t pc = 0x44;
    conf.update(pc, true);
    EXPECT_FALSE(conf.confident(pc));
    conf.update(pc, true);
    EXPECT_TRUE(conf.confident(pc));
}

TEST(Resetting, PcsAreIndependent)
{
    ResettingConfidence conf(1, 10); // 1-bit counters
    conf.update(0x100, true);
    EXPECT_TRUE(conf.confident(0x100));
    EXPECT_FALSE(conf.confident(0x104));
}

TEST(Always, AlwaysConfident)
{
    AlwaysConfident conf;
    EXPECT_TRUE(conf.confident(0x1234));
    conf.update(0x1234, false);
    EXPECT_TRUE(conf.confident(0x1234));
}

} // namespace
