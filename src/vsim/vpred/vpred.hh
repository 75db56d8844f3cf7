/**
 * @file
 * Value predictors and confidence estimators.
 *
 * The paper's predictor (§5.2) is the two-level context-based (FCM)
 * predictor of Sazeides & Smith: a 64K-entry direct-mapped history
 * table indexed by PC holding a hashed context of the last 4 values,
 * and a 64K-entry prediction table indexed by that context whose
 * entries carry a 1-bit replacement counter.
 *
 * Update timing is driven by the caller to support the paper's two
 * schemes:
 *  - immediate (I): after predicting, call pushHistory(pc, actual) and
 *    updateTable(pc, token, actual) right away;
 *  - delayed (D): after predicting, call pushHistory(pc, predicted)
 *    (speculative history update, exactly as §5.2 prescribes), then at
 *    retirement call updateTable(pc, token, actual) and
 *    commitHistory(pc, actual, correct). commitHistory maintains the
 *    architectural (retired-values) history and, on a misprediction,
 *    repairs the speculative history from it — the value-prediction
 *    analogue of squashing speculative branch history; without the
 *    repair a polluted history never resynchronises with the real
 *    value stream.
 *
 * Last-value, stride and hybrid predictors are extensions used by the
 * ablation benches.
 */

#ifndef VSIM_VPRED_VPRED_HH
#define VSIM_VPRED_VPRED_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "vsim/base/state_io.hh"

namespace vsim::vpred
{

/** A value prediction plus the opaque state needed to update later. */
struct Prediction
{
    std::uint64_t value = 0;

    /**
     * Predictor-private cookie captured at prediction time (e.g. the
     * FCM level-2 index); must be passed back to updateTable().
     */
    std::uint64_t token = 0;
};

class ValuePredictor
{
  public:
    virtual ~ValuePredictor() = default;

    /** Predict the result of the instruction at @p pc (read-only). */
    virtual Prediction predict(std::uint64_t pc) = 0;

    /** Advance the first-level history for @p pc with @p value. */
    virtual void pushHistory(std::uint64_t pc, std::uint64_t value) = 0;

    /** Train the prediction table with the resolved @p actual value. */
    virtual void updateTable(std::uint64_t pc, std::uint64_t token,
                             std::uint64_t actual) = 0;

    /**
     * Record the retired @p actual value in the architectural history
     * and repair the speculative history when the prediction for this
     * instance was incorrect. No-op for history-less predictors.
     */
    virtual void
    commitHistory(std::uint64_t pc, std::uint64_t actual, bool correct)
    {
        (void)pc;
        (void)actual;
        (void)correct;
    }

    virtual std::string name() const = 0;

    /**
     * Checkpoint the predictor's training state (history tables,
     * prediction tables, chooser/ring state) / rebuild it. The
     * restoring predictor must be the same kind with the same
     * geometry; section tags in the stream catch mismatches.
     */
    virtual void save(StateWriter &w) const = 0;
    virtual void restore(StateReader &r) = 0;
};

/** Sazeides/Smith order-4 finite-context-method predictor. */
class FcmPredictor : public ValuePredictor
{
  public:
    /**
     * @param l1_bits log2 of the history-table entry count (16 = 64K)
     * @param l2_bits log2 of the prediction-table entry count
     */
    explicit FcmPredictor(int l1_bits = 16, int l2_bits = 16);

    Prediction predict(std::uint64_t pc) override;
    void pushHistory(std::uint64_t pc, std::uint64_t value) override;
    void updateTable(std::uint64_t pc, std::uint64_t token,
                     std::uint64_t actual) override;
    void commitHistory(std::uint64_t pc, std::uint64_t actual,
                       bool correct) override;
    std::string name() const override { return "fcm"; }
    void save(StateWriter &w) const override;
    void restore(StateReader &r) override;

  private:
    struct HistEntry
    {
        /** Hashed values of the 4 most recent results, oldest first. */
        std::uint16_t vhash[4] = {0, 0, 0, 0};

        void
        push(std::uint16_t h)
        {
            vhash[0] = vhash[1];
            vhash[1] = vhash[2];
            vhash[2] = vhash[3];
            vhash[3] = h;
        }
    };

    struct PredEntry
    {
        std::uint64_t value = 0;
        std::uint8_t counter = 0; //!< 1-bit replacement counter
    };

    std::size_t l1Index(std::uint64_t pc) const;
    std::size_t context(const HistEntry &entry) const;
    static std::uint16_t valueHash(std::uint64_t value);

    int l1Bits;
    int l2Bits;
    std::vector<HistEntry> history;   //!< speculative history
    std::vector<HistEntry> committed; //!< retired-values history
    std::vector<PredEntry> table;
};

/** Predicts the previous value of the same static instruction. */
class LastValuePredictor : public ValuePredictor
{
  public:
    explicit LastValuePredictor(int table_bits = 16);

    Prediction predict(std::uint64_t pc) override;
    void pushHistory(std::uint64_t, std::uint64_t) override {}
    void updateTable(std::uint64_t pc, std::uint64_t token,
                     std::uint64_t actual) override;
    std::string name() const override { return "last-value"; }
    void save(StateWriter &w) const override;
    void restore(StateReader &r) override;

  private:
    int tableBits;
    std::vector<std::uint64_t> table;
};

/** Classic 2-delta stride predictor. */
class StridePredictor : public ValuePredictor
{
  public:
    explicit StridePredictor(int table_bits = 16);

    Prediction predict(std::uint64_t pc) override;
    void pushHistory(std::uint64_t, std::uint64_t) override {}
    void updateTable(std::uint64_t pc, std::uint64_t token,
                     std::uint64_t actual) override;
    std::string name() const override { return "stride"; }
    void save(StateWriter &w) const override;
    void restore(StateReader &r) override;

  private:
    struct Entry
    {
        std::uint64_t last = 0;
        std::int64_t stride = 0;
        std::int64_t lastDelta = 0;
    };

    int tableBits;
    std::vector<Entry> table;
};

/** FCM/stride hybrid with a per-PC 2-bit chooser. */
class HybridPredictor : public ValuePredictor
{
  public:
    explicit HybridPredictor(int table_bits = 16);

    Prediction predict(std::uint64_t pc) override;
    void pushHistory(std::uint64_t pc, std::uint64_t value) override;
    void updateTable(std::uint64_t pc, std::uint64_t token,
                     std::uint64_t actual) override;
    void
    commitHistory(std::uint64_t pc, std::uint64_t actual,
                  bool correct) override
    {
        fcm.commitHistory(pc, actual, correct);
    }
    std::string name() const override { return "hybrid"; }
    void save(StateWriter &w) const override;
    void restore(StateReader &r) override;

  private:
    /**
     * Both components' predictions captured at predict() time so the
     * chooser can be scored at updateTable() time even with many
     * predictions outstanding (tokens index this ring).
     */
    struct Outstanding
    {
        std::uint64_t fcmToken = 0;
        std::uint64_t fcmValue = 0;
        std::uint64_t strideValue = 0;
    };

    static constexpr std::size_t kRingSize = 4096;

    FcmPredictor fcm;
    StridePredictor stride;
    int tableBits;
    std::vector<std::uint8_t> chooser; //!< >=2 prefers FCM
    std::vector<Outstanding> ring{kRingSize};
    std::uint64_t ringNext = 0;
};

/** The predictors makeValuePredictor builds, by name. */
const std::vector<std::string> &valuePredictorNames();

/** Factory: one of valuePredictorNames(). */
std::unique_ptr<ValuePredictor> makeValuePredictor(
    const std::string &kind);

// ---------------------------------------------------------------------
// Confidence estimation (paper §3.6 / §5.2)
// ---------------------------------------------------------------------

class ConfidenceEstimator
{
  public:
    virtual ~ConfidenceEstimator() = default;

    /** Should the prediction for @p pc drive speculation? */
    virtual bool confident(std::uint64_t pc) const = 0;

    /** Record the outcome of a completed prediction for @p pc. */
    virtual void update(std::uint64_t pc, bool correct) = 0;

    virtual std::string name() const = 0;
};

/**
 * PC-indexed table of resetting counters: +1 on a correct prediction
 * (saturating), reset to 0 on an incorrect one; confident only at the
 * maximum count. The paper uses 64K entries of 3-bit counters.
 */
class ResettingConfidence : public ConfidenceEstimator
{
  public:
    explicit ResettingConfidence(int counter_bits = 3,
                                 int table_bits = 16,
                                 int threshold = -1);

    bool confident(std::uint64_t pc) const override;
    void update(std::uint64_t pc, bool correct) override;
    std::string name() const override { return "resetting"; }

    /** Checkpoint the counter table (SimSnapshot round trips). */
    void save(StateWriter &w) const;
    void restore(StateReader &r);

  private:
    int maxCount;
    int threshold; //!< confident when counter >= threshold
    int tableBits;
    std::vector<std::uint8_t> table;
};

/** Always confident — maximal speculation (stress configurations). */
class AlwaysConfident : public ConfidenceEstimator
{
  public:
    bool confident(std::uint64_t) const override { return true; }
    void update(std::uint64_t, bool) override {}
    std::string name() const override { return "always"; }
};

} // namespace vsim::vpred

#endif // VSIM_VPRED_VPRED_HH
