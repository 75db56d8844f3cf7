/**
 * @file
 * Small statistics helpers used across the simulator and the
 * experiment harnesses: counters with ratio helpers, running means
 * (arithmetic and harmonic, matching the paper's reporting rules),
 * and fixed-width table formatting.
 *
 * The paper (§5.1) computes *speedups* with the harmonic mean and
 * *prediction rates* with the arithmetic mean; both are provided here
 * so benches cannot silently pick the wrong one.
 */

#ifndef VSIM_BASE_STATS_HH
#define VSIM_BASE_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "state_io.hh"

namespace vsim
{

/** Arithmetic mean of a sample set; 0 for an empty set. */
double arithmeticMean(const std::vector<double> &xs);

/**
 * Harmonic mean of a sample set; NaN for an empty set (an empty
 * speedup table is a bug in the caller, and NaN is loud where a
 * silent 0 looked like a measurement). All samples must be strictly
 * positive — zero or negative samples panic.
 */
double harmonicMean(const std::vector<double> &xs);

/** Geometric mean of a sample set; 0 for an empty set. */
double geometricMean(const std::vector<double> &xs);

/**
 * Simple two-valued counter recording occurrences of an event and of
 * the subset that "hit" (predicted correctly, cache hit, ...).
 */
class RatioStat
{
  public:
    void
    record(bool hit)
    {
        ++total_;
        if (hit)
            ++hits_;
    }

    std::uint64_t total() const { return total_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return total_ - hits_; }

    /** Hit fraction in [0,1]; 0 when no events were recorded. */
    double
    ratio() const
    {
        return total_ == 0 ? 0.0
                           : static_cast<double>(hits_)
                                 / static_cast<double>(total_);
    }

    void
    reset()
    {
        total_ = 0;
        hits_ = 0;
    }

    /** Checkpoint both counters (SimSnapshot round trips). */
    void
    save(StateWriter &w) const
    {
        w.u64(total_);
        w.u64(hits_);
    }

    void
    restore(StateReader &r)
    {
        total_ = r.u64();
        hits_ = r.u64();
    }

  private:
    std::uint64_t total_ = 0;
    std::uint64_t hits_ = 0;
};

/**
 * Fixed-width text table builder used by every tool and figure so the
 * reproduced tables and figures share one formatting style.
 */
class TextTable
{
  public:
    /** Define the column headers; call once before any addRow. */
    void setHeader(std::vector<std::string> names);

    void addRow(std::vector<std::string> cells);

    /** Render with column alignment and a header separator line. */
    std::string render() const;

    /**
     * Format helper: fixed-point double with @p digits decimals.
     * Non-finite values (NaN/inf from empty or zero-denominator
     * statistics) render as "n/a".
     */
    static std::string fmt(double value, int digits = 3);

  private:
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;
};

} // namespace vsim

#endif // VSIM_BASE_STATS_HH
