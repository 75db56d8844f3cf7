/**
 * @file
 * Basic-block-vector (BBV) profiling of the correct-path instruction
 * stream — the fingerprinting half of SimPoint-style sampled
 * simulation (Sherwood et al., ASPLOS'02; applied here to the value-
 * speculation model space of Sazeides, HPCA'02).
 *
 * The dynamic trace is cut into fixed-length intervals of K
 * instructions. Within an interval, every retired instruction is
 * charged to the basic block it belongs to — a block is the run of
 * instructions from one control-transfer target to the next control
 * transfer (any taken-or-not branch/jump ends a block) — and the
 * per-block execution counts form the interval's vector. Block
 * identity is the block's dynamic start PC, hashed into a fixed
 * kBbvDim-dimensional projection so the vector size is independent of
 * program size (the random-projection trick from the SimPoint line of
 * work; collisions only ever make two intervals look more similar,
 * which is conservative for clustering).
 *
 * The vectors hold raw integer instruction counts — each interval's
 * components sum to exactly its instruction count — and the hash is a
 * fixed-constant mix, so profiles are bit-identical across hosts,
 * worker counts and repeat runs. Normalization happens later, in the
 * clusterer (vsim/sim/sample.hh), which is the only consumer that
 * wants scale-free shapes.
 *
 * The profile is computed from the recorded ExecTrace — the output of
 * the cheap correct-path pass (preExecute / trace replay) that sharded
 * and sampled simulation already materialize — so profiling adds one
 * linear walk over entries, no second functional execution.
 */

#ifndef VSIM_ARCH_BBV_HH
#define VSIM_ARCH_BBV_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "functional_core.hh"

namespace vsim::arch
{

/** Projected BBV dimension. Big enough that the handful of hot blocks
 *  of a phase rarely collide; small enough that k-means over tens of
 *  thousands of intervals stays cheap. */
inline constexpr std::size_t kBbvDim = 32;

/** One interval's basic-block vector: instruction counts per hashed
 *  block-ID bucket. Components sum to the interval's length. */
using Bbv = std::array<std::uint64_t, kBbvDim>;

/** Deterministic block-ID projection: SplitMix64 finalizer of the
 *  block's start PC, reduced mod kBbvDim. */
std::size_t bbvBucket(std::uint64_t block_start_pc);

/**
 * Incremental BBV profiler: feed retired instructions in trace order
 * via step(), read the finished per-interval vectors back from
 * intervals(). The accumulator rolls over to a new interval every
 * @p interval_insts instructions; finish() flushes the trailing
 * partial interval (if any).
 */
class BbvAccumulator
{
  public:
    explicit BbvAccumulator(std::uint64_t interval_insts);

    /** Account one retired instruction (in trace order). */
    void
    step(const TraceEntry &e)
    {
        if (newBlock)
            bucket = bbvBucket(e.pc);
        ++current[bucket];
        newBlock = e.inst.isControl();
        if (++fill == period) {
            intervals_.push_back(current);
            current = Bbv{};
            fill = 0;
        }
    }

    /** Start mid-block: charge the next instructions, up to the next
     *  control transfer, to the block that began at @p block_start_pc.
     *  Call before the first step(). */
    void resumeBlock(std::uint64_t block_start_pc);

    /** Flush the trailing partial interval, if any instructions are
     *  pending. Idempotent; step() must not be called afterwards. */
    void finish();

    /** Finished per-interval vectors, in trace order. */
    const std::vector<Bbv> &intervals() const { return intervals_; }

  private:
    std::uint64_t period;
    std::uint64_t fill = 0;
    std::size_t bucket = 0;
    bool newBlock = true; //!< next instruction starts a basic block
    Bbv current{};
    std::vector<Bbv> intervals_;
};

/**
 * Profile a whole recorded trace: one Bbv per @p interval_insts
 * instructions of @p trace (the last interval may be short). The
 * number of vectors is ceil(entries / K); an empty trace yields none.
 * @p workers profile contiguous ranges of intervals side by side, each
 * starting from the block in flight at its first instruction, so the
 * vectors are identical for any worker count; one worker starts no
 * thread.
 */
std::vector<Bbv> profileBbv(const ExecTrace &trace,
                            std::uint64_t interval_insts, int workers = 1);

} // namespace vsim::arch

#endif // VSIM_ARCH_BBV_HH
