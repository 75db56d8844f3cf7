/**
 * @file
 * Sharded interval simulation: cut one workload's dynamic instruction
 * stream into N intervals and simulate them as independent shards on
 * a worker pool, then merge the per-shard statistics into a single
 * RunResult.
 *
 * Each shard covers the retired instructions [start, stop) of the
 * oracle trace. The shard's core begins detailed simulation at
 * warmStart = max(start - W, 0) — from a functional-warmup
 * SimSnapshot when warmStart > 0, from the program's initial state
 * otherwise — runs a discarded warmup prefix until `start`
 * instructions have retired, then counts statistics until `stop`.
 *
 * Schedule: one functional-warmup pass on the caller's thread mints
 * every snapshot in trace order. On a pool (more than one worker),
 * shards starting at instruction 0 are submitted at once and every
 * other shard the moment its snapshot is minted, so `--jobs N` runs N
 * detailed cores beside the warmup thread; once the warmup ends, the
 * caller runs the shards still queued beside the workers. With one
 * worker the warmup runs first and the shards then run in order.
 * Results are merged by shard index, so the schedule never shows in a
 * result, and each snapshot is freed once the last core starting from
 * it has restored it.
 *
 * Exactness (documented error bounds in DESIGN.md):
 *
 *  - W = UINT64_MAX (full warmup, the default): every shard replays
 *    from instruction 0, so shard i's machine state at its stats cut
 *    is bit-identical to the monolithic machine at that point. The
 *    cut opens at the END of the cycle in which the retired count
 *    crosses `start`, which is the same cycle at which shard i-1
 *    stops — the shards partition the monolithic cycle stream
 *    exactly, and merged CoreStats / CPI stacks / histograms /
 *    ledger records are bit-identical to the monolithic run for any
 *    shard count. Wall-clock: the *total* simulated work is the
 *    arithmetic series (~N/2 times the monolithic work), but the
 *    critical path — what an N-core run waits for — is the longest
 *    single shard, i.e. the full replay of the last shard, so full
 *    warmup buys exactness, not speed.
 *
 *  - finite W: shards start from functional-warmup snapshots, whose
 *    tables were trained on the correct path only (no wrong-path
 *    pollution) and whose pipeline starts empty, so per-shard cycle
 *    counts deviate near interval boundaries. Total simulated work is
 *    len + N*W instructions and the critical path is ~len/N + W: this
 *    is the fast mode. The error shrinks with W; scripts/check.sh
 *    gates the harmonic-mean speedup error at <= 1% for the default
 *    configuration.
 *
 * Interval series and ledger records are rebased onto a merged
 * timeline (shard-local cycles minus the shard's cut cycle, plus the
 * sum of earlier shards' counted cycles); at full warmup this rebase
 * is the identity. Two seam mechanisms make the detailed artifacts
 * exact there too: the core flushes interval samples on absolute
 * period boundaries, so the merge can coalesce the two halves of an
 * interval split by a shard boundary back into one sample; and a
 * shard keeps the resolved form of predictions made before its cut,
 * which the merge patches over the previous shard's unresolved seam
 * records by sequence number. At finite W the seam records stay
 * unresolved (shard-local seq streams are incomparable) — a
 * documented approximation.
 */

#ifndef VSIM_SIM_SHARD_HH
#define VSIM_SIM_SHARD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "simulator.hh"
#include "vsim/core/core_config.hh"

namespace vsim::sim
{

/** Boundaries of one shard, in absolute trace instruction indices. */
struct ShardPlan
{
    std::uint64_t warmStart = 0; //!< detailed simulation starts here
    std::uint64_t start = 0;     //!< counted window starts here
    std::uint64_t stop = 0;      //!< counted window ends here (excl.)

    bool operator==(const ShardPlan &) const = default;
};

/** True when @p cfg asks for sharded execution. */
bool shardingRequested(const core::CoreConfig &cfg);

/** True when @p cfg asks for sampled (representative-interval) replay. */
bool samplingRequested(const core::CoreConfig &cfg);

/**
 * The partition/warmup rules, whichever path set the fields (CLI,
 * sweep jobs, tests): cfg.shards and cfg.intervalInsts are mutually
 * exclusive, sampling excludes both, a non-default cfg.warmupInsts
 * without sharding or sampling would be silently ignored, and
 * cfg.sampleIntervalInsts is meaningless without cfg.sampleK. Returns
 * a one-line diagnosis of the first rule @p cfg breaks, or "" when it
 * breaks none.
 */
std::string partitionError(const core::CoreConfig &cfg);

/** VSIM_FATAL with partitionError(cfg), when there is one. */
void validatePartition(const core::CoreConfig &cfg);

/**
 * Workers a run of @p cfg loads, digests and simulates on:
 * cfg.shardJobs (--jobs / --shard-jobs), or one per hardware thread
 * when that is 0.
 */
int shardWorkers(const core::CoreConfig &cfg);

/**
 * Partition a trace of @p len instructions per cfg.shards /
 * cfg.intervalInsts / cfg.warmupInsts (VSIM_FATAL when both partition
 * controls are set). Shard counts above @p len are clamped; the plan
 * covers [0, len) without gaps or overlap.
 */
std::vector<ShardPlan> planShards(std::uint64_t len,
                                  const core::CoreConfig &cfg);

/**
 * Executes one workload as a set of interval shards on a worker pool
 * (cfg.shardJobs workers) and merges the results. Used by
 * runWorkload() whenever shardingRequested(cfg) or
 * samplingRequested(cfg); the shard partition, warmup depth and
 * sampling controls live in the CoreConfig so the RunCache jobKey
 * covers them.
 *
 * Sampled mode (cfg.sampleK > 0, SimPoint-style): the trace is cut
 * into cfg.sampleIntervalInsts-length intervals, fingerprinted with
 * basic-block vectors (vsim/arch/bbv.hh) and clustered into at most
 * sampleK phases (vsim/sim/sample.hh); only one representative
 * interval per phase is simulated in detail — from a functional-warmup
 * snapshot — and its statistics are folded under the phase population
 * (CoreStats::mergeWeighted). The trailing interval is always its own
 * singleton phase, so the merged retired count matches the trace
 * length to within one retire group per interval boundary and the
 * final representative consumes the trace to its HALT.
 * Full warmup (warmupInsts == UINT64_MAX, the default) is reinterpreted
 * as one interval of warmup: replaying every representative from
 * instruction 0 would defeat sampling, and the jobKey still carries
 * the raw warmupInsts value, so the reinterpretation cannot alias two
 * different runs. Sampled statistics approximate the monolithic run;
 * scripts/check.sh gates the hmean-speedup error at <= 2%.
 */
class ShardRunner
{
  public:
    explicit ShardRunner(core::CoreConfig config);

    /** Simulate @p workload at @p scale sharded; merged RunResult. */
    RunResult run(const std::string &workload, int scale);

  private:
    core::CoreConfig cfg;
};

} // namespace vsim::sim

#endif // VSIM_SIM_SHARD_HH
