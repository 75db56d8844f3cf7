/**
 * @file
 * Checkpointable simulation state.
 *
 * A SimSnapshot captures everything a detailed core needs to begin
 * simulating mid-trace: the architected state (registers, PC,
 * committed memory) plus the trained microarchitectural tables
 * (branch predictor, value predictor, confidence counters, cache
 * tags/LRU). Snapshots are produced by a fast functional-warmup pass
 * (functionalWarmup) that executes the program in order, training the
 * predictors and caches from the retired instruction stream, and
 * serializing the machine every time it crosses a requested
 * instruction boundary. Each snapshot is handed to a sink the moment
 * it is minted, so a caller can start a detailed core on it while the
 * pass runs on towards the next boundary (the shard runner does).
 *
 * Warmup fidelity: the functional pass trains tables from the
 * *correct-path* stream only — no wrong-path fetches pollute the
 * caches or branch history, and the value predictor is trained
 * in order at "retire" rather than with the core's exact
 * dispatch/retire interleaving. A core started from a snapshot is
 * therefore an approximation of the mid-flight detailed machine; the
 * shard runner (vsim/sim/shard.hh) quantifies the resulting error and
 * the W=inf (full warmup) path never consumes these tables at all, so
 * its merges are exact. See DESIGN.md "Checkpointing and sharded
 * simulation".
 */

#ifndef VSIM_CORE_SNAPSHOT_HH
#define VSIM_CORE_SNAPSHOT_HH

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "core_config.hh"
#include "vsim/arch/functional_core.hh"
#include "vsim/assembler/program.hh"
#include "vsim/base/state_io.hh"
#include "vsim/isa/isa.hh"
#include "vsim/mem/mem_image.hh"

namespace vsim::core
{

/** Complete restart state at one retired-instruction boundary. */
struct SimSnapshot
{
    /** Number of instructions retired before this point; the next
     *  instruction the restored core fetches is trace entry
     *  instIndex. */
    std::uint64_t instIndex = 0;
    std::uint64_t pc = 0; //!< fetch PC at the boundary
    std::array<std::uint64_t, isa::kNumRegs> regs{};
    mem::MemImage memory; //!< committed memory at the boundary

    /**
     * Serialized microarchitectural tables, in fixed order: branch
     * predictor, value predictor, confidence table, L2 cache, L1I,
     * L1D. Each component writes a section tag, so restoring into a
     * machine of different geometry fails loudly.
     */
    std::vector<std::uint8_t> tables;

    /** Serialize the whole snapshot to a deterministic byte stream. */
    std::vector<std::uint8_t> toBytes() const;
    /** Rebuild a snapshot from toBytes() output. */
    static SimSnapshot fromBytes(const std::vector<std::uint8_t> &bytes);

    bool operator==(const SimSnapshot &) const;
};

/** Receives each snapshot of a warmup pass, in point order. */
using SnapshotSink = std::function<void(SimSnapshot)>;

/**
 * Fast functional-warmup pass: execute @p prog in order, training the
 * predictor/cache structures that @p cfg describes from the retired
 * stream, and capture a SimSnapshot at every boundary in @p points
 * (sorted ascending, each <= trace length; a point equal to the trace
 * length snapshots the final state). Each snapshot goes to @p sink as
 * soon as it is captured, on the caller's thread, and the pass stops
 * after the last point. The pass asserts its PC stream matches
 * @p trace, so a stale recorded trace cannot silently produce
 * snapshots of a different execution.
 */
void functionalWarmup(const assembler::Program &prog,
                      const arch::ExecTrace &trace, const CoreConfig &cfg,
                      const std::vector<std::uint64_t> &points,
                      const SnapshotSink &sink);

/** The same pass, collecting the snapshots in point order. */
std::vector<SimSnapshot> functionalWarmup(
    const assembler::Program &prog, const arch::ExecTrace &trace,
    const CoreConfig &cfg, const std::vector<std::uint64_t> &points);

} // namespace vsim::core

#endif // VSIM_CORE_SNAPSHOT_HH
