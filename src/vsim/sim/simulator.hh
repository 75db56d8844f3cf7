/**
 * @file
 * High-level experiment driver: builds a workload, runs it through the
 * out-of-order core, and aggregates results the way the paper reports
 * them (harmonic-mean speedups over the benchmark suite, Fig. 3;
 * arithmetic-mean prediction-rate breakdowns, Fig. 4).
 */

#ifndef VSIM_SIM_SIMULATOR_HH
#define VSIM_SIM_SIMULATOR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "vsim/arch/functional_core.hh"
#include "vsim/assembler/program.hh"
#include "vsim/core/core_config.hh"
#include "vsim/core/core_stats.hh"
#include "vsim/core/spec_model.hh"
#include "vsim/obs/interval.hh"
#include "vsim/obs/ledger.hh"

namespace vsim::core
{
struct SimOutcome; // ooo_core.hh
} // namespace vsim::core

namespace vsim::sim
{

/** One of the paper's three machine sizes (issue width / window). */
struct MachineConfig
{
    int issueWidth;
    int windowSize;

    std::string
    label() const
    {
        return std::to_string(issueWidth) + "/"
               + std::to_string(windowSize);
    }
};

/** The paper's §6 configurations: 4/24, 8/48 and 16/96. */
std::vector<MachineConfig> paperMachines();

/** Base-processor configuration (no value prediction). */
core::CoreConfig baseConfig(const MachineConfig &m);

/**
 * Value-speculation configuration for a machine size, speculative
 * execution model, confidence mode and predictor update timing
 * (paper notation: D/R, I/R, D/O, I/O).
 */
core::CoreConfig vpConfig(const MachineConfig &m,
                          const core::SpecModel &model,
                          core::ConfidenceKind confidence,
                          core::UpdateTiming timing);

/** Short label for a confidence/timing pair, e.g. "D/R". */
std::string timingConfLabel(core::UpdateTiming timing,
                            core::ConfidenceKind confidence);

/** Result of one simulation run. */
struct RunResult
{
    std::string workload;
    core::CoreStats stats;
    std::uint64_t instructions = 0; //!< committed instructions
    double ipc = 0.0;
    std::uint64_t exitCode = 0;
    std::string output; //!< anything the program printed
    /** Interval time series (empty unless cfg.metricsInterval). */
    obs::IntervalSeries intervals;
    /** Per-prediction lifecycle records (empty unless cfg.specLedger). */
    obs::SpecLedger ledger;
};

/**
 * The RunResult of one core run of @p workload: its statistics, exit
 * code and output as @p out has them. Every unsharded run, through
 * runWorkload or on a core of its own, reports through here.
 */
RunResult makeRunResult(const std::string &workload,
                        const core::SimOutcome &out);

/**
 * Workload names with this prefix are trace replays: the rest of the
 * name is a .vst file path (see vsim/trace). Such runs skip the
 * assembler and the functional pre-execution entirely; scale is
 * ignored (the trace fixes the dynamic instruction stream).
 */
constexpr const char kTraceWorkloadPrefix[] = "trace:";

/** True when @p name names a recorded trace, not a built-in kernel. */
bool isTraceWorkload(const std::string &name);

/** "trace:<path>" for @p path (the workload name of a trace replay). */
std::string traceWorkloadName(const std::string &path);

/** The .vst path behind a trace workload name. */
std::string traceWorkloadPath(const std::string &name);

/**
 * A workload's program and its oracle trace: a built-in kernel,
 * assembled and pre-executed, or a recording loaded from a .vst file.
 */
struct BuiltKernel
{
    assembler::Program program;
    arch::ExecTrace trace; //!< the oracle trace of `program`
};

/** @p program with its oracle trace, pre-executed on the functional core. */
std::shared_ptr<const BuiltKernel> buildKernel(assembler::Program program);

/**
 * Kernel @p name at @p scale, shared among the runs alive at once:
 * while any holder keeps the result, a request for the same
 * (name, scale) returns the same object instead of assembling and
 * pre-executing again. The memo holds only weak references, so a
 * kernel is freed with its last holder and the next request builds it
 * afresh. Thread-safe; concurrent first requests build once.
 */
std::shared_ptr<const BuiltKernel> sharedKernel(const std::string &name,
                                                int scale);

/**
 * Kernels sharedKernel() has built (assembled and pre-executed) in
 * this process so far, failed builds excluded. Read-only; tests use
 * it to count builds per sweep.
 */
std::uint64_t sharedKernelBuilds();

/**
 * The program and oracle trace behind workload @p name: the shared
 * built-in kernel (sharedKernel), or a "trace:<path>" recording loaded
 * for this caller alone, on @p load_workers (trace::loadTrace). Every
 * run, sharded and sampled ones included, takes its kernel from here.
 */
std::shared_ptr<const BuiltKernel> workloadKernel(const std::string &name,
                                                  int scale,
                                                  int load_workers = 1);

/**
 * Build workload @p name at @p scale (-1 = default) and run it under
 * @p cfg. Correctness against the functional model is enforced inside
 * the core. A "trace:<path>" name replays the recorded trace instead
 * of building a kernel.
 */
RunResult runWorkload(const std::string &name, int scale,
                      const core::CoreConfig &cfg);

/**
 * Speedup of @p vp over @p base (cycles ratio); both runs must be of
 * the same workload and scale.
 */
double speedup(const RunResult &base, const RunResult &vp);

} // namespace vsim::sim

#endif // VSIM_SIM_SIMULATOR_HH
