#include "simulator.hh"

#include <map>
#include <mutex>
#include <utility>

#include "shard.hh"
#include "vsim/base/logging.hh"
#include "vsim/core/ooo_core.hh"
#include "vsim/trace/trace_io.hh"
#include "vsim/workloads/workloads.hh"

namespace vsim::sim
{

std::vector<MachineConfig>
paperMachines()
{
    return {{4, 24}, {8, 48}, {16, 96}};
}

core::CoreConfig
baseConfig(const MachineConfig &m)
{
    core::CoreConfig cfg;
    cfg.issueWidth = m.issueWidth;
    cfg.windowSize = m.windowSize;
    cfg.useValuePrediction = false;
    return cfg;
}

core::CoreConfig
vpConfig(const MachineConfig &m, const core::SpecModel &model,
         core::ConfidenceKind confidence, core::UpdateTiming timing)
{
    core::CoreConfig cfg = baseConfig(m);
    cfg.useValuePrediction = true;
    cfg.model = model;
    cfg.confidence = confidence;
    cfg.updateTiming = timing;
    return cfg;
}

std::string
timingConfLabel(core::UpdateTiming timing, core::ConfidenceKind confidence)
{
    std::string label =
        timing == core::UpdateTiming::Delayed ? "D/" : "I/";
    switch (confidence) {
      case core::ConfidenceKind::Real: label += "R"; break;
      case core::ConfidenceKind::Oracle: label += "O"; break;
      case core::ConfidenceKind::Always: label += "A"; break;
    }
    return label;
}

bool
isTraceWorkload(const std::string &name)
{
    return name.rfind(kTraceWorkloadPrefix, 0) == 0;
}

std::string
traceWorkloadName(const std::string &path)
{
    return kTraceWorkloadPrefix + path;
}

std::string
traceWorkloadPath(const std::string &name)
{
    VSIM_ASSERT(isTraceWorkload(name), "not a trace workload: ", name);
    return name.substr(sizeof(kTraceWorkloadPrefix) - 1);
}

std::shared_ptr<const BuiltKernel>
sharedKernel(const std::string &name, int scale)
{
    struct Entry
    {
        std::mutex mutex; //!< guards kernel, held across its build
        std::weak_ptr<const BuiltKernel> kernel;
    };
    static std::mutex memoMutex;
    static std::map<std::pair<std::string, int>, Entry> memo;

    const workloads::Workload &w = workloads::byName(name);
    std::unique_lock<std::mutex> memo_lock(memoMutex);
    Entry &entry = memo[{name, scale}]; // map nodes never move
    memo_lock.unlock();
    // Per-key lock: a second request waits for the first build of its
    // own kernel, never for another kernel's.
    std::lock_guard<std::mutex> lock(entry.mutex);
    if (std::shared_ptr<const BuiltKernel> k = entry.kernel.lock())
        return k;
    auto k = std::make_shared<BuiltKernel>();
    k->program = workloads::buildProgram(w, scale);
    k->trace = arch::preExecute(k->program);
    entry.kernel = k;
    return k;
}

namespace
{

core::SimOutcome
simulate(const std::string &name, int scale,
         const core::CoreConfig &cfg)
{
    if (isTraceWorkload(name)) {
        trace::LoadedTrace loaded =
            trace::loadTrace(traceWorkloadPath(name));
        core::OooCore core(loaded.program, std::move(loaded.trace),
                           cfg);
        return core.run();
    }
    const std::shared_ptr<const BuiltKernel> k = sharedKernel(name, scale);
    // The core's trace handle shares ownership of the whole kernel.
    core::OooCore core(
        k->program, std::shared_ptr<const arch::ExecTrace>(k, &k->trace),
        cfg);
    return core.run();
}

} // namespace

RunResult
runWorkload(const std::string &name, int scale,
            const core::CoreConfig &cfg)
{
    validatePartition(cfg);
    if (shardingRequested(cfg) || samplingRequested(cfg)) {
        ShardRunner runner(cfg);
        return runner.run(name, scale);
    }
    const core::SimOutcome out = simulate(name, scale, cfg);
    VSIM_ASSERT(out.halted, "workload ", name,
                " did not finish within the cycle limit");

    RunResult r;
    r.workload = name;
    r.stats = out.stats;
    r.instructions = out.stats.retired;
    r.ipc = out.stats.ipc();
    r.exitCode = out.exitCode;
    r.output = out.output;
    r.intervals = out.intervals;
    r.ledger = out.ledger;
    return r;
}

double
speedup(const RunResult &base, const RunResult &vp)
{
    VSIM_ASSERT(base.workload == vp.workload,
                "speedup across different workloads");
    VSIM_ASSERT(base.stats.cycles > 0, "zero-cycle base run");
    VSIM_ASSERT(vp.stats.cycles > 0, "zero-cycle run");
    return static_cast<double>(base.stats.cycles)
           / static_cast<double>(vp.stats.cycles);
}

} // namespace vsim::sim
