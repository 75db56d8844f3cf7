/**
 * @file
 * vspec-run: command-line driver for the cycle-level simulator. Runs
 * a built-in workload or a VRISC assembly file on a configurable
 * machine, with or without value speculation, and prints the full
 * statistics block. Workload runs go through the sweep engine's
 * process-wide run cache, so repeated configurations inside one
 * invocation are simulated once.
 *
 *   vspec-run --workload m88k --model great --conf real --timing D
 *   vspec-run --asm prog.s --width 16 --window 96 --model super
 *   vspec-run --trace queens.vst --window 512     # replay a recording
 *   vspec-run --workload queens --base --pipeline # pipeline diagram
 *   vspec-run --workload queens --json run.json   # or --json to stdout
 */

#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>

#include "cli.hh"
#include "vsim/base/logging.hh"
#include "vsim/core/ooo_core.hh"
#include "vsim/obs/cpi.hh"
#include "vsim/obs/interval.hh"
#include "vsim/obs/trace_export.hh"
#include "vsim/sim/report.hh"
#include "vsim/sim/shard.hh"
#include "vsim/sim/simulator.hh"
#include "vsim/sim/sweep.hh"

int
main(int argc, char **argv)
{
    using namespace vsim;
    const cli::Parsed args(cli::Run, argc, argv);

    const std::string asm_file = args.text("--asm");
    const std::string trace_file = args.text("--trace");
    std::string workload = args.text("--workload");
    if (workload.empty() + asm_file.empty() + trace_file.empty() != 2)
        args.usage();
    if (!trace_file.empty())
        workload = sim::traceWorkloadName(trace_file);
    const int scale = static_cast<int>(args.count("--scale", -1));
    core::CoreConfig cfg;
    args.edit(cfg);
    const cli::DiskCache disk = cli::checkRunRules(args, cfg);
    const bool sharded = sim::shardingRequested(cfg)
                         || sim::samplingRequested(cfg);
    if (sharded && !asm_file.empty())
        args.fail("sharded/sampled runs support --workload and --trace "
                  "only, not --asm");
    if (sharded && cfg.tracePipeline)
        args.fail("pipeline tracing needs a single monolithic core; drop "
                  "--shards/--interval-insts/--sample");
    const bool progress = args.has("--progress");

    try {
        sim::RunResult r;
        std::string pipeline_text;
        obs::TraceWriter trace_writer;

        if (asm_file.empty() && !cfg.tracePipeline) {
            // Workload and trace-replay runs go through the sweep
            // engine's run cache, driven by a single-job SweepRunner
            // so --progress shares the sweep machinery (results are
            // identical either way).
            disk.attach();
            sim::SweepJob job;
            job.label = sim::configLabel(cfg);
            job.workload = workload;
            job.scale = scale;
            job.cfg = cfg;
            sim::SweepRunner runner(1, &sim::RunCache::process());
            runner.setProgress(progress);
            r = runner.run({job}).front();
        } else {
            // A core of its own, for its pipeline tracer or for a
            // program assembled here.
            const std::shared_ptr<const sim::BuiltKernel> kernel =
                asm_file.empty()
                    ? sim::workloadKernel(workload, scale)
                    : sim::buildKernel(cli::assembleFile(asm_file));
            core::OooCore core(
                kernel->program,
                std::shared_ptr<const arch::ExecTrace>(kernel,
                                                       &kernel->trace),
                cfg);
            r = sim::makeRunResult(asm_file.empty() ? workload : asm_file,
                                   core.run());
            if (const std::string w = args.text("--pipeline"); !w.empty()) {
                pipeline_text = core.tracer().render(
                    args.count("--pipeline", 0),
                    *cli::parseCount(w.substr(w.find(':') + 1)));
            } else if (args.has("--pipeline")) {
                pipeline_text = core.tracer().render(0, 200);
            }
            if (args.has("--trace-json"))
                core.tracer().exportTo(trace_writer);
            if (progress)
                logLine("[1/1] " + sim::configLabel(cfg) + " ("
                        + r.workload + ")");
        }
        const core::CoreStats &s = r.stats;

        if (const std::string path = args.text("--metrics"); !path.empty()) {
            std::ostringstream csv;
            csv << obs::IntervalSeries::csvHeader("");
            r.intervals.appendCsv(csv, "");
            sim::writeFile(path, csv.str());
        }
        if (const std::string path = args.text("--counters"); !path.empty())
            sim::writeFile(path, sim::countersJson(r) + "\n");
        if (const std::string path = args.text("--stacks"); !path.empty())
            sim::writeFile(path, sim::stacksJson(r) + "\n");
        if (const std::string path = args.text("--ledger"); !path.empty()) {
            const std::size_t limit = args.count("--ledger-limit", 0);
            sim::writeFile(path, sim::ledgerJson(r, limit) + "\n");
        }
        if (const std::string path = args.text("--trace-json");
            !path.empty()) {
            // Overlay the interval IPC and the per-interval CPI stack
            // as Perfetto counter tracks.
            for (const obs::IntervalSample &iv : r.intervals.samples) {
                trace_writer.counter(
                    "ipc", iv.cycleStart, 1,
                    {{"ipc", obs::TraceWriter::num(iv.ipc())}});
                obs::TraceWriter::Args cpi_args;
                for (std::size_t c = 0; c < obs::kCpiCatCount; ++c) {
                    cpi_args.emplace_back(
                        obs::cpiCatName(static_cast<obs::CpiCat>(c)),
                        obs::TraceWriter::num(iv.cpi.cycles[c]));
                }
                trace_writer.counter("cpi_stack", iv.cycleStart, 1,
                                     std::move(cpi_args));
            }
            sim::writeFile(path, trace_writer.toJson() + "\n");
        }

        if (args.has("--json")) {
            const std::string js = sim::toJson(r) + "\n";
            if (const std::string path = args.text("--json"); path.empty())
                std::printf("%s", js.c_str());
            else
                sim::writeFile(path, js);
            return 0;
        }

        if (!r.output.empty())
            std::printf("program output: %s\n", r.output.c_str());
        std::printf("exit code      : %llu\n",
                    static_cast<unsigned long long>(r.exitCode));
        std::printf("cycles         : %llu\n",
                    static_cast<unsigned long long>(s.cycles));
        std::printf("instructions   : %llu (IPC %.3f)\n",
                    static_cast<unsigned long long>(s.retired),
                    s.ipc());
        std::printf("loads/stores   : %llu / %llu (%llu forwarded)\n",
                    static_cast<unsigned long long>(s.retiredLoads),
                    static_cast<unsigned long long>(s.retiredStores),
                    static_cast<unsigned long long>(s.loadsForwarded));
        std::printf("cond branches  : %llu (%.2f%% mispredicted)\n",
                    static_cast<unsigned long long>(s.condBranches),
                    s.condBranches
                        ? 100.0
                              * static_cast<double>(s.condMispredicts)
                              / static_cast<double>(s.condBranches)
                        : 0.0);
        std::printf("cache misses   : %llu icache, %llu dcache\n",
                    static_cast<unsigned long long>(s.icacheMisses),
                    static_cast<unsigned long long>(s.dcacheMisses));
        if (cfg.useValuePrediction) {
            std::printf(
                "value pred     : %llu eligible, accuracy %.1f%% "
                "(CH %llu CL %llu IH %llu IL %llu)\n",
                static_cast<unsigned long long>(s.vpEligible),
                100.0 * s.predictionAccuracy(),
                static_cast<unsigned long long>(s.vpCH),
                static_cast<unsigned long long>(s.vpCL),
                static_cast<unsigned long long>(s.vpIH),
                static_cast<unsigned long long>(s.vpIL));
            std::printf(
                "speculation    : %llu verified, %llu invalidated, "
                "%llu nullified, %llu reissued\n",
                static_cast<unsigned long long>(s.verifyEvents),
                static_cast<unsigned long long>(s.invalidateEvents),
                static_cast<unsigned long long>(s.nullifications),
                static_cast<unsigned long long>(s.reissues));
        }
        if (args.has("--stacks") && args.text("--stacks").empty())
            std::printf("\n%s", sim::stacksText(r).c_str());
        if (args.has("--counters") && args.text("--counters").empty())
            std::printf("\n%s", sim::countersText(r).c_str());
        if (args.has("--pipeline"))
            std::printf("\n%s", pipeline_text.c_str());
        return 0;
    } catch (const FatalError &err) {
        std::fprintf(stderr, "error: %s\n", err.what());
        return 1;
    }
}
