/**
 * @file
 * vspec-sweep: run a named sweep from the command line on the
 * parallel sweep engine, and emit the results as a text table and/or
 * machine-readable JSON/CSV. The named sweeps are the paper's tables,
 * figures and ablations (see vsim/sim/figures.cc): the tool prints one
 * row per cell, a blank line, and then the table the paper shows.
 *
 *   vspec-sweep --list
 *   vspec-sweep fig3 --quick --jobs 8
 *   vspec-sweep confidence --json conf.json --csv conf.csv
 */

#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "cli.hh"
#include "vsim/base/logging.hh"
#include "vsim/base/stats.hh"
#include "vsim/sim/report.hh"
#include "vsim/sim/sweep.hh"

int
main(int argc, char **argv)
{
    using namespace vsim;
    const cli::Parsed args(cli::Sweep, argc, argv);
    if (args.has("--list")) {
        for (const auto &s : sim::namedSweeps())
            std::printf("%-16s %s\n", s.name.c_str(),
                        s.description.c_str());
        return 0;
    }
    const std::string name = args.text("NAME");
    if (name.empty())
        args.usage();
    sim::SweepOptions opt;
    opt.quick = args.has("--quick");
    opt.scale = static_cast<int>(args.count("--scale", -1));
    for (const std::string &path : args.texts("--trace"))
        opt.workloads.push_back(sim::traceWorkloadName(path));
    const int jobs = static_cast<int>(
        args.count("--jobs", sim::SweepRunner::defaultJobs()));
    // The shared rules read only fields every job's edits set alike.
    core::CoreConfig probe;
    args.edit(probe);
    const cli::DiskCache disk = cli::checkRunRules(args, probe);

    try {
        const sim::NamedSweep &spec = sim::sweepByName(name);
        std::vector<sim::SweepJob> sweep_jobs = spec.build(opt);
        // Every job takes the flags' edits, the model's only when it
        // speculates, so a base job keeps its jobKey. Machine edits
        // change what the builder's label describes, so they mark it.
        for (sim::SweepJob &job : sweep_jobs) {
            args.edit(job.cfg, job.cfg.useValuePrediction);
            job.label += args.marks();
        }
        disk.attach();
        // Spans are always collected: --json reports per-cell
        // wall-clock and simulation rate alongside the stats.
        std::vector<sim::JobSpan> spans;
        sim::SweepRunner runner(jobs);
        runner.setProgress(args.has("--progress"));
        runner.setSpanSink(&spans);
        const std::vector<sim::RunResult> results =
            runner.run(sweep_jobs);

        std::printf("== sweep %s: %zu runs (%d worker%s) ==\n\n",
                    spec.name.c_str(), sweep_jobs.size(), jobs,
                    jobs == 1 ? "" : "s");
        TextTable table;
        table.setHeader({"label", "workload", "cycles", "IPC",
                         "accuracy %"});
        for (std::size_t i = 0; i < sweep_jobs.size(); ++i) {
            const auto &r = results[i];
            table.addRow(
                {sweep_jobs[i].label, r.workload,
                 std::to_string(r.stats.cycles),
                 TextTable::fmt(r.ipc, 3),
                 sweep_jobs[i].cfg.useValuePrediction
                     ? TextTable::fmt(
                           100.0 * r.stats.predictionAccuracy(), 1)
                     : "-"});
        }
        std::printf("%s", table.render().c_str());
        const std::string figure = spec.render(opt, sweep_jobs, results);
        if (!figure.empty())
            std::printf("\n%s", figure.c_str());

        // Each output file the flags name, in a fixed order.
        const std::pair<const char *, std::function<std::string()>>
            outputs[] = {
                {"--json",
                 [&] { return sim::toJson(sweep_jobs, results, spans); }},
                {"--csv", [&] { return sim::toCsv(sweep_jobs, results); }},
                {"--metrics",
                 [&] { return sim::metricsToCsv(sweep_jobs, results); }},
                {"--stacks",
                 [&] { return sim::stacksJson(sweep_jobs, results) + "\n"; }},
                {"--ledger",
                 [&] {
                     return sim::ledgerJson(sweep_jobs, results,
                                            args.count("--ledger-limit", 0))
                            + "\n";
                 }},
                {"--trace-json",
                 [&] { return sim::sweepTraceJson(spans) + "\n"; }},
            };
        for (const auto &[flag, content] : outputs) {
            if (const std::string path = args.text(flag); !path.empty()) {
                sim::writeFile(path, content());
                std::printf("\nwrote %s\n", path.c_str());
            }
        }
        return 0;
    } catch (const FatalError &err) {
        std::fprintf(stderr, "error: %s\n", err.what());
        return 1;
    }
}
