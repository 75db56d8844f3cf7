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

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cli_counts.hh"
#include "vsim/base/logging.hh"
#include "vsim/base/stats.hh"
#include "vsim/core/spec_model.hh"
#include "vsim/core/window_types.hh"
#include "vsim/sim/disk_cache.hh"
#include "vsim/sim/report.hh"
#include "vsim/sim/sweep.hh"

namespace
{

/** One "name  description" line per named sweep, each after @p indent. */
void
listSweeps(std::FILE *out, const char *indent)
{
    for (const auto &s : vsim::sim::namedSweeps())
        std::fprintf(out, "%s%-16s %s\n", indent, s.name.c_str(),
                     s.description.c_str());
}

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s NAME [--quick] [--scale N] [--jobs N] "
                 "[--json PATH] [--csv PATH]\n"
                 "       %*s [--metrics-interval N] [--metrics PATH] "
                 "[--trace-json PATH] [--progress]\n"
                 "       %s --list\n"
                 "  --metrics-interval N  sample interval metrics every "
                 "N cycles\n"
                 "  --metrics PATH        write the per-run interval "
                 "series as CSV\n"
                 "  --stacks PATH         write every cell's CPI stack "
                 "as JSON\n"
                 "  --ledger PATH         write every cell's speculation "
                 "ledger as JSON\n"
                 "                        (per-prediction lifecycle "
                 "records)\n"
                 "  --ledger-limit N      emit at most N ledger records "
                 "per cell\n"
                 "  --trace-json PATH     write the sweep execution "
                 "timeline as Chrome/Perfetto JSON\n"
                 "  --progress            print one stderr line per "
                 "finished run\n"
                 "  --model M             override the latency model of "
                 "every speculative run:\n"
                 "                        super|great|good or a tuple "
                 "E,EI,EV,VF,IR,VB,VA\n"
                 "  --verify-scheme V     override verification: "
                 "flattened|hierarchical|retirement|hybrid\n"
                 "  --inval-scheme I      override invalidation: "
                 "flattened|hierarchical|complete\n"
                 "  --select S            override selection: "
                 "typed-spec-last|typed-only|\n"
                 "                        oldest-first|typed-spec-first\n"
                 "  --mem-resolution R    override memory resolution of "
                 "every speculative run:\n"
                 "                        valid (addresses must be "
                 "valid) | spec (speculative\n"
                 "                        addresses + forwarding "
                 "allowed)\n"
                 "  --sweep-kind K        dense|sparse verification/"
                 "invalidation sweep domain\n"
                 "                        for every run (identical "
                 "results; default sparse)\n"
                 "  --trace FILE          replace the built-in workload "
                 "suite with a recorded\n"
                 "                        .vst trace (repeatable; see "
                 "vspec-tracegen)\n"
                 "  --window N            override the window size of "
                 "every run (max 512)\n"
                 "  --fetch-width N       override the fetch width of "
                 "every run\n"
                 "  --shards N            split every run into N "
                 "interval shards, simulated\n"
                 "                        independently and merged "
                 "(see --warmup-insts)\n"
                 "  --interval-insts K    shard every K retired "
                 "instructions instead of a\n"
                 "                        fixed shard count\n"
                 "  --warmup-insts W      per-shard detailed-warmup "
                 "prefix in instructions, or\n"
                 "                        'full' (default): exact "
                 "replay, bit-identical results\n"
                 "                        (with --sample, 'full' means "
                 "one interval of warmup)\n"
                 "  --sample N            SimPoint-style sampled "
                 "replay of every run: cluster\n"
                 "                        intervals into at most N "
                 "phases by basic-block\n"
                 "                        vector, simulate one "
                 "representative per phase and\n"
                 "                        weight it by phase "
                 "population (approximate;\n"
                 "                        excludes --shards/"
                 "--interval-insts)\n"
                 "  --sample-interval-insts K\n"
                 "                        sampling interval length in "
                 "instructions\n"
                 "                        (default 1000000)\n"
                 "  --shard-jobs N        worker threads per run for "
                 "shard or representative\n"
                 "                        execution (default 1; --jobs "
                 "stays the sweep-level\n"
                 "                        worker count)\n"
                 "  --cache-dir PATH      persistent on-disk run cache: "
                 "repeated sweeps serve\n"
                 "                        finished cells from disk "
                 "instead of re-simulating\n"
                 "                        (also via VSIM_CACHE_DIR; "
                 "invalidated on rebuild)\n"
                 "  --cache-max-bytes N   cap the cache directory at N "
                 "bytes, evicting\n"
                 "                        least-recently-used entries "
                 "on insert (also via\n"
                 "                        VSIM_CACHE_MAX_BYTES; needs a "
                 "cache directory)\n"
                 "named sweeps:\n",
                 argv0, static_cast<int>(std::strlen(argv0) + 7), "",
                 argv0);
    listSweeps(stderr, "  ");
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace vsim;
    const cli::CountParser counts{argv[0], usage};

    std::string name, json_path, csv_path;
    std::string metrics_path, trace_json_path;
    std::string stacks_path, ledger_path;
    std::size_t ledger_limit = 0;
    bool ledger_limit_set = false;
    std::uint64_t metrics_interval = 0;
    bool progress = false;
    sim::SweepOptions opt;
    int jobs = sim::SweepRunner::defaultJobs();
    std::optional<core::SpecModel> model_override;
    std::optional<core::VerifyScheme> verify_override;
    std::optional<core::InvalScheme> inval_override;
    std::optional<core::SelectPolicy> select_override;
    std::optional<bool> mem_valid_override;
    std::optional<core::SweepKind> sweep_kind_override;
    std::optional<int> window_override;
    std::optional<int> fetch_width_override;
    std::uint64_t shards = 0;
    std::uint64_t interval_insts = 0;
    std::uint64_t warmup_insts = UINT64_MAX;
    std::uint64_t sample_k = 0;
    std::uint64_t sample_interval_insts = 0;
    int shard_jobs = 1;
    bool warmup_set = false;
    bool shard_jobs_set = false;
    std::string cache_dir;
    std::uint64_t cache_max_bytes = 0;

    for (int i = 1; i < argc; ++i) {
        auto need_value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--list")) {
            listSweeps(stdout, "");
            return 0;
        } else if (!std::strcmp(argv[i], "--quick")) {
            opt.quick = true;
        } else if (!std::strcmp(argv[i], "--scale")) {
            opt.scale = counts.positiveInt("--scale", need_value("--scale"));
        } else if (!std::strcmp(argv[i], "--jobs")) {
            jobs = counts.positiveInt("--jobs", need_value("--jobs"));
        } else if (!std::strcmp(argv[i], "--json")) {
            json_path = need_value("--json");
        } else if (!std::strcmp(argv[i], "--csv")) {
            csv_path = need_value("--csv");
        } else if (!std::strcmp(argv[i], "--metrics-interval")) {
            metrics_interval = static_cast<std::uint64_t>(
                counts.positiveInt("--metrics-interval",
                                   need_value("--metrics-interval")));
        } else if (!std::strcmp(argv[i], "--metrics")) {
            metrics_path = need_value("--metrics");
        } else if (!std::strcmp(argv[i], "--stacks")) {
            stacks_path = need_value("--stacks");
        } else if (!std::strcmp(argv[i], "--ledger")) {
            ledger_path = need_value("--ledger");
        } else if (!std::strcmp(argv[i], "--ledger-limit")) {
            ledger_limit = static_cast<std::size_t>(
                counts.positiveInt("--ledger-limit",
                                   need_value("--ledger-limit")));
            ledger_limit_set = true;
        } else if (!std::strcmp(argv[i], "--trace-json")) {
            trace_json_path = need_value("--trace-json");
        } else if (!std::strcmp(argv[i], "--progress")) {
            progress = true;
        } else if (!std::strcmp(argv[i], "--model")) {
            try {
                model_override =
                    core::SpecModel::byName(need_value("--model"));
            } catch (const FatalError &err) {
                std::fprintf(stderr, "%s\n", err.what());
                return 2;
            }
        } else if (!std::strcmp(argv[i], "--verify-scheme")) {
            try {
                verify_override = core::parseVerifyScheme(
                    need_value("--verify-scheme"));
            } catch (const FatalError &err) {
                std::fprintf(stderr, "%s\n", err.what());
                return 2;
            }
        } else if (!std::strcmp(argv[i], "--inval-scheme")) {
            try {
                inval_override = core::parseInvalScheme(
                    need_value("--inval-scheme"));
            } catch (const FatalError &err) {
                std::fprintf(stderr, "%s\n", err.what());
                return 2;
            }
        } else if (!std::strcmp(argv[i], "--select")) {
            try {
                select_override = core::parseSelectPolicy(
                    need_value("--select"));
            } catch (const FatalError &err) {
                std::fprintf(stderr, "%s\n", err.what());
                return 2;
            }
        } else if (!std::strcmp(argv[i], "--mem-resolution")) {
            const std::string r = need_value("--mem-resolution");
            if (r == "valid")
                mem_valid_override = true;
            else if (r == "spec")
                mem_valid_override = false;
            else {
                std::fprintf(stderr,
                             "--mem-resolution expects valid|spec, "
                             "got '%s'\n",
                             r.c_str());
                return 2;
            }
        } else if (!std::strcmp(argv[i], "--trace")) {
            opt.workloads.push_back(
                sim::traceWorkloadName(need_value("--trace")));
        } else if (!std::strcmp(argv[i], "--window")) {
            window_override = counts.positiveInt("--window",
                                                 need_value("--window"));
            if (*window_override > core::kMaxWindow) {
                std::fprintf(stderr,
                             "--window %d exceeds the supported "
                             "maximum of %d\n",
                             *window_override, core::kMaxWindow);
                return 2;
            }
        } else if (!std::strcmp(argv[i], "--fetch-width")) {
            fetch_width_override =
                counts.positiveInt("--fetch-width",
                                   need_value("--fetch-width"));
        } else if (!std::strcmp(argv[i], "--shards")) {
            shards = counts.positiveU64("--shards", need_value("--shards"));
        } else if (!std::strcmp(argv[i], "--interval-insts")) {
            interval_insts =
                counts.positiveU64("--interval-insts",
                                   need_value("--interval-insts"));
        } else if (!std::strcmp(argv[i], "--warmup-insts")) {
            const char *w = need_value("--warmup-insts");
            warmup_insts =
                !std::strcmp(w, "full")
                    ? UINT64_MAX
                    : counts.positiveU64("--warmup-insts", w);
            warmup_set = true;
        } else if (!std::strcmp(argv[i], "--sample")) {
            sample_k = counts.positiveU64("--sample", need_value("--sample"));
        } else if (!std::strcmp(argv[i], "--sample-interval-insts")) {
            sample_interval_insts =
                counts.positiveU64("--sample-interval-insts",
                                   need_value("--sample-interval-insts"));
        } else if (!std::strcmp(argv[i], "--shard-jobs")) {
            shard_jobs = counts.positiveInt("--shard-jobs",
                                            need_value("--shard-jobs"));
            shard_jobs_set = true;
        } else if (!std::strcmp(argv[i], "--cache-dir")) {
            cache_dir = need_value("--cache-dir");
        } else if (!std::strcmp(argv[i], "--cache-max-bytes")) {
            cache_max_bytes =
                counts.positiveU64("--cache-max-bytes",
                                   need_value("--cache-max-bytes"));
        } else if (!std::strcmp(argv[i], "--sweep-kind")) {
            const std::string k = need_value("--sweep-kind");
            if (k == "sparse")
                sweep_kind_override = core::SweepKind::Sparse;
            else if (k == "dense")
                sweep_kind_override = core::SweepKind::Dense;
            else {
                std::fprintf(stderr,
                             "--sweep-kind expects dense|sparse, "
                             "got '%s'\n",
                             k.c_str());
                return 2;
            }
        } else if (argv[i][0] != '-' && name.empty()) {
            name = argv[i];
        } else {
            usage(argv[0]);
            return 2;
        }
    }
    if (name.empty()) {
        usage(argv[0]);
        return 2;
    }
    if (!metrics_path.empty() && metrics_interval == 0) {
        std::fprintf(stderr,
                     "--metrics needs --metrics-interval N\n");
        return 2;
    }
    if (ledger_limit_set && ledger_path.empty()) {
        std::fprintf(stderr, "--ledger-limit needs --ledger PATH\n");
        return 2;
    }
    if (shards > 0 && interval_insts > 0) {
        std::fprintf(stderr, "--shards and --interval-insts are "
                             "mutually exclusive\n");
        return 2;
    }
    if (sample_k > 0 && (shards > 0 || interval_insts > 0)) {
        std::fprintf(stderr, "--sample and --shards/--interval-insts "
                             "are mutually exclusive\n");
        return 2;
    }
    if (sample_interval_insts > 0 && sample_k == 0) {
        std::fprintf(stderr,
                     "--sample-interval-insts needs --sample\n");
        return 2;
    }
    if ((warmup_set || shard_jobs_set) && shards == 0
        && interval_insts == 0 && sample_k == 0) {
        std::fprintf(stderr, "--warmup-insts/--shard-jobs need "
                             "--shards, --interval-insts or --sample\n");
        return 2;
    }
    if (cache_dir.empty()) {
        const char *env = std::getenv("VSIM_CACHE_DIR");
        if (env && *env)
            cache_dir = env;
    }
    if (cache_max_bytes == 0) {
        const char *env = std::getenv("VSIM_CACHE_MAX_BYTES");
        if (env && *env)
            cache_max_bytes = counts.positiveU64("VSIM_CACHE_MAX_BYTES", env);
    }
    if (cache_max_bytes > 0 && cache_dir.empty()) {
        std::fprintf(stderr, "--cache-max-bytes needs --cache-dir "
                             "(or VSIM_CACHE_DIR)\n");
        return 2;
    }

    try {
        const sim::NamedSweep &spec = sim::sweepByName(name);
        std::vector<sim::SweepJob> sweep_jobs = spec.build(opt);
        for (sim::SweepJob &job : sweep_jobs) {
            job.cfg.metricsInterval = metrics_interval;
            // Detailed per-prediction records are part of the jobKey:
            // a ledger-bearing result must not be served from (or to)
            // a run that did not collect records.
            job.cfg.specLedger = !ledger_path.empty();
            // Machine-axis overrides change what the builder's label
            // describes, so they leave a visible mark on it.
            if (window_override) {
                job.cfg.windowSize = *window_override;
                job.label += " window=" + std::to_string(
                                              *window_override);
            }
            if (fetch_width_override) {
                job.cfg.fetchWidth = *fetch_width_override;
                job.label += " fetch=" + std::to_string(
                                             *fetch_width_override);
            }
            // Sweep kind applies to every run: results are identical
            // by construction, so it is not part of the jobKey and a
            // dense pass can reuse a sparse pass's cached results.
            if (sweep_kind_override)
                job.cfg.sweepKind = *sweep_kind_override;
            // Shard partition + warmup depth are part of the jobKey
            // (finite warmup changes results); the worker count is an
            // execution resource like --jobs and is not.
            job.cfg.shards = shards;
            job.cfg.intervalInsts = interval_insts;
            job.cfg.warmupInsts = warmup_insts;
            job.cfg.sampleK = sample_k;
            job.cfg.sampleIntervalInsts = sample_interval_insts;
            job.cfg.shardJobs = shard_jobs;
            if (!job.cfg.useValuePrediction)
                continue;
            // Each override replaces only its own aspect of the job's
            // model: --model the latency variables, the scheme flags
            // the corresponding model variable.
            if (model_override) {
                core::SpecModel m = *model_override;
                m.verifyScheme = job.cfg.model.verifyScheme;
                m.invalScheme = job.cfg.model.invalScheme;
                m.selectPolicy = job.cfg.model.selectPolicy;
                m.branchNeedsValidOps =
                    job.cfg.model.branchNeedsValidOps;
                m.memNeedsValidOps = job.cfg.model.memNeedsValidOps;
                job.cfg.model = m;
            }
            if (verify_override)
                job.cfg.model.verifyScheme = *verify_override;
            if (inval_override)
                job.cfg.model.invalScheme = *inval_override;
            if (select_override)
                job.cfg.model.selectPolicy = *select_override;
            if (mem_valid_override)
                job.cfg.model.memNeedsValidOps = *mem_valid_override;
        }

        if (!cache_dir.empty()) {
            auto disk = std::make_shared<sim::DiskRunCache>(cache_dir);
            disk->setMaxBytes(cache_max_bytes);
            sim::RunCache::process().attachDisk(std::move(disk));
        }
        // Spans are always collected: --json reports per-cell
        // wall-clock and simulation rate alongside the stats.
        std::vector<sim::JobSpan> spans;
        sim::SweepRunner runner(jobs);
        runner.setProgress(progress);
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

        if (!json_path.empty()) {
            sim::writeFile(json_path,
                           sim::toJson(sweep_jobs, results, spans));
            std::printf("\nwrote %s\n", json_path.c_str());
        }
        if (!csv_path.empty()) {
            sim::writeFile(csv_path, sim::toCsv(sweep_jobs, results));
            std::printf("\nwrote %s\n", csv_path.c_str());
        }
        if (!metrics_path.empty()) {
            sim::writeFile(metrics_path,
                           sim::metricsToCsv(sweep_jobs, results));
            std::printf("\nwrote %s\n", metrics_path.c_str());
        }
        if (!stacks_path.empty()) {
            sim::writeFile(stacks_path,
                           sim::stacksJson(sweep_jobs, results) + "\n");
            std::printf("\nwrote %s\n", stacks_path.c_str());
        }
        if (!ledger_path.empty()) {
            sim::writeFile(
                ledger_path,
                sim::ledgerJson(sweep_jobs, results, ledger_limit)
                    + "\n");
            std::printf("\nwrote %s\n", ledger_path.c_str());
        }
        if (!trace_json_path.empty()) {
            sim::writeFile(trace_json_path,
                           sim::sweepTraceJson(spans) + "\n");
            std::printf("\nwrote %s\n", trace_json_path.c_str());
        }
        return 0;
    } catch (const FatalError &err) {
        std::fprintf(stderr, "error: %s\n", err.what());
        return 1;
    }
}
