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
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

#include "cli_counts.hh"
#include "vsim/assembler/assembler.hh"
#include "vsim/base/logging.hh"
#include "vsim/core/ooo_core.hh"
#include "vsim/obs/cpi.hh"
#include "vsim/obs/interval.hh"
#include "vsim/obs/trace_export.hh"
#include "vsim/sim/disk_cache.hh"
#include "vsim/sim/report.hh"
#include "vsim/sim/simulator.hh"
#include "vsim/sim/sweep.hh"
#include "vsim/trace/trace_io.hh"
#include "vsim/workloads/workloads.hh"

namespace
{

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s (--workload NAME | --asm FILE | --trace FILE) "
        "[options]\n"
        "  --workload NAME   one of:",
        argv0);
    for (const auto &w : vsim::workloads::all())
        std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(
        stderr,
        "\n"
        "  --asm FILE        assemble and run a VRISC .s file\n"
        "  --trace FILE      replay a recorded .vst instruction trace\n"
        "                    (see vspec-tracegen); decode-free and\n"
        "                    digest-identical to direct simulation\n"
        "  --scale N         workload work factor (default: built-in)\n"
        "  --width N         issue width (default 8)\n"
        "  --window N        window size (default 48, max 512)\n"
        "  --fetch-width N   fetch width (default: issue width)\n"
        "  --base            disable value prediction (default)\n"
        "  --model M         super|great|good, or a custom latency\n"
        "                    tuple E,EI,EV,VF,IR,VB,VA such as\n"
        "                    0,0,1,1,1,1,1 (enables prediction)\n"
        "  --verify-scheme V flattened|hierarchical|retirement|hybrid\n"
        "  --inval-scheme I  flattened|hierarchical|complete\n"
        "  --select S        typed-spec-last|typed-only|oldest-first|\n"
        "                    typed-spec-first\n"
        "  --mem-resolution R\n"
        "                    valid: memory ops need valid addresses\n"
        "                    (default, paper §3.2); spec: loads may\n"
        "                    issue with speculative addresses and\n"
        "                    forward speculative store data\n"
        "  --sweep-kind K    dense|sparse verification/invalidation\n"
        "                    sweep domain (identical results; sparse\n"
        "                    is the default, dense the legacy scan)\n"
        "  --conf C          real|oracle|always (default real)\n"
        "  --conf-table-bits N\n"
        "                    log2 confidence-table entries (1..24,\n"
        "                    default 16)\n"
        "  --timing T        D|I  delayed/immediate update (default D)\n"
        "  --predictor P     fcm|last-value|stride|hybrid (default fcm)\n"
        "  --pipeline [A:B]  print the pipeline diagram for cycles\n"
        "                    A..B (default 0:200)\n"
        "  --trace-retain N  keep only the youngest N instructions in\n"
        "                    the pipeline trace (bounds memory)\n"
        "  --trace-json PATH write the pipeline trace as Chrome/\n"
        "                    Perfetto trace_event JSON\n"
        "  --metrics-interval N\n"
        "                    sample interval metrics every N cycles\n"
        "  --metrics PATH    write the interval time series as CSV\n"
        "  --counters [PATH] write the full counter/histogram registry\n"
        "                    as JSON to PATH, or print a text listing\n"
        "                    (with p50/p90/p99 per histogram) if no\n"
        "                    PATH is given\n"
        "  --stacks [PATH]   CPI stack (every cycle charged to one\n"
        "                    category): JSON to PATH, or a text table\n"
        "                    after the stats block if no PATH is given\n"
        "  --ledger PATH     write the speculation ledger (lifecycle\n"
        "                    of every value prediction) as JSON\n"
        "  --ledger-limit N  emit at most N ledger records (default:\n"
        "                    all; the JSON flags truncation)\n"
        "  --shards N        split the run into N interval shards,\n"
        "                    simulated independently and merged into\n"
        "                    one report (see --warmup-insts)\n"
        "  --interval-insts K\n"
        "                    shard every K retired instructions\n"
        "                    instead of a fixed shard count\n"
        "  --warmup-insts W  per-shard detailed-warmup prefix in\n"
        "                    instructions, or 'full' (default): full\n"
        "                    replay from instruction 0, bit-identical\n"
        "                    to the monolithic run (with --sample,\n"
        "                    'full' means one interval of warmup)\n"
        "  --sample N        SimPoint-style sampled replay: cluster\n"
        "                    the trace's intervals into at most N\n"
        "                    phases by basic-block vector, simulate\n"
        "                    one representative per phase in detail\n"
        "                    and weight it by the phase population\n"
        "                    (approximate; excludes --shards/\n"
        "                    --interval-insts)\n"
        "  --sample-interval-insts K\n"
        "                    sampling interval length in instructions\n"
        "                    (default 1000000)\n"
        "  --jobs N          worker threads executing shards or\n"
        "                    sample representatives (default 1)\n"
        "  --progress        print a completion line to stderr\n"
        "  --cache-dir PATH  persistent on-disk run cache: repeated\n"
        "                    runs of the same configuration are served\n"
        "                    from disk instead of re-simulated (also\n"
        "                    via VSIM_CACHE_DIR; ignored for --asm and\n"
        "                    pipeline-traced runs)\n"
        "  --cache-max-bytes N\n"
        "                    cap the cache directory at N bytes,\n"
        "                    evicting least-recently-used entries on\n"
        "                    insert (also via VSIM_CACHE_MAX_BYTES;\n"
        "                    needs a cache directory)\n"
        "  --json [PATH]     emit the statistics as one JSON object\n"
        "                    (to PATH if given, else stdout)\n");
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace vsim;
    const cli::CountParser counts{argv[0], usage};

    std::string workload, asm_file, trace_file, json_path;
    std::string metrics_path, counters_path, trace_json_path;
    std::string stacks_path, ledger_path, cache_dir;
    std::uint64_t cache_max_bytes = 0;
    int scale = -1;
    std::size_t ledger_limit = 0;
    bool ledger_limit_set = false;
    bool pipeline = false;
    bool warmup_set = false;
    bool jobs_set = false;
    bool json = false;
    bool counters = false;
    bool stacks = false;
    bool progress = false;
    std::uint64_t pipeline_from = 0, pipeline_to = 200;
    core::CoreConfig cfg;
    cfg.issueWidth = 8;
    cfg.windowSize = 48;

    for (int i = 1; i < argc; ++i) {
        auto need_value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--workload")) {
            workload = need_value("--workload");
        } else if (!std::strcmp(argv[i], "--asm")) {
            asm_file = need_value("--asm");
        } else if (!std::strcmp(argv[i], "--trace")) {
            trace_file = need_value("--trace");
        } else if (!std::strcmp(argv[i], "--scale")) {
            scale = counts.positiveInt("--scale", need_value("--scale"));
        } else if (!std::strcmp(argv[i], "--width")) {
            cfg.issueWidth = counts.positiveInt("--width",
                                                need_value("--width"));
        } else if (!std::strcmp(argv[i], "--window")) {
            cfg.windowSize = counts.positiveInt("--window",
                                                need_value("--window"));
            if (cfg.windowSize > core::kMaxWindow) {
                std::fprintf(stderr,
                             "--window %d exceeds the supported "
                             "maximum of %d\n",
                             cfg.windowSize, core::kMaxWindow);
                return 2;
            }
        } else if (!std::strcmp(argv[i], "--fetch-width")) {
            cfg.fetchWidth = counts.positiveInt("--fetch-width",
                                                need_value("--fetch-width"));
        } else if (!std::strcmp(argv[i], "--base")) {
            cfg.useValuePrediction = false;
        } else if (!std::strcmp(argv[i], "--model")) {
            cfg.useValuePrediction = true;
            try {
                // Keep any scheme overrides given before --model.
                const core::SpecModel prev = cfg.model;
                cfg.model = core::SpecModel::byName(
                    need_value("--model"));
                cfg.model.verifyScheme = prev.verifyScheme;
                cfg.model.invalScheme = prev.invalScheme;
                cfg.model.selectPolicy = prev.selectPolicy;
                cfg.model.branchNeedsValidOps =
                    prev.branchNeedsValidOps;
                cfg.model.memNeedsValidOps = prev.memNeedsValidOps;
            } catch (const FatalError &err) {
                std::fprintf(stderr, "%s\n", err.what());
                return 2;
            }
        } else if (!std::strcmp(argv[i], "--verify-scheme")) {
            try {
                cfg.model.verifyScheme = core::parseVerifyScheme(
                    need_value("--verify-scheme"));
            } catch (const FatalError &err) {
                std::fprintf(stderr, "%s\n", err.what());
                return 2;
            }
        } else if (!std::strcmp(argv[i], "--inval-scheme")) {
            try {
                cfg.model.invalScheme = core::parseInvalScheme(
                    need_value("--inval-scheme"));
            } catch (const FatalError &err) {
                std::fprintf(stderr, "%s\n", err.what());
                return 2;
            }
        } else if (!std::strcmp(argv[i], "--select")) {
            try {
                cfg.model.selectPolicy = core::parseSelectPolicy(
                    need_value("--select"));
            } catch (const FatalError &err) {
                std::fprintf(stderr, "%s\n", err.what());
                return 2;
            }
        } else if (!std::strcmp(argv[i], "--mem-resolution")) {
            const std::string r = need_value("--mem-resolution");
            if (r == "valid")
                cfg.model.memNeedsValidOps = true;
            else if (r == "spec")
                cfg.model.memNeedsValidOps = false;
            else {
                std::fprintf(stderr,
                             "--mem-resolution expects valid|spec, "
                             "got '%s'\n",
                             r.c_str());
                return 2;
            }
        } else if (!std::strcmp(argv[i], "--sweep-kind")) {
            const std::string k = need_value("--sweep-kind");
            if (k == "sparse")
                cfg.sweepKind = core::SweepKind::Sparse;
            else if (k == "dense")
                cfg.sweepKind = core::SweepKind::Dense;
            else {
                std::fprintf(stderr,
                             "--sweep-kind expects dense|sparse, "
                             "got '%s'\n",
                             k.c_str());
                return 2;
            }
        } else if (!std::strcmp(argv[i], "--conf-table-bits")) {
            const int bits =
                counts.positiveInt("--conf-table-bits",
                                   need_value("--conf-table-bits"));
            if (bits > 24) {
                std::fprintf(stderr,
                             "--conf-table-bits expects 1..24, got %d\n",
                             bits);
                return 2;
            }
            cfg.confidenceTableBits = bits;
        } else if (!std::strcmp(argv[i], "--conf")) {
            const std::string c = need_value("--conf");
            if (c == "real")
                cfg.confidence = core::ConfidenceKind::Real;
            else if (c == "oracle")
                cfg.confidence = core::ConfidenceKind::Oracle;
            else if (c == "always")
                cfg.confidence = core::ConfidenceKind::Always;
            else {
                std::fprintf(stderr, "bad --conf %s\n", c.c_str());
                return 2;
            }
        } else if (!std::strcmp(argv[i], "--timing")) {
            const std::string t = need_value("--timing");
            if (t == "D")
                cfg.updateTiming = core::UpdateTiming::Delayed;
            else if (t == "I")
                cfg.updateTiming = core::UpdateTiming::Immediate;
            else {
                std::fprintf(stderr, "bad --timing %s\n", t.c_str());
                return 2;
            }
        } else if (!std::strcmp(argv[i], "--predictor")) {
            cfg.valuePredictor = need_value("--predictor");
        } else if (!std::strcmp(argv[i], "--pipeline")) {
            pipeline = true;
            // Optional A:B cycle-window operand.
            if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
                const char *w = argv[++i];
                const std::string_view window(w);
                const std::size_t colon = window.find(':');
                const auto a = cli::parseCount(window.substr(0, colon));
                const auto b = colon == std::string_view::npos
                                   ? std::nullopt
                                   : cli::parseCount(window.substr(colon + 1));
                if (!a || !b || *b < *a) {
                    std::fprintf(
                        stderr,
                        "--pipeline window must be A:B, got '%s'\n", w);
                    return 2;
                }
                pipeline_from = *a;
                pipeline_to = *b;
            }
        } else if (!std::strcmp(argv[i], "--trace-retain")) {
            cfg.traceRetain = static_cast<std::size_t>(
                counts.positiveInt("--trace-retain",
                                   need_value("--trace-retain")));
        } else if (!std::strcmp(argv[i], "--trace-json")) {
            trace_json_path = need_value("--trace-json");
        } else if (!std::strcmp(argv[i], "--metrics-interval")) {
            cfg.metricsInterval = static_cast<std::uint64_t>(
                counts.positiveInt("--metrics-interval",
                                   need_value("--metrics-interval")));
        } else if (!std::strcmp(argv[i], "--metrics")) {
            metrics_path = need_value("--metrics");
        } else if (!std::strcmp(argv[i], "--counters")) {
            counters = true;
            // Optional output path operand.
            if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
                counters_path = argv[++i];
        } else if (!std::strcmp(argv[i], "--stacks")) {
            stacks = true;
            // Optional output path operand.
            if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
                stacks_path = argv[++i];
        } else if (!std::strcmp(argv[i], "--ledger")) {
            ledger_path = need_value("--ledger");
        } else if (!std::strcmp(argv[i], "--ledger-limit")) {
            ledger_limit = static_cast<std::size_t>(
                counts.positiveInt("--ledger-limit",
                                   need_value("--ledger-limit")));
            ledger_limit_set = true;
        } else if (!std::strcmp(argv[i], "--shards")) {
            cfg.shards = counts.positiveU64("--shards",
                                            need_value("--shards"));
        } else if (!std::strcmp(argv[i], "--interval-insts")) {
            cfg.intervalInsts =
                counts.positiveU64("--interval-insts",
                                   need_value("--interval-insts"));
        } else if (!std::strcmp(argv[i], "--warmup-insts")) {
            const char *w = need_value("--warmup-insts");
            cfg.warmupInsts =
                !std::strcmp(w, "full")
                    ? UINT64_MAX
                    : counts.positiveU64("--warmup-insts", w);
            warmup_set = true;
        } else if (!std::strcmp(argv[i], "--sample")) {
            cfg.sampleK = counts.positiveU64("--sample",
                                             need_value("--sample"));
        } else if (!std::strcmp(argv[i], "--sample-interval-insts")) {
            cfg.sampleIntervalInsts =
                counts.positiveU64("--sample-interval-insts",
                                   need_value("--sample-interval-insts"));
        } else if (!std::strcmp(argv[i], "--jobs")) {
            cfg.shardJobs = counts.positiveInt("--jobs", need_value("--jobs"));
            jobs_set = true;
        } else if (!std::strcmp(argv[i], "--progress")) {
            progress = true;
        } else if (!std::strcmp(argv[i], "--cache-dir")) {
            cache_dir = need_value("--cache-dir");
        } else if (!std::strcmp(argv[i], "--cache-max-bytes")) {
            cache_max_bytes =
                counts.positiveU64("--cache-max-bytes",
                                   need_value("--cache-max-bytes"));
        } else if (!std::strcmp(argv[i], "--json")) {
            json = true;
            // Optional output path operand.
            if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
                json_path = argv[++i];
        } else {
            usage(argv[0]);
            return 2;
        }
    }
    const int sources = (workload.empty() ? 0 : 1)
                        + (asm_file.empty() ? 0 : 1)
                        + (trace_file.empty() ? 0 : 1);
    if (sources != 1) {
        usage(argv[0]);
        return 2;
    }
    if (!metrics_path.empty() && cfg.metricsInterval == 0) {
        std::fprintf(stderr,
                     "--metrics needs --metrics-interval N\n");
        return 2;
    }
    if (ledger_limit_set && ledger_path.empty()) {
        std::fprintf(stderr, "--ledger-limit needs --ledger PATH\n");
        return 2;
    }
    if (cfg.shards > 0 && cfg.intervalInsts > 0) {
        std::fprintf(stderr, "--shards and --interval-insts are "
                             "mutually exclusive\n");
        return 2;
    }
    if (cfg.sampleK > 0 && (cfg.shards > 0 || cfg.intervalInsts > 0)) {
        std::fprintf(stderr, "--sample and --shards/--interval-insts "
                             "are mutually exclusive\n");
        return 2;
    }
    if (cfg.sampleIntervalInsts > 0 && cfg.sampleK == 0) {
        std::fprintf(stderr,
                     "--sample-interval-insts needs --sample\n");
        return 2;
    }
    const bool sharded = cfg.shards > 0 || cfg.intervalInsts > 0
                         || cfg.sampleK > 0;
    if ((warmup_set || jobs_set) && !sharded) {
        std::fprintf(stderr, "--warmup-insts/--jobs need --shards, "
                             "--interval-insts or --sample\n");
        return 2;
    }
    if (sharded && !asm_file.empty()) {
        std::fprintf(stderr, "sharded/sampled runs support --workload "
                             "and --trace only, not --asm\n");
        return 2;
    }
    const bool trace_json = !trace_json_path.empty();
    cfg.tracePipeline = pipeline || trace_json;
    if (sharded && cfg.tracePipeline) {
        std::fprintf(stderr, "pipeline tracing needs a single "
                             "monolithic core; drop --shards/"
                             "--interval-insts/--sample\n");
        return 2;
    }
    // Detailed per-prediction records are collected only on request —
    // the flag is part of the run's cache identity.
    cfg.specLedger = !ledger_path.empty();
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
        if (!cache_dir.empty() && asm_file.empty()
            && !cfg.tracePipeline) {
            auto disk = std::make_shared<sim::DiskRunCache>(cache_dir);
            disk->setMaxBytes(cache_max_bytes);
            sim::RunCache::process().attachDisk(std::move(disk));
        }
        sim::RunResult r;
        std::string pipeline_text;
        obs::TraceWriter trace_writer;

        if (asm_file.empty() && !cfg.tracePipeline) {
            // Workload and trace-replay runs go through the sweep
            // engine's run cache, driven by a single-job SweepRunner
            // so --progress shares the sweep machinery (results are
            // identical either way).
            sim::SweepJob job;
            job.label = sim::configLabel(cfg);
            job.workload = trace_file.empty()
                               ? workload
                               : sim::traceWorkloadName(trace_file);
            job.scale = scale;
            job.cfg = cfg;
            sim::SweepRunner runner(1, &sim::RunCache::process());
            runner.setProgress(progress);
            r = runner.run({job}).front();
        } else {
            std::unique_ptr<core::OooCore> core;
            if (!trace_file.empty()) {
                trace::LoadedTrace loaded =
                    trace::loadTrace(trace_file);
                core = std::make_unique<core::OooCore>(
                    loaded.program, std::move(loaded.trace), cfg);
                r.workload = sim::traceWorkloadName(trace_file);
            } else {
                assembler::Program prog;
                if (!workload.empty()) {
                    prog = workloads::buildProgram(
                        workloads::byName(workload), scale);
                } else {
                    std::ifstream in(asm_file);
                    if (!in) {
                        std::fprintf(stderr, "cannot open %s\n",
                                     asm_file.c_str());
                        return 1;
                    }
                    std::ostringstream ss;
                    ss << in.rdbuf();
                    prog = assembler::assemble(ss.str(), asm_file);
                }
                core = std::make_unique<core::OooCore>(prog, cfg);
                r.workload = workload.empty() ? asm_file : workload;
            }
            const core::SimOutcome out = core->run();
            r.stats = out.stats;
            r.instructions = out.stats.retired;
            r.ipc = out.stats.ipc();
            r.exitCode = out.exitCode;
            r.output = out.output;
            r.intervals = out.intervals;
            r.ledger = out.ledger;
            if (pipeline) {
                pipeline_text =
                    core->tracer().render(pipeline_from, pipeline_to);
            }
            if (trace_json)
                core->tracer().exportTo(trace_writer);
            if (progress)
                logLine("[1/1] " + sim::configLabel(cfg) + " ("
                        + r.workload + ")");
        }
        const core::CoreStats &s = r.stats;

        if (!metrics_path.empty()) {
            std::ostringstream csv;
            csv << obs::IntervalSeries::csvHeader("");
            r.intervals.appendCsv(csv, "");
            sim::writeFile(metrics_path, csv.str());
        }
        if (!counters_path.empty())
            sim::writeFile(counters_path, sim::countersJson(r) + "\n");
        if (!stacks_path.empty())
            sim::writeFile(stacks_path, sim::stacksJson(r) + "\n");
        if (!ledger_path.empty()) {
            sim::writeFile(ledger_path,
                           sim::ledgerJson(r, ledger_limit) + "\n");
        }
        if (trace_json) {
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
            sim::writeFile(trace_json_path,
                           trace_writer.toJson() + "\n");
        }

        if (json) {
            const std::string js = sim::toJson(r) + "\n";
            if (json_path.empty())
                std::printf("%s", js.c_str());
            else
                sim::writeFile(json_path, js);
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
        if (stacks && stacks_path.empty())
            std::printf("\n%s", sim::stacksText(r).c_str());
        if (counters && counters_path.empty())
            std::printf("\n%s", sim::countersText(r).c_str());
        if (pipeline)
            std::printf("\n%s", pipeline_text.c_str());
        return 0;
    } catch (const FatalError &err) {
        std::fprintf(stderr, "error: %s\n", err.what());
        return 1;
    }
}
