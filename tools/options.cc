/**
 * @file
 * The option table: every flag of the tools, each declared once. A
 * flag vspec_run and vspec_sweep share is one entry, and its config
 * member is the edit both make: vspec_run on its one configuration,
 * vspec_sweep on each job (see Parsed::edit).
 */

#include <charconv>
#include <climits>
#include <cstdint>

#include "cli.hh"
#include "vsim/base/logging.hh"
#include "vsim/core/window_types.hh"
#include "vsim/sim/sweep.hh"
#include "vsim/vpred/vpred.hh"
#include "vsim/workloads/workloads.hh"

namespace vsim::cli
{

std::optional<std::uint64_t>
parseCount(std::string_view text)
{
    std::uint64_t v = 0;
    // from_chars on an unsigned type accepts digits only: no sign, no
    // whitespace.
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), v);
    if (ec != std::errc() || end != text.data() + text.size())
        return std::nullopt;
    return v;
}

namespace
{

using Cfg = core::CoreConfig;
using Edit = std::function<void(Cfg &, const Arg &)>;

/** A count in lo..hi. */
Value
count(std::uint64_t lo, std::uint64_t hi)
{
    std::string rule =
        "expects " + std::to_string(lo) + ".." + std::to_string(hi);
    if (lo == 1 && hi == INT_MAX)
        rule = "expects a positive integer";
    else if (lo == 1 && hi == UINT64_MAX)
        rule = "expects a positive count";
    return {rule, [lo, hi](Arg &a) {
                const auto v = parseCount(a.text);
                a.count = v.value_or(0);
                return v && *v >= lo && *v <= hi;
            }};
}

const Value kPositiveInt = count(1, INT_MAX);
const Value kPositiveCount = count(1, UINT64_MAX);

/**
 * One of @p spellings, read as its index there: the first @p shown are
 * the names, the rest aliases.
 */
Value
choice(std::vector<std::string> spellings, std::size_t shown)
{
    const std::vector<std::string> names(spellings.begin(),
                                         spellings.begin() + shown);
    std::string rule = "expects ";
    for (std::size_t i = 0; i < shown; ++i)
        rule += (i ? "|" : "") + names[i];
    return {rule,
            [spellings](Arg &a) {
                for (std::size_t i = 0; i < spellings.size(); ++i) {
                    if (a.text == spellings[i]) {
                        a.count = i;
                        return true;
                    }
                }
                return false;
            },
            names};
}

/** One of the names of @p entries (workloads, sweeps). */
template <typename T>
Value
choice(const std::vector<T> &entries)
{
    std::vector<std::string> names;
    for (const T &e : entries)
        names.push_back(e.name);
    return choice(names, names.size());
}

/** One of a spelling table's names or aliases. */
template <typename E, std::size_t N>
Value
choice(const core::Spelling<E> (&table)[N])
{
    std::vector<std::string> spellings;
    std::size_t shown = 0;
    for (const core::Spelling<E> &s : table) {
        spellings.push_back(s.name);
        // Names come first, one per value; aliases repeat a value.
        shown += core::spellingOf(table, s.value) == std::string_view(s.name);
    }
    return choice(std::move(spellings), shown);
}

/** The edit that stores the operand's count in @p field. */
template <typename T>
Edit
sets(T Cfg::*field)
{
    return [field](Cfg &c, const Arg &a) {
        c.*field = static_cast<T>(a.count);
    };
}

/** The edit that stores the value @p table spells the operand as. */
template <typename E, std::size_t N>
Edit
picks(const core::Spelling<E> (&table)[N], E Cfg::*field)
{
    return [&table, field](Cfg &c, const Arg &a) {
        c.*field = table[a.count].value;
    };
}

template <typename E, std::size_t N>
Edit
picks(const core::Spelling<E> (&table)[N], E core::SpecModel::*field)
{
    return [&table, field](Cfg &c, const Arg &a) {
        c.model.*field = table[a.count].value;
    };
}

constexpr core::Spelling<core::ConfidenceKind> kConfidence[] = {
    {"real", core::ConfidenceKind::Real},
    {"oracle", core::ConfidenceKind::Oracle},
    {"always", core::ConfidenceKind::Always},
};
constexpr core::Spelling<core::UpdateTiming> kTiming[] = {
    {"D", core::UpdateTiming::Delayed},
    {"I", core::UpdateTiming::Immediate},
};
constexpr core::Spelling<bool> kMemResolution[] = {
    {"valid", true},
    {"spec", false},
};
constexpr core::Spelling<core::SweepKind> kSweepKind[] = {
    {"dense", core::SweepKind::Dense},
    {"sparse", core::SweepKind::Sparse},
};

std::vector<Option>
table()
{
    using core::SpecModel;
    constexpr unsigned kRunSweep = Run | Sweep;
    const std::vector<std::string> partition = {"--shards", "--interval-insts",
                                                "--sample"};
    const std::vector<std::string> &predictors = vpred::valuePredictorNames();
    return {
        // ---- what to run -------------------------------------------
        {.name = "NAME", .tools = Sweep, .value = choice(sim::namedSweeps()),
         .help = "the named sweep to run (descriptions: --list)"},
        {.name = "FILE.s", .tools = Asm, .help = "VRISC assembly file"},
        {.name = "A.json", .tools = Stacks,
         .help = "vspec-run or vspec-sweep --json/--stacks output"},
        {.name = "B.json", .tools = Stacks, .help = "the same, to diff"},
        {.name = "--list", .tools = Sweep,
         .help = "print the named sweeps, one a line, and exit",
         .stops = true},
        {.name = "--workload", .tools = Run | Tracegen, .metavar = "NAME",
         .value = choice(workloads::all()), .help = "a built-in kernel"},
        {.name = "--asm", .tools = Run | Tracegen, .metavar = "FILE",
         .help = "assemble a VRISC .s file"},
        {.name = "--all", .tools = Tracegen,
         .help = "trace every built-in workload into --out-dir"},
        {.name = "--trace", .tools = Run, .metavar = "FILE",
         .help = "replay a recorded .vst trace (see vspec-tracegen), "
                 "digest-identical to direct simulation"},
        {.name = "--trace", .tools = Sweep, .metavar = "FILE",
         .help = "replace the built-in workload suite with a recorded .vst "
                 "trace (repeatable)"},
        {.name = "--scale", .tools = Run | Sweep | Tracegen, .metavar = "N",
         .value = kPositiveInt,
         .help = "workload work factor (default: built-in)"},
        {.name = "--quick", .tools = Sweep,
         .help = "3 workloads on the 8/48 machine"},

        // ---- machine -----------------------------------------------
        {.name = "--width", .tools = Run, .metavar = "N",
         .value = kPositiveInt, .help = "issue width (default 8)",
         .config = sets(&Cfg::issueWidth)},
        {.name = "--window", .tools = kRunSweep, .metavar = "N",
         .value = count(1, core::kMaxWindow),
         .help = "window size, at most 512",
         .config = sets(&Cfg::windowSize), .mark = "window="},
        {.name = "--fetch-width", .tools = kRunSweep, .metavar = "N",
         .value = kPositiveInt, .help = "fetch width (default: issue width)",
         .config = sets(&Cfg::fetchWidth), .mark = "fetch="},

        // ---- value speculation -------------------------------------
        {.name = "--base", .tools = Run,
         .help = "disable value prediction (default)",
         .config = [](Cfg &c, const Arg &) { c.useValuePrediction = false; }},
        {.name = "--model", .tools = kRunSweep, .metavar = "M",
         .value = {"expects super|great|good or a latency tuple "
                   "E,EI,EV,VF,IR,VB,VA",
                   [](Arg &a) {
                       try {
                           SpecModel::byName(a.text);
                           return true;
                       } catch (const FatalError &) {
                           return false;
                       }
                   }},
         .help = "the latency variables of a named model (super, great, "
                 "good) or a tuple E,EI,EV,VF,IR,VB,VA such as "
                 "0,0,1,1,1,1,1; enables prediction. A sweep sets it and "
                 "the model variables below on its speculative runs only",
         .config =
             [](Cfg &c, const Arg &a) {
                 c.useValuePrediction = true;
                 c.model.setLatencies(SpecModel::byName(a.text));
             },
         .speculativeOnly = true},
        {.name = "--verify-scheme", .tools = kRunSweep, .metavar = "V",
         .value = choice(core::kVerifySchemeSpellings),
         .help = "verification scheme",
         .config = picks(core::kVerifySchemeSpellings,
                         &SpecModel::verifyScheme),
         .speculativeOnly = true},
        {.name = "--inval-scheme", .tools = kRunSweep, .metavar = "I",
         .value = choice(core::kInvalSchemeSpellings),
         .help = "invalidation scheme",
         .config = picks(core::kInvalSchemeSpellings,
                         &SpecModel::invalScheme),
         .speculativeOnly = true},
        {.name = "--select", .tools = kRunSweep, .metavar = "S",
         .value = choice(core::kSelectPolicySpellings),
         .help = "issue-selection policy",
         .config = picks(core::kSelectPolicySpellings,
                         &SpecModel::selectPolicy),
         .speculativeOnly = true},
        {.name = "--mem-resolution", .tools = kRunSweep, .metavar = "R",
         .value = choice(kMemResolution),
         .help = "how memory ops resolve: on valid addresses only "
                 "(default, paper §3.2), or loads on speculative addresses "
                 "with speculative store data forwarded",
         .config = picks(kMemResolution, &SpecModel::memNeedsValidOps),
         .speculativeOnly = true},
        {.name = "--sweep-kind", .tools = kRunSweep, .metavar = "K",
         .value = choice(kSweepKind),
         .help = "verification/invalidation sweep domain, identical results "
                 "either way (default sparse; dense is the legacy scan)",
         .config = picks(kSweepKind, &Cfg::sweepKind)},
        {.name = "--conf", .tools = Run, .metavar = "C",
         .value = choice(kConfidence), .help = "confidence (default real)",
         .config = picks(kConfidence, &Cfg::confidence)},
        {.name = "--conf-table-bits", .tools = Run, .metavar = "N",
         .value = count(1, 24),
         .help = "log2 confidence-table entries (default 16)",
         .config = sets(&Cfg::confidenceTableBits)},
        {.name = "--timing", .tools = Run, .metavar = "T",
         .value = choice(kTiming),
         .help = "delayed or immediate predictor update (default D)",
         .config = picks(kTiming, &Cfg::updateTiming)},
        {.name = "--predictor", .tools = Run, .metavar = "P",
         .value = choice(predictors, predictors.size()),
         .help = "value predictor (default fcm)",
         .config = [](Cfg &c, const Arg &a) { c.valuePredictor = a.text; }},

        // ---- observability -----------------------------------------
        {.name = "--pipeline", .tools = Run, .metavar = "[A:B]",
         .value = {"window must be A:B",
                   [](Arg &a) {
                       const std::string_view w(a.text);
                       const std::size_t colon = w.find(':');
                       const auto to = colon == std::string_view::npos
                                           ? std::nullopt
                                           : parseCount(w.substr(colon + 1));
                       const auto from = parseCount(w.substr(0, colon));
                       a.count = from.value_or(0);
                       return from && to && *from <= *to;
                   }},
         .help = "print the pipeline diagram for cycles A..B (default "
                 "0:200)",
         .config = [](Cfg &c, const Arg &) { c.tracePipeline = true; }},
        {.name = "--trace-retain", .tools = Run, .metavar = "N",
         .value = kPositiveInt,
         .help = "keep only the youngest N instructions in the pipeline "
                 "trace (bounds memory)",
         .config = sets(&Cfg::traceRetain)},
        {.name = "--trace-json", .tools = Run, .metavar = "PATH",
         .help = "write the pipeline trace as Chrome/Perfetto JSON",
         .config =
             [](Cfg &c, const Arg &a) { c.tracePipeline |= !a.text.empty(); }},
        {.name = "--trace-json", .tools = Sweep, .metavar = "PATH",
         .help = "write the sweep's timeline as Chrome/Perfetto JSON"},
        {.name = "--metrics-interval", .tools = kRunSweep, .metavar = "N",
         .value = kPositiveInt,
         .help = "sample interval metrics every N cycles",
         .config = sets(&Cfg::metricsInterval)},
        {.name = "--metrics", .tools = kRunSweep, .metavar = "PATH",
         .help = "write the interval series as CSV",
         .needs = {"--metrics-interval"}},
        {.name = "--counters", .tools = Run, .metavar = "[PATH]",
         .help = "write the counter/histogram registry as JSON to PATH, or "
                 "print it as text (p50/p90/p99 per histogram)"},
        {.name = "--stacks", .tools = Run, .metavar = "[PATH]",
         .help = "CPI stack (every cycle charged to one category): JSON to "
                 "PATH, or a table after the stats"},
        {.name = "--stacks", .tools = Sweep, .metavar = "PATH",
         .help = "write every cell's CPI stack as JSON"},
        {.name = "--ledger", .tools = kRunSweep, .metavar = "PATH",
         .help = "write the speculation ledger (every value prediction's "
                 "lifecycle) as JSON",
         .config =
             [](Cfg &c, const Arg &a) { c.specLedger = !a.text.empty(); }},
        {.name = "--ledger-limit", .tools = kRunSweep, .metavar = "N",
         .value = kPositiveInt,
         .help = "emit at most N ledger records a run (default: all; the "
                 "JSON flags truncation)",
         .needs = {"--ledger"}},
        {.name = "--progress", .tools = kRunSweep,
         .help = "print a line to stderr as each run finishes"},

        // ---- sharded and sampled runs ------------------------------
        {.name = "--shards", .tools = kRunSweep, .metavar = "N",
         .value = kPositiveCount,
         .help = "split each run into N interval shards, simulated "
                 "independently and merged (see --warmup-insts)",
         .config = sets(&Cfg::shards)},
        {.name = "--interval-insts", .tools = kRunSweep, .metavar = "K",
         .value = kPositiveCount,
         .help = "shard every K retired instructions instead",
         .config = sets(&Cfg::intervalInsts)},
        {.name = "--warmup-insts", .tools = kRunSweep, .metavar = "W",
         .value = {"expects a positive count or 'full'",
                   [](Arg &a) {
                       a.count = a.text == "full"
                                     ? UINT64_MAX
                                     : parseCount(a.text).value_or(0);
                       return a.count > 0;
                   }},
         .help = "per-shard detailed-warmup prefix in instructions, or "
                 "'full' (default): replay from instruction 0, bit-identical "
                 "to the monolithic run (with --sample, one interval)",
         .needs = partition, .config = sets(&Cfg::warmupInsts)},
        {.name = "--sample", .tools = kRunSweep, .metavar = "N",
         .value = kPositiveCount,
         .help = "SimPoint-style sampled replay: cluster the intervals into "
                 "at most N phases by basic-block vector and simulate one "
                 "representative of each, weighted by its phase "
                 "(approximate)",
         .config = sets(&Cfg::sampleK)},
        {.name = "--sample-interval-insts", .tools = kRunSweep,
         .metavar = "K", .value = kPositiveCount,
         .help = "sampling interval in instructions (default 1000000)",
         .config = sets(&Cfg::sampleIntervalInsts)},
        {.name = "--jobs", .tools = Run, .metavar = "N",
         .value = kPositiveInt,
         .help = "worker threads for the shards or representatives "
                 "(default 1)",
         .needs = partition, .config = sets(&Cfg::shardJobs)},
        {.name = "--shard-jobs", .tools = Sweep, .metavar = "N",
         .value = kPositiveInt,
         .help = "worker threads per run for its shards or representatives "
                 "(default 1)",
         .needs = partition, .config = sets(&Cfg::shardJobs)},
        {.name = "--jobs", .tools = Sweep, .metavar = "N",
         .value = kPositiveInt,
         .help = "sweep worker threads (default: one per hardware thread)"},

        // ---- run cache ---------------------------------------------
        {.name = "--cache-dir", .tools = kRunSweep, .metavar = "PATH",
         .help = "persistent on-disk run cache: a run already in it is "
                 "read, not simulated (also VSIM_CACHE_DIR; not for --asm "
                 "or pipeline-traced runs)"},
        {.name = "--cache-max-bytes", .tools = kRunSweep, .metavar = "N",
         .value = kPositiveCount,
         .help = "cap the cache directory at N bytes, evicting the least "
                 "recently used entries (also VSIM_CACHE_MAX_BYTES)"},

        // ---- output ------------------------------------------------
        {.name = "--json", .tools = Run, .metavar = "[PATH]",
         .help = "print the statistics as one JSON object, to PATH if given"},
        {.name = "--json", .tools = Sweep, .metavar = "PATH",
         .help = "write every cell as JSON"},
        {.name = "--csv", .tools = Sweep, .metavar = "PATH",
         .help = "write every cell as CSV"},
        {.name = "--out", .alias = "-o", .tools = Tracegen,
         .metavar = "FILE", .help = "output trace path"},
        {.name = "--out-dir", .tools = Tracegen, .metavar = "DIR",
         .help = "output directory for --all (files are <name>.vst)"},
        {.name = "--list", .tools = Asm,
         .help = "list addresses, words and disassembly"},
        {.name = "--run", .tools = Asm, .help = "run on the functional core"},
        {.name = "--max", .tools = Asm, .metavar = "N",
         .value = kPositiveCount,
         .help = "stop --run after N instructions (default 100000000)"},
    };
}

} // namespace

const std::vector<Option> &
options()
{
    static const std::vector<Option> all = table();
    return all;
}

} // namespace vsim::cli
