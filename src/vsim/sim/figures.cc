/**
 * @file
 * The paper's tables and figures as named sweeps (the engine that runs
 * them is sweep.cc). Each figure is defined once, by one function: it
 * lays its grid out as blocks, one configuration on every workload of
 * the sweep, and returns the jobs together with the renderer of the
 * table the paper shows. The renderer walks the same axes in the same
 * order and reads each result at the position its block was given,
 * never by label: vspec_sweep's --window and --fetch-width overrides
 * rewrite the labels. Every machine and model a table names is read
 * from the configuration its block ran, after those overrides.
 */

#include <cstdint>
#include <limits>
#include <utility>

#include "sweep.hh"
#include "vsim/base/logging.hh"
#include "vsim/base/stats.hh"
#include "vsim/vpred/vpred.hh"
#include "vsim/workloads/workloads.hh"

namespace vsim::sim
{

std::vector<std::string>
sweepWorkloads(bool quick)
{
    if (quick)
        return {"compress", "m88k", "queens"};
    std::vector<std::string> names;
    for (const auto &w : workloads::all())
        names.push_back(w.name);
    return names;
}

std::vector<std::string>
sweepWorkloads(const SweepOptions &opt)
{
    if (!opt.workloads.empty())
        return opt.workloads;
    return sweepWorkloads(opt.quick);
}

std::vector<MachineConfig>
sweepMachines(bool quick)
{
    if (quick)
        return {{8, 48}};
    return paperMachines();
}

std::string
configLabel(const core::CoreConfig &cfg)
{
    if (!cfg.useValuePrediction)
        return "base";
    return cfg.model.name + " "
           + timingConfLabel(cfg.updateTiming, cfg.confidence);
}

namespace
{

using core::ConfidenceKind;
using core::CoreStats;
using core::SpecModel;
using core::UpdateTiming;
using Count = std::uint64_t CoreStats::*;

/** Percentage @p num/@p denom; NaN (rendered "n/a") on empty runs. */
double
pct(std::uint64_t num, std::uint64_t denom)
{
    if (denom == 0)
        return std::numeric_limits<double>::quiet_NaN();
    return 100.0 * static_cast<double>(num) / static_cast<double>(denom);
}

/**
 * A figure's jobs, as they ran, and their results; cell w of the block
 * at position b is b + w.
 */
struct Cells
{
    const std::vector<std::string> &workloads;
    const std::vector<SweepJob> &jobs;
    const std::vector<RunResult> &results;

    const RunResult &
    at(std::size_t block, std::size_t w) const
    {
        return results.at(block + w);
    }

    /** The configuration every cell of block @p block ran. */
    const core::CoreConfig &
    config(std::size_t block) const
    {
        return jobs.at(block).cfg;
    }

    /**
     * The machine block @p block ran: "<issue width>/<window size>",
     * plus its fetch width when that was set apart from the issue
     * width.
     */
    std::string
    machine(std::size_t block) const
    {
        const core::CoreConfig &cfg = config(block);
        std::string label =
            MachineConfig{cfg.issueWidth, cfg.windowSize}.label();
        if (cfg.fetchWidth >= 0)
            label += " fetch=" + std::to_string(cfg.fetchWidth);
        return label;
    }

    const std::string &
    model(std::size_t block) const
    {
        return config(block).model.name;
    }

    /** Speedup of block @p vp over block @p base, per workload. */
    std::vector<double>
    speedups(std::size_t base, std::size_t vp) const
    {
        std::vector<double> out;
        for (std::size_t w = 0; w < workloads.size(); ++w)
            out.push_back(speedup(at(base, w), at(vp, w)));
        return out;
    }

    double
    hmeanSpeedup(std::size_t base, std::size_t vp) const
    {
        return harmonicMean(speedups(base, vp));
    }

    /** Arithmetic mean of @p stat over the runs of one block. */
    template <class Stat>
    double
    mean(std::size_t block, Stat stat) const
    {
        std::vector<double> xs;
        for (std::size_t w = 0; w < workloads.size(); ++w)
            xs.push_back(stat(at(block, w)));
        return arithmeticMean(xs);
    }

    /** Mean percentage of eligible instructions in class @p cls. */
    double
    classShare(std::size_t block, Count cls) const
    {
        return mean(block, [cls](const RunResult &r) {
            return pct(r.stats.*cls, r.stats.vpEligible);
        });
    }
};

/** One sweep's job list, built in blocks, and its table. */
struct Figure
{
    explicit Figure(const SweepOptions &opt)
        : scale(opt.scale), workloads(sweepWorkloads(opt))
    {
    }

    /**
     * Append @p cfg on @p m for every workload, labelled "<machine>
     * <config>" unless @p label is given; returns the block's position.
     */
    std::size_t
    add(const MachineConfig &m, const core::CoreConfig &cfg,
        const std::string &label = "")
    {
        const std::size_t block = jobs.size();
        for (const std::string &w : workloads) {
            SweepJob job;
            job.label = label.empty() ? m.label() + " " + configLabel(cfg)
                                      : label;
            job.workload = w;
            job.scale = scale;
            job.cfg = cfg;
            jobs.push_back(std::move(job));
        }
        return block;
    }

    int scale;
    std::vector<std::string> workloads;
    std::vector<SweepJob> jobs;
    /** Renders the table from the jobs' results; null for none. */
    std::function<std::string(const Cells &)> table;
};

const MachineConfig kMiddle{8, 48};

const char *
confName(ConfidenceKind conf)
{
    switch (conf) {
      case ConfidenceKind::Real: return "real";
      case ConfidenceKind::Oracle: return "oracle";
      case ConfidenceKind::Always: return "always";
    }
    return "?";
}

/** "== title ==", a blank line, the table and another blank line. */
std::string
section(const std::string &title, const TextTable &table)
{
    return "== " + title + " ==\n\n" + table.render() + "\n";
}

/**
 * Speedup of each block of @p vps over block @p base: one row per
 * workload, one column per block, and an "(hmean)" row.
 */
TextTable
speedupTable(const Cells &c, std::vector<std::string> header,
             std::size_t base, const std::vector<std::size_t> &vps)
{
    TextTable table;
    table.setHeader(std::move(header));
    std::vector<std::vector<double>> cols;
    for (std::size_t vp : vps)
        cols.push_back(c.speedups(base, vp));
    for (std::size_t w = 0; w < c.workloads.size(); ++w) {
        std::vector<std::string> row = {c.workloads[w]};
        for (const auto &col : cols)
            row.push_back(TextTable::fmt(col[w], 3));
        table.addRow(row);
    }
    std::vector<std::string> mean_row = {"(hmean)"};
    for (const auto &col : cols)
        mean_row.push_back(TextTable::fmt(harmonicMean(col), 3));
    table.addRow(mean_row);
    return table;
}

/**
 * A valid-operand policy against a speculative one: per workload, the
 * speedup of each over block @p base, then @p validCount of the valid
 * runs and each of @p specCounts of the speculative ones; and an
 * "(hmean)" row.
 */
TextTable
policyTable(const Cells &c, std::vector<std::string> header,
            std::size_t base, std::size_t valid, std::size_t spec,
            Count validCount, const std::vector<Count> &specCounts)
{
    TextTable table;
    table.setHeader(std::move(header));
    const std::vector<double> sv = c.speedups(base, valid);
    const std::vector<double> ss = c.speedups(base, spec);
    for (std::size_t w = 0; w < c.workloads.size(); ++w) {
        std::vector<std::string> row = {
            c.workloads[w], TextTable::fmt(sv[w], 3),
            TextTable::fmt(ss[w], 3),
            std::to_string(c.at(valid, w).stats.*validCount)};
        for (Count count : specCounts)
            row.push_back(std::to_string(c.at(spec, w).stats.*count));
        table.addRow(row);
    }
    table.addRow({"(hmean)", TextTable::fmt(harmonicMean(sv), 3),
                  TextTable::fmt(harmonicMean(ss), 3)});
    return table;
}

Figure
baseFigure(const SweepOptions &opt)
{
    Figure f(opt);
    for (const auto &m : sweepMachines(opt.quick))
        f.add(m, baseConfig(m));
    return f;
}

/**
 * Table 1: dynamic length and share of value-predicted instructions
 * per workload, from the great model's D/R runs. The length is the
 * run's retired count.
 */
Figure
table1Figure(const SweepOptions &opt)
{
    Figure f(opt);
    const std::size_t runs =
        f.add(kMiddle, vpConfig(kMiddle, SpecModel::greatModel(),
                                ConfidenceKind::Real,
                                UpdateTiming::Delayed));
    f.table = [runs](const Cells &c) {
        TextTable table;
        table.setHeader({"Benchmark", "Stands for", "Dynamic Instr (K)",
                         "Instructions Predicted (%)"});
        std::vector<double> rates;
        for (std::size_t w = 0; w < c.workloads.size(); ++w) {
            const std::string &name = c.workloads[w];
            const RunResult &r = c.at(runs, w);
            rates.push_back(pct(r.stats.vpEligible, r.stats.retired));
            table.addRow({name,
                          isTraceWorkload(name)
                              ? "-"
                              : workloads::byName(name).specAnalog,
                          std::to_string(r.stats.retired / 1000),
                          TextTable::fmt(rates.back(), 1)});
        }
        table.addRow({"(mean)", "", "",
                      TextTable::fmt(arithmeticMean(rates), 1)});
        return "== Table 1: Benchmark Characteristics ==\n"
               "(paper: SPECint95, 40-203M instr, 61.7%-82.0% "
               "predicted; ours: open substitutes)\n\n"
               + table.render() + "\n";
    };
    return f;
}

/**
 * Figure 3: harmonic-mean speedup of good/great/super over base per
 * machine, under D/R, I/R, D/O and I/O.
 */
Figure
fig3Figure(const SweepOptions &opt)
{
    const std::vector<SpecModel> models = {SpecModel::goodModel(),
                                           SpecModel::greatModel(),
                                           SpecModel::superModel()};
    const std::vector<std::pair<UpdateTiming, ConfidenceKind>> combos = {
        {UpdateTiming::Delayed, ConfidenceKind::Real},
        {UpdateTiming::Immediate, ConfidenceKind::Real},
        {UpdateTiming::Delayed, ConfidenceKind::Oracle},
        {UpdateTiming::Immediate, ConfidenceKind::Oracle},
    };
    const std::vector<MachineConfig> machines = sweepMachines(opt.quick);
    Figure f(opt);
    std::vector<std::size_t> base, vp;
    for (const auto &m : machines)
        base.push_back(f.add(m, baseConfig(m)));
    for (const auto &m : machines)
        for (const SpecModel &model : models)
            for (const auto &[timing, conf] : combos)
                vp.push_back(f.add(m, vpConfig(m, model, conf, timing)));
    f.table = [=](const Cells &c) {
        std::string out =
            "== Figure 3: Speculative execution models, average "
            "speedup ==\n(harmonic mean over "
            + std::to_string(c.workloads.size())
            + " workloads; speedup = base cycles / VP cycles)\n\n";
        std::vector<std::string> header = {"model"};
        for (const auto &[timing, conf] : combos)
            header.push_back(timingConfLabel(timing, conf));
        auto next = vp.begin();
        for (const std::size_t b : base) {
            out += "-- machine " + c.machine(b)
                   + " (issue width / window size) --\n";
            TextTable table;
            table.setHeader(header);
            for (std::size_t m = 0; m < models.size(); ++m) {
                std::vector<std::string> row = {c.model(*next)};
                for (std::size_t k = 0; k < combos.size(); ++k)
                    row.push_back(
                        TextTable::fmt(c.hmeanSpeedup(b, *next++), 3));
                table.addRow(row);
            }
            out += table.render() + "\n";
        }
        return out;
    };
    return f;
}

/**
 * Figure 4: mean CH/CL/IH/IL breakdown of the great model under real
 * confidence, per machine and update timing.
 */
Figure
fig4Figure(const SweepOptions &opt)
{
    const std::vector<MachineConfig> machines = sweepMachines(opt.quick);
    const std::vector<UpdateTiming> timings = {UpdateTiming::Delayed,
                                               UpdateTiming::Immediate};
    Figure f(opt);
    std::vector<std::size_t> blocks;
    for (const auto &m : machines)
        for (UpdateTiming timing : timings)
            blocks.push_back(f.add(
                m, vpConfig(m, SpecModel::greatModel(),
                            ConfidenceKind::Real, timing)));
    f.table = [=](const Cells &c) {
        TextTable table;
        table.setHeader({"config", "timing", "CH %", "CL %", "IH %",
                         "IL %", "correct %"});
        for (const std::size_t b : blocks) {
            const double ch = c.classShare(b, &CoreStats::vpCH);
            const double cl = c.classShare(b, &CoreStats::vpCL);
            const double ih = c.classShare(b, &CoreStats::vpIH);
            const double il = c.classShare(b, &CoreStats::vpIL);
            table.addRow(
                {c.machine(b),
                 c.config(b).updateTiming == UpdateTiming::Delayed ? "D"
                                                                   : "I",
                 TextTable::fmt(ch, 1), TextTable::fmt(cl, 1),
                 TextTable::fmt(ih, 2), TextTable::fmt(il, 1),
                 TextTable::fmt(ch + cl, 1)});
        }
        return section("Figure 4: Average prediction accuracy ("
                           + c.model(blocks.front())
                           + " model, real confidence)",
                       table);
    };
    return f;
}

/**
 * Confidence estimation (§3.6): resetting counters of 1-4 bits, a
 * lowered threshold, always-confident and the oracle, on 8/48 with
 * the great model and delayed updates.
 */
Figure
confidenceFigure(const SweepOptions &opt)
{
    struct Variant
    {
        const char *label;
        const char *title;
        ConfidenceKind kind;
        int bits;
        int threshold; //!< -1 = saturated only
    };
    const std::vector<Variant> variants = {
        {"ctr-1bit", "ctr-1bit", ConfidenceKind::Real, 1, -1},
        {"ctr-2bit", "ctr-2bit", ConfidenceKind::Real, 2, -1},
        {"ctr-3bit", "ctr-3bit (paper)", ConfidenceKind::Real, 3, -1},
        {"ctr-4bit", "ctr-4bit", ConfidenceKind::Real, 4, -1},
        {"ctr-3bit-thr4", "ctr-3bit thr=4", ConfidenceKind::Real, 3, 4},
        {"always", "always", ConfidenceKind::Always, 3, -1},
        {"oracle", "oracle", ConfidenceKind::Oracle, 3, -1},
    };
    Figure f(opt);
    const std::size_t base = f.add(kMiddle, baseConfig(kMiddle));
    std::vector<std::size_t> blocks;
    for (const Variant &v : variants) {
        core::CoreConfig cfg = vpConfig(kMiddle, SpecModel::greatModel(),
                                        v.kind, UpdateTiming::Delayed);
        cfg.confidenceBits = v.bits;
        cfg.confidenceThreshold = v.threshold;
        blocks.push_back(
            f.add(kMiddle, cfg, kMiddle.label() + " " + v.label));
    }
    f.table = [=](const Cells &c) {
        TextTable table;
        table.setHeader({"confidence", "hmean speedup", "CH %", "CL %",
                         "IH %"});
        for (std::size_t v = 0; v < variants.size(); ++v) {
            const std::size_t b = blocks[v];
            table.addRow(
                {variants[v].title,
                 TextTable::fmt(c.hmeanSpeedup(base, b), 3),
                 TextTable::fmt(c.classShare(b, &CoreStats::vpCH), 1),
                 TextTable::fmt(c.classShare(b, &CoreStats::vpCL), 1),
                 TextTable::fmt(c.classShare(b, &CoreStats::vpIH), 2)});
        }
        return section("Ablation: confidence estimation ("
                           + c.machine(blocks.front()) + ", "
                           + c.model(blocks.front()) + ", delayed update)",
                       table);
    };
    return f;
}

/**
 * Value-predictor choice: every predictor makeValuePredictor builds
 * (FCM, last-value, stride and hybrid), in that order, on 8/48, great
 * model, oracle confidence and immediate updates.
 */
Figure
predictorsFigure(const SweepOptions &opt)
{
    const std::vector<std::string> &preds = vpred::valuePredictorNames();
    Figure f(opt);
    const std::size_t base = f.add(kMiddle, baseConfig(kMiddle));
    std::vector<std::size_t> blocks;
    for (const std::string &pred : preds) {
        core::CoreConfig cfg =
            vpConfig(kMiddle, SpecModel::greatModel(),
                     ConfidenceKind::Oracle, UpdateTiming::Immediate);
        cfg.valuePredictor = pred;
        blocks.push_back(f.add(kMiddle, cfg, kMiddle.label() + " " + pred));
    }
    f.table = [=](const Cells &c) {
        TextTable table;
        table.setHeader({"predictor", "hmean speedup", "mean accuracy %"});
        for (std::size_t p = 0; p < preds.size(); ++p) {
            const double acc = c.mean(blocks[p], [](const RunResult &r) {
                return 100.0 * r.stats.predictionAccuracy();
            });
            table.addRow({preds[p],
                          TextTable::fmt(c.hmeanSpeedup(base, blocks[p]), 3),
                          TextTable::fmt(acc, 1)});
        }
        return section("Ablation: value predictor ("
                           + c.machine(blocks.front()) + ", "
                           + c.model(blocks.front())
                           + ", oracle confidence, immediate update)",
                       table);
    };
    return f;
}

/**
 * Verification approaches (§3.2) under the great model's latencies,
 * with oracle and with real confidence.
 */
Figure
verifSchemeFigure(const SweepOptions &opt)
{
    const std::vector<core::VerifyScheme> schemes = {
        core::VerifyScheme::Flattened, core::VerifyScheme::Hierarchical,
        core::VerifyScheme::RetirementBased, core::VerifyScheme::Hybrid};
    const std::vector<ConfidenceKind> confs = {ConfidenceKind::Oracle,
                                               ConfidenceKind::Real};
    Figure f(opt);
    const std::size_t base = f.add(kMiddle, baseConfig(kMiddle));
    std::vector<std::size_t> blocks;
    for (ConfidenceKind conf : confs) {
        for (core::VerifyScheme scheme : schemes) {
            SpecModel model = SpecModel::greatModel();
            model.verifyScheme = scheme;
            if (scheme == core::VerifyScheme::Hierarchical)
                model.invalScheme = core::InvalScheme::Hierarchical;
            blocks.push_back(f.add(
                kMiddle,
                vpConfig(kMiddle, model, conf, UpdateTiming::Immediate),
                kMiddle.label() + " " + confName(conf) + " "
                    + core::verifySchemeName(scheme)));
        }
    }
    f.table = [=](const Cells &c) {
        std::vector<std::string> header = {"workload"};
        for (core::VerifyScheme scheme : schemes)
            header.push_back(core::verifySchemeName(scheme));
        std::string out;
        auto next = blocks.begin();
        for (ConfidenceKind conf : confs) {
            const std::vector<std::size_t> vps(next, next + schemes.size());
            next += schemes.size();
            out += section("Ablation: verification scheme ("
                               + c.machine(vps.front()) + ", "
                               + c.model(vps.front()) + " latencies, "
                               + confName(conf) + " confidence)",
                           speedupTable(c, header, base, vps));
        }
        return out;
    };
    return f;
}

/**
 * Execution-Equality-Verification latency swept 0-3 on 8/48 under
 * oracle confidence.
 */
Figure
verifLatencyFigure(const SweepOptions &opt)
{
    const std::vector<int> lats = {0, 1, 2, 3};
    Figure f(opt);
    const std::size_t base = f.add(kMiddle, baseConfig(kMiddle));
    std::vector<std::size_t> blocks;
    for (int lat : lats) {
        SpecModel model = SpecModel::greatModel();
        model.execToEquality = lat;
        blocks.push_back(f.add(
            kMiddle,
            vpConfig(kMiddle, model, ConfidenceKind::Oracle,
                     UpdateTiming::Immediate),
            kMiddle.label() + " verif-lat=" + std::to_string(lat)));
    }
    f.table = [=](const Cells &c) {
        std::vector<std::string> header = {"workload"};
        for (int lat : lats)
            header.push_back("lat=" + std::to_string(lat));
        return section("Ablation: Execution-Equality-Verification latency "
                       "sweep ("
                           + c.machine(blocks.front())
                           + ", oracle confidence)",
                       speedupTable(c, header, base, blocks));
    };
    return f;
}

/**
 * Invalidation-Reissue latency swept 0-4 on 8/48 under always
 * confidence, where misspeculation exposes the reissue path, and
 * under real confidence.
 */
Figure
reissueLatencyFigure(const SweepOptions &opt)
{
    const std::vector<int> lats = {0, 1, 2, 4};
    const std::vector<ConfidenceKind> confs = {ConfidenceKind::Always,
                                               ConfidenceKind::Real};
    Figure f(opt);
    const std::size_t base = f.add(kMiddle, baseConfig(kMiddle));
    std::vector<std::size_t> blocks;
    for (ConfidenceKind conf : confs) {
        for (int lat : lats) {
            SpecModel model = SpecModel::greatModel();
            model.invalidateToReissue = lat;
            blocks.push_back(f.add(
                kMiddle,
                vpConfig(kMiddle, model, conf, UpdateTiming::Immediate),
                kMiddle.label() + " " + confName(conf)
                    + " reissue-lat=" + std::to_string(lat)));
        }
    }
    f.table = [=](const Cells &c) {
        std::vector<std::string> header = {"workload"};
        for (int lat : lats)
            header.push_back("lat=" + std::to_string(lat));
        std::string out;
        auto next = blocks.begin();
        for (ConfidenceKind conf : confs) {
            const std::vector<std::size_t> vps(next, next + lats.size());
            next += lats.size();
            out += section("Ablation: Invalidation-Reissue latency sweep ("
                               + c.machine(vps.front()) + ", "
                               + confName(conf)
                               + " confidence, immediate update)",
                           speedupTable(c, header, base, vps));
        }
        return out;
    };
    return f;
}

/**
 * Branch resolution (§3.2, after Sodani & Sohi): branches resolved
 * only with valid operands, as the paper evaluates, or with
 * speculative ones, under real and oracle confidence.
 */
Figure
branchResolutionFigure(const SweepOptions &opt)
{
    const std::vector<ConfidenceKind> confs = {ConfidenceKind::Real,
                                               ConfidenceKind::Oracle};
    Figure f(opt);
    const std::size_t base = f.add(kMiddle, baseConfig(kMiddle));
    std::vector<std::size_t> blocks;
    for (ConfidenceKind conf : confs) {
        for (bool valid : {true, false}) {
            SpecModel model = SpecModel::greatModel();
            model.branchNeedsValidOps = valid;
            blocks.push_back(f.add(
                kMiddle,
                vpConfig(kMiddle, model, conf, UpdateTiming::Immediate),
                kMiddle.label() + " " + confName(conf)
                    + (valid ? " valid-branch" : " spec-branch")));
        }
    }
    f.table = [=](const Cells &c) {
        std::string out;
        auto next = blocks.begin();
        for (ConfidenceKind conf : confs) {
            const std::size_t valid = *next++;
            const std::size_t spec = *next++;
            out += section(
                "Ablation: branch resolution policy (" + c.machine(valid)
                    + ", " + c.model(valid) + ", " + confName(conf)
                    + " confidence, immediate update)",
                policyTable(c,
                            {"workload", "valid-only", "speculative",
                             "squashes(valid)", "squashes(spec)"},
                            base, valid, spec, &CoreStats::squashes,
                            {&CoreStats::squashes}));
        }
        return out;
    };
    return f;
}

/**
 * Memory resolution (§3.2): memory operations issued only with valid
 * addresses, as the paper evaluates, or with speculative ones, for
 * each named model under real confidence and delayed updates.
 */
Figure
memResolutionFigure(const SweepOptions &opt)
{
    const std::vector<std::string> models = {"super", "great", "good"};
    Figure f(opt);
    const std::size_t base = f.add(kMiddle, baseConfig(kMiddle));
    std::vector<std::size_t> blocks;
    for (const std::string &name : models) {
        for (bool valid : {true, false}) {
            SpecModel model = SpecModel::byName(name);
            model.memNeedsValidOps = valid;
            blocks.push_back(f.add(
                kMiddle,
                vpConfig(kMiddle, model, ConfidenceKind::Real,
                         UpdateTiming::Delayed),
                kMiddle.label() + " " + name
                    + (valid ? " valid-mem" : " spec-mem")));
        }
    }
    f.table = [=](const Cells &c) {
        std::string out;
        auto next = blocks.begin();
        for (std::size_t m = 0; m < models.size(); ++m) {
            const std::size_t valid = *next++;
            const std::size_t spec = *next++;
            out += section(
                "Ablation: memory resolution policy (" + c.machine(valid)
                    + ", " + c.model(valid)
                    + ", real confidence, delayed update)",
                policyTable(c,
                            {"workload", "valid-ops", "spec-mem",
                             "nullified(valid)", "nullified(spec)",
                             "forwarded(spec)"},
                            base, valid, spec,
                            &CoreStats::nullifications,
                            {&CoreStats::nullifications,
                             &CoreStats::loadsForwarded}));
        }
        return out;
    };
    return f;
}

/**
 * Issue selection (§3.5): the paper's typed, speculative-last,
 * oldest-first policy against three alternatives, on 8/48 with the
 * great model under real and oracle confidence.
 */
Figure
selectionFigure(const SweepOptions &opt)
{
    const std::vector<std::pair<const char *, core::SelectPolicy>>
        policies = {
            {"typed+spec-last (paper)", core::SelectPolicy::TypedSpecLast},
            {"typed only", core::SelectPolicy::TypedOnly},
            {"oldest first", core::SelectPolicy::OldestFirst},
            {"typed+spec-first", core::SelectPolicy::TypedSpecFirst},
        };
    const std::vector<ConfidenceKind> confs = {ConfidenceKind::Real,
                                               ConfidenceKind::Oracle};
    Figure f(opt);
    const std::size_t base = f.add(kMiddle, baseConfig(kMiddle));
    std::vector<std::size_t> blocks;
    for (ConfidenceKind conf : confs) {
        for (const auto &[title, policy] : policies) {
            SpecModel model = SpecModel::greatModel();
            model.selectPolicy = policy;
            blocks.push_back(f.add(
                kMiddle,
                vpConfig(kMiddle, model, conf, UpdateTiming::Immediate),
                kMiddle.label() + " " + confName(conf) + " "
                    + core::selectPolicyName(policy)));
        }
    }
    f.table = [=](const Cells &c) {
        std::string out;
        auto next = blocks.begin();
        for (ConfidenceKind conf : confs) {
            const std::size_t first = *next;
            TextTable table;
            table.setHeader({"policy", "hmean speedup"});
            for (const auto &policy : policies)
                table.addRow({policy.first,
                              TextTable::fmt(c.hmeanSpeedup(base, *next++),
                                             3)});
            out += section("Ablation: selection policy (" + c.machine(first)
                               + ", " + c.model(first) + ", "
                               + confName(conf)
                               + " confidence, immediate update)",
                           table);
        }
        return out;
    };
    return f;
}

/** The named sweep whose jobs and table @p define lays out. */
NamedSweep
named(std::string name, std::string description,
      Figure (*define)(const SweepOptions &))
{
    return {std::move(name), std::move(description),
            [define](const SweepOptions &opt) { return define(opt).jobs; },
            [define](const SweepOptions &opt,
                     const std::vector<SweepJob> &jobs,
                     const std::vector<RunResult> &results) {
                const Figure f = define(opt);
                VSIM_ASSERT(jobs.size() == f.jobs.size()
                                && results.size() == f.jobs.size(),
                            "figure rendered from ", jobs.size(),
                            " jobs and ", results.size(), " results for ",
                            f.jobs.size(), " jobs");
                return f.table
                           ? f.table(Cells{f.workloads, jobs, results})
                           : std::string();
            }};
}

} // namespace

const std::vector<NamedSweep> &
namedSweeps()
{
    static const std::vector<NamedSweep> sweeps = {
        named("base", "base machines (no value prediction), all workloads",
              baseFigure),
        named("fig3",
              "Fig. 3 grid: models x D/R-I/R-D/O-I/O x machines "
              "(plus base runs)",
              fig3Figure),
        named("fig4",
              "Fig. 4 grid: great model, real confidence, D and I "
              "update timing",
              fig4Figure),
        named("confidence", "confidence-estimator design space on 8/48",
              confidenceFigure),
        named("predictors",
              "value-predictor choice on 8/48 (oracle, immediate)",
              predictorsFigure),
        named("verif-latency",
              "Execution-Equality-Verification latency sweep 0-3 on 8/48",
              verifLatencyFigure),
        named("reissue-latency",
              "Invalidation-Reissue latency sweep 0-4 on 8/48, always "
              "and real confidence",
              reissueLatencyFigure),
        named("table1",
              "Table 1: dynamic length and share of predicted "
              "instructions (8/48, great D/R)",
              table1Figure),
        named("verif-scheme",
              "verification scheme on 8/48 (great, oracle and real)",
              verifSchemeFigure),
        named("branch-resolution",
              "branch resolution with valid vs speculative operands on "
              "8/48",
              branchResolutionFigure),
        named("mem-resolution",
              "memory resolution with valid vs speculative addresses on "
              "8/48, per model",
              memResolutionFigure),
        named("selection",
              "issue-selection policy on 8/48 (great, real and oracle)",
              selectionFigure),
    };
    return sweeps;
}

const NamedSweep &
sweepByName(const std::string &name)
{
    for (const NamedSweep &s : namedSweeps()) {
        if (s.name == name)
            return s;
    }
    VSIM_FATAL("unknown sweep '", name, "'");
}

} // namespace vsim::sim
