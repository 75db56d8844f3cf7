/**
 * @file
 * vspec-stacks: compare the CPI stacks of two result files. Accepts
 * any JSON this repo's drivers emit with cpi_* fields — a vspec-run
 * --json object, a vspec-run --stacks object, a vspec-sweep --json
 * array or a vspec-sweep --stacks array — and prints a per-category
 * cycle diff for every cell present in both files, so a verify-scheme
 * (or any other) ablation reads as "where did the cycles move", not
 * just "cycles changed".
 *
 *   vspec-stacks base.json hier.json
 *
 * The parser is a deliberately small scanner over the flat objects
 * the report writers produce (no JSON library in the repo); anything
 * it cannot read exits 1 with a diagnostic.
 */

#include <array>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli.hh"
#include "vsim/obs/cpi.hh"

namespace
{

using vsim::obs::CpiCat;
using vsim::obs::cpiCatName;
using vsim::obs::kCpiCatCount;

/** One result cell: identity plus its CPI stack. */
struct StackRow
{
    std::string label;
    std::string workload;
    std::string config;
    std::uint64_t cycles = 0;
    std::array<std::uint64_t, kCpiCatCount> cpi{};

    std::string
    key() const
    {
        return label + "\x1f" + workload + "\x1f" + config;
    }

    std::string
    title() const
    {
        std::string t = label.empty() ? workload
                                      : label + " (" + workload + ")";
        if (!config.empty())
            t += " [" + config + "]";
        return t;
    }
};

/**
 * Split a JSON document into the texts of its top-level objects: the
 * whole body for "{...}", each depth-1 object for "[{...}, ...]".
 * String-literal aware so braces inside values cannot desync it.
 */
bool
splitObjects(const std::string &text, std::vector<std::string> &out)
{
    int depth = 0;
    bool in_string = false;
    bool escaped = false;
    std::size_t start = 0;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (in_string) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"') {
            in_string = true;
        } else if (c == '{') {
            if (++depth == 1)
                start = i;
        } else if (c == '}') {
            if (depth == 0)
                return false;
            if (--depth == 0)
                out.push_back(text.substr(start, i - start + 1));
        }
    }
    return depth == 0 && !in_string && !out.empty();
}

/** Find `"name": <value>` in @p obj; value text (raw) or empty. */
std::string
findValue(const std::string &obj, const std::string &name)
{
    const std::string needle = "\"" + name + "\":";
    const std::size_t at = obj.find(needle);
    if (at == std::string::npos)
        return "";
    std::size_t i = at + needle.size();
    while (i < obj.size() && std::isspace(static_cast<unsigned char>(
                                 obj[i])))
        ++i;
    if (i >= obj.size())
        return "";
    if (obj[i] == '"') {
        // String value: scan to the closing unescaped quote.
        std::string v;
        for (std::size_t j = i + 1; j < obj.size(); ++j) {
            if (obj[j] == '\\' && j + 1 < obj.size()) {
                v += obj[++j];
            } else if (obj[j] == '"') {
                return v;
            } else {
                v += obj[j];
            }
        }
        return "";
    }
    std::string v;
    while (i < obj.size()
           && (std::isalnum(static_cast<unsigned char>(obj[i]))
               || obj[i] == '.' || obj[i] == '-' || obj[i] == '+'))
        v += obj[i++];
    return v;
}

/**
 * A plain unsigned decimal that fits 64 bits: no sign, no fraction, no
 * overflow (strtoull alone wraps "-5" and clamps an overflow).
 */
bool
parseU64(const std::string &text, std::uint64_t &out)
{
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])))
        return false;
    errno = 0;
    char *end = nullptr;
    out = std::strtoull(text.c_str(), &end, 10);
    return *end == '\0' && errno != ERANGE;
}

/** Parse every cell carrying a CPI stack out of one result file. */
bool
loadStacks(const char *path, std::vector<StackRow> &rows)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "error: cannot open %s\n", path);
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    std::vector<std::string> objects;
    if (!splitObjects(ss.str(), objects)) {
        std::fprintf(stderr, "error: %s: not a JSON object/array\n",
                     path);
        return false;
    }
    for (const std::string &obj : objects) {
        StackRow row;
        row.label = findValue(obj, "label");
        row.workload = findValue(obj, "workload");
        row.config = findValue(obj, "config");
        std::vector<std::pair<std::string, std::uint64_t *>> fields = {
            {"cycles", &row.cycles}};
        for (std::size_t c = 0; c < kCpiCatCount; ++c)
            fields.push_back(
                {std::string("cpi_") + cpiCatName(static_cast<CpiCat>(c)),
                 &row.cpi[c]});
        // An object without the fields is not a stack cell and is
        // skipped; a field that is present but not a count fails.
        bool complete = true;
        for (const auto &[name, slot] : fields) {
            const std::string text = findValue(obj, name);
            if (text.empty()) {
                complete = false;
                break;
            }
            if (!parseU64(text, *slot)) {
                std::fprintf(stderr,
                             "error: %s: \"%s\" is not an unsigned 64-bit "
                             "count: %s\n",
                             path, name.c_str(), text.c_str());
                return false;
            }
        }
        if (complete)
            rows.push_back(std::move(row));
    }
    if (rows.empty()) {
        std::fprintf(stderr,
                     "error: %s: no objects with cycles and cpi_* "
                     "fields\n",
                     path);
        return false;
    }
    return true;
}

void
diffOne(const StackRow &a, const StackRow &b)
{
    std::printf("== %s ==\n", a.title().c_str());
    std::printf("  %-16s %14s %14s %14s %9s\n", "category", "A cycles",
                "B cycles", "delta", "delta%");
    for (std::size_t c = 0; c < kCpiCatCount; ++c) {
        const std::int64_t delta =
            static_cast<std::int64_t>(b.cpi[c])
            - static_cast<std::int64_t>(a.cpi[c]);
        const double pct =
            a.cycles == 0 ? 0.0
                          : 100.0 * static_cast<double>(delta)
                                / static_cast<double>(a.cycles);
        std::printf("  %-16s %14llu %14llu %+14lld %+8.2f%%\n",
                    cpiCatName(static_cast<CpiCat>(c)),
                    static_cast<unsigned long long>(a.cpi[c]),
                    static_cast<unsigned long long>(b.cpi[c]),
                    static_cast<long long>(delta), pct);
    }
    const std::int64_t tdelta = static_cast<std::int64_t>(b.cycles)
                                - static_cast<std::int64_t>(a.cycles);
    std::printf("  %-16s %14llu %14llu %+14lld\n", "total",
                static_cast<unsigned long long>(a.cycles),
                static_cast<unsigned long long>(b.cycles),
                static_cast<long long>(tdelta));
}

} // namespace

int
main(int argc, char **argv)
{
    const vsim::cli::Parsed args(vsim::cli::Stacks, argc, argv);
    if (!args.has("B.json"))
        args.usage();
    std::vector<StackRow> as, bs;
    if (!loadStacks(argv[1], as) || !loadStacks(argv[2], bs))
        return 1;

    // Single-cell files diff directly (labels may legitimately
    // differ: "base" vs "great D/R"); multi-cell files pair up by
    // identity so reordered sweeps still align.
    std::size_t matched = 0;
    std::vector<const StackRow *> only_a, only_b;
    if (as.size() == 1 && bs.size() == 1) {
        diffOne(as[0], bs[0]);
        matched = 1;
    } else {
        for (const StackRow &a : as) {
            bool found = false;
            for (const StackRow &b : bs) {
                if (a.key() == b.key()) {
                    if (matched)
                        std::printf("\n");
                    diffOne(a, b);
                    ++matched;
                    found = true;
                    break;
                }
            }
            if (!found)
                only_a.push_back(&a);
        }
        for (const StackRow &b : bs) {
            bool found = false;
            for (const StackRow &a : as) {
                if (a.key() == b.key()) {
                    found = true;
                    break;
                }
            }
            if (!found)
                only_b.push_back(&b);
        }
    }
    if (matched == 0) {
        std::fprintf(stderr,
                     "error: no common cells between %s (%zu) and %s "
                     "(%zu)\n",
                     argv[1], as.size(), argv[2], bs.size());
        return 1;
    }
    // A partial match means the two files describe different sweeps;
    // diffing only the intersection would silently hide cells, so
    // name every unmatched cell and fail.
    if (!only_a.empty() || !only_b.empty()) {
        std::fprintf(stderr,
                     "error: cell sets differ (%zu compared, %zu only "
                     "in %s, %zu only in %s)\n",
                     matched, only_a.size(), argv[1], only_b.size(),
                     argv[2]);
        for (const StackRow *row : only_a)
            std::fprintf(stderr, "  only in %s: %s\n", argv[1],
                         row->title().c_str());
        for (const StackRow *row : only_b)
            std::fprintf(stderr, "  only in %s: %s\n", argv[2],
                         row->title().c_str());
        return 1;
    }
    return 0;
}
