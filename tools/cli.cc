#include "cli.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>

#include "vsim/assembler/assembler.hh"
#include "vsim/sim/disk_cache.hh"
#include "vsim/sim/shard.hh"
#include "vsim/sim/sweep.hh"

namespace vsim::cli
{

namespace
{

/** Each tool's synopsis lines, ahead of its flags in the usage. */
std::vector<std::string>
synopses(Tool tool)
{
    switch (tool) {
      case Run:
        return {"(--workload NAME | --asm FILE | --trace FILE) [options]"};
      case Sweep:
        return {"NAME [options]", "--list"};
      case Tracegen:
        return {"(--workload NAME | --asm FILE) [--scale N] -o FILE",
                "--all [--scale N] --out-dir DIR"};
      case Asm:
        return {"FILE.s [--list] [--run] [--max N]"};
      case Stacks:
        return {"A.json B.json"};
    }
    return {};
}

bool
isFlag(const Option &o)
{
    return o.name[0] == '-';
}

/** @p tool's flag spelled @p text, or nullptr. */
const Option *
findFlag(Tool tool, std::string_view text)
{
    for (const Option &o : options()) {
        if ((o.tools & tool) && isFlag(o)
            && (text == o.name || (!o.alias.empty() && text == o.alias)))
            return &o;
    }
    return nullptr;
}

/** "A", "A or B", "A, B or C". */
std::string
joinOr(const std::vector<std::string> &names)
{
    std::string out;
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (i > 0)
            out += i + 1 == names.size() ? " or " : ", ";
        out += names[i];
    }
    return out;
}

/** One usage entry: @p flag, then @p help wrapped into its column. */
std::string
usageEntry(const std::string &flag, const std::string &help)
{
    constexpr std::size_t kColumn = 24, kWidth = 79;
    std::string out, line = flag;
    if (line.size() + 1 >= kColumn) {
        out = line + '\n';
        line.clear();
    }
    std::istringstream words(help);
    for (std::string word; words >> word;) {
        if (line.size() > kColumn && line.size() + 1 + word.size() > kWidth) {
            out += line + '\n';
            line.clear();
        }
        line.resize(std::max(line.size() + 1, kColumn), ' ');
        line += word;
    }
    return out + line + '\n';
}

} // namespace

Parsed::Parsed(Tool tool_, int argc, char **argv)
    : tool(tool_), argv0(argv[0])
{
    std::vector<const Option *> positionals;
    for (const Option &o : options()) {
        if ((o.tools & tool) && !isFlag(o))
            positionals.push_back(&o);
    }
    std::size_t next_positional = 0;
    for (int i = 1; i < argc; ++i) {
        const Option *o = findFlag(tool, argv[i]);
        if (!o) {
            if (argv[i][0] == '-' || next_positional == positionals.size())
                usage();
            given.push_back({positionals[next_positional++], Arg{argv[i]}});
            continue;
        }
        Given g{o, std::nullopt};
        const bool optional = !o->metavar.empty() && o->metavar[0] == '[';
        if (!o->metavar.empty() && !optional) {
            if (i + 1 >= argc)
                fail(o->name + " needs a value");
            g.arg = Arg{argv[++i]};
        } else if (optional && i + 1 < argc
                   && std::strncmp(argv[i + 1], "--", 2) != 0) {
            g.arg = Arg{argv[++i]};
        }
        if (g.arg)
            check(*o, *g.arg);
        given.push_back(std::move(g));
        if (o->stops)
            return;
    }
    // A positional argument is checked once every flag is read, so a
    // stopping flag after it (vspec_sweep NAME --list) still wins.
    for (Given &g : given) {
        if (!isFlag(*g.option))
            check(*g.option, *g.arg);
    }
    for (const Given &g : given) {
        const std::vector<std::string> &needs = g.option->needs;
        if (!needs.empty()
            && std::none_of(needs.begin(), needs.end(),
                            [this](const std::string &n) { return has(n); }))
            fail(g.option->name + " needs " + joinOr(needs));
    }
}

void
Parsed::check(const Option &option, Arg &arg) const
{
    if (option.value.read && !option.value.read(arg))
        fail(option.name + " " + option.value.rule + ", got '" + arg.text
             + "'");
}

const Arg *
Parsed::last(std::string_view name) const
{
    for (auto g = given.rbegin(); g != given.rend(); ++g) {
        if (g->option->name == name && g->arg)
            return &*g->arg;
    }
    return nullptr;
}

bool
Parsed::has(std::string_view name) const
{
    return std::any_of(given.begin(), given.end(), [&](const Given &g) {
        return g.option->name == name;
    });
}

std::string
Parsed::text(std::string_view name) const
{
    const Arg *a = last(name);
    return a ? a->text : std::string();
}

std::uint64_t
Parsed::count(std::string_view name, std::uint64_t fallback) const
{
    const Arg *a = last(name);
    return a ? a->count : fallback;
}

std::vector<std::string>
Parsed::texts(std::string_view name) const
{
    std::vector<std::string> out;
    for (const Given &g : given) {
        if (g.option->name == name && g.arg)
            out.push_back(g.arg->text);
    }
    return out;
}

void
Parsed::edit(core::CoreConfig &cfg, bool speculative) const
{
    for (const Given &g : given) {
        if (g.option->config && (speculative || !g.option->speculativeOnly))
            g.option->config(cfg, g.arg.value_or(Arg{}));
    }
}

std::string
Parsed::marks() const
{
    // Table order and the last value, however the flags were given.
    std::string out;
    for (const Option &o : options()) {
        const Arg *a = o.mark.empty() ? nullptr : last(o.name);
        if ((o.tools & tool) && a)
            out += " " + o.mark + std::to_string(a->count);
    }
    return out;
}

void
Parsed::usage() const
{
    std::string out;
    for (const std::string &s : synopses(tool))
        out += (out.empty() ? "usage: " : "       ") + argv0 + " " + s + "\n";
    for (const Option &o : options()) {
        if (!(o.tools & tool))
            continue;
        std::string help = o.help;
        for (std::size_t i = 0; i < o.value.choices.size(); ++i)
            help += (i ? ", " : " (one of: ") + o.value.choices[i];
        if (!o.value.choices.empty())
            help += ")";
        out += usageEntry("  " + (o.alias.empty() ? "" : o.alias + ", ")
                              + o.name
                              + (o.metavar.empty() ? "" : " " + o.metavar),
                          help);
    }
    std::fputs(out.c_str(), stderr);
    std::exit(2);
}

void
Parsed::fail(const std::string &message) const
{
    std::fprintf(stderr, "%s\n", message.c_str());
    std::exit(2);
}

void
DiskCache::attach() const
{
    if (dir.empty())
        return;
    auto disk = std::make_shared<sim::DiskRunCache>(dir);
    disk->setMaxBytes(maxBytes);
    sim::RunCache::process().attachDisk(std::move(disk));
}

assembler::Program
assembleFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        std::exit(1);
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    return assembler::assemble(ss.str(), path);
}

DiskCache
checkRunRules(const Parsed &args, const core::CoreConfig &cfg)
{
    if (const std::string broken = sim::partitionError(cfg); !broken.empty())
        args.fail(broken);
    DiskCache cache{args.text("--cache-dir"),
                    args.count("--cache-max-bytes", 0)};
    const char *env_dir = std::getenv("VSIM_CACHE_DIR");
    if (cache.dir.empty() && env_dir)
        cache.dir = env_dir;
    const char *env_max = std::getenv("VSIM_CACHE_MAX_BYTES");
    if (cache.maxBytes == 0 && env_max && *env_max) {
        // The variable reads like the flag it stands in for.
        Arg arg{env_max};
        const Value &v = findFlag(Run, "--cache-max-bytes")->value;
        if (!v.read(arg))
            args.fail("VSIM_CACHE_MAX_BYTES " + v.rule + ", got '" + arg.text
                      + "'");
        cache.maxBytes = arg.count;
    }
    if (cache.maxBytes > 0 && cache.dir.empty())
        args.fail("--cache-max-bytes needs --cache-dir (or VSIM_CACHE_DIR)");
    return cache;
}

} // namespace vsim::cli
