/**
 * @file
 * The command-line tools' option table and its parser. Every flag and
 * positional argument of the tools is one Option in options(): its
 * name, operand, rule, help line, the flags it needs, and what it sets
 * -- an edit to a run's CoreConfig, a value the tool reads back by
 * name, or both. One loop parses argv against the table, and the usage
 * text is rendered from the same entries.
 */

#ifndef VSPEC_TOOLS_CLI_HH
#define VSPEC_TOOLS_CLI_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "vsim/assembler/program.hh"
#include "vsim/core/core_config.hh"

namespace vsim::cli
{

/** The tools that read the table, one bit each. */
enum Tool : unsigned
{
    Run = 1,
    Sweep = 2,
    Tracegen = 4,
    Asm = 8,
    Stacks = 16,
};

/** An operand as given: its text, and its count or choice index. */
struct Arg
{
    std::string text;
    std::uint64_t count = 0;
};

/** The rule an operand must meet. */
struct Value
{
    std::string rule{}; //!< what a rejection says ("expects 1..24")
    /** Checks arg.text and sets arg.count; null accepts any text. */
    std::function<bool(Arg &arg)> read{};
    std::vector<std::string> choices{}; //!< a choice's names, for the usage
};

struct Option
{
    /** "--window", or a positional argument's placeholder ("NAME"). */
    std::string name{};
    std::string alias{}; //!< e.g. "-o"
    unsigned tools = 0;  //!< Tool bits
    /**
     * The operand as the usage shows it: none when empty, optional in
     * brackets ("[PATH]": the next argument unless it starts with
     * "--"), else required ("N": the next argument).
     */
    std::string metavar{};
    Value value{};
    std::string help{};
    /** Flags at least one of which must be given with this one. */
    std::vector<std::string> needs{};
    bool stops = false; //!< parsing ends at this flag (--list)
    /** The edit to a run's configuration, or null. */
    std::function<void(core::CoreConfig &cfg, const Arg &arg)> config{};
    bool speculativeOnly = false; //!< a sweep edits speculative jobs only
    /** A sweep marks each job's label with this and the count. */
    std::string mark{};
};

/**
 * @p text as a count, zero included: a full token of decimal digits,
 * so a sign, a leading space, trailing garbage and overflow are
 * rejected rather than skipped, wrapped or clamped.
 */
std::optional<std::uint64_t> parseCount(std::string_view text);

/** Every flag of every tool, each declared once. */
const std::vector<Option> &options();

/**
 * A tool's command line, parsed against the table: each operand meets
 * its rule and each flag has the flags it needs. The constructor exits
 * 2 on the first broken rule, after printing the usage for an unknown
 * flag or a positional argument too many.
 */
class Parsed
{
  public:
    Parsed(Tool tool, int argc, char **argv);

    bool has(std::string_view name) const;
    /** The last operand given to @p name, or "" when none was. */
    std::string text(std::string_view name) const;
    /** The last count given to @p name, or @p fallback. */
    std::uint64_t count(std::string_view name,
                        std::uint64_t fallback) const;
    /** Every operand given to @p name, in order. */
    std::vector<std::string> texts(std::string_view name) const;

    /**
     * Make every configuration edit on @p cfg, in command-line order;
     * for a @p speculative false one, skip those for speculative jobs.
     */
    void edit(core::CoreConfig &cfg, bool speculative = true) const;
    /** The label marks of the edits given (" window=96 fetch=16"). */
    std::string marks() const;

    /** Print the usage text to stderr and exit 2. */
    [[noreturn]] void usage() const;
    /** Print @p message to stderr and exit 2. */
    [[noreturn]] void fail(const std::string &message) const;

  private:
    struct Given
    {
        const Option *option;
        std::optional<Arg> arg;
    };

    void check(const Option &option, Arg &arg) const;
    const Arg *last(std::string_view name) const;

    Tool tool;
    std::string argv0;
    std::vector<Given> given; //!< in command-line order
};

/** The persistent run cache the flags and the environment ask for. */
struct DiskCache
{
    std::string dir; //!< empty for none
    std::uint64_t maxBytes = 0;

    /** Attach it to the process-wide run cache, if there is one. */
    void attach() const;
};

/**
 * The VRISC assembly file @p path, assembled: the --asm / FILE.s input
 * of vspec_run, vspec_tracegen and vspec_asm. A file that cannot be
 * opened prints "cannot open PATH" to stderr and exits 1; an assembly
 * error throws vsim::FatalError.
 */
assembler::Program assembleFile(const std::string &path);

/**
 * The rules vspec_run and vspec_sweep share, checked on @p cfg, the
 * configuration the flags' edits give: the partition rules of
 * sim::partitionError, and the disk cache -- the flag, else
 * VSIM_CACHE_DIR / VSIM_CACHE_MAX_BYTES, and a size cap needs a
 * directory. Exits 2 on a broken rule.
 */
DiskCache checkRunRules(const Parsed &args, const core::CoreConfig &cfg);

} // namespace vsim::cli

#endif // VSPEC_TOOLS_CLI_HH
