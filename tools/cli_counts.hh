/**
 * @file
 * The command-line tools' count parsers, one copy for all of them. A
 * count is a full token of decimal digits: the first character must
 * be a digit, so a sign or leading space is rejected rather than
 * skipped or wrapped, and trailing garbage and overflow are rejected
 * too.
 */

#ifndef VSPEC_TOOLS_CLI_COUNTS_HH
#define VSPEC_TOOLS_CLI_COUNTS_HH

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string_view>

namespace vsim::cli
{

/** @p text as a count (zero included), or nullopt if it is not one. */
inline std::optional<std::uint64_t>
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

/**
 * A tool's flag-value parsers. A rejected value prints "FLAG expects
 * a positive ..., got 'TEXT'", then the tool's usage text when it has
 * one, and exits 2.
 */
struct CountParser
{
    const char *argv0;
    void (*usage)(const char *argv0) = nullptr;

    /** A count in 1..INT_MAX. */
    int
    positiveInt(const char *flag, const char *text) const
    {
        const auto v = parseCount(text);
        if (!v || *v == 0
            || *v > static_cast<std::uint64_t>(
                   std::numeric_limits<int>::max()))
            reject(flag, "a positive integer", text);
        return static_cast<int>(*v);
    }

    /** A count in 1..2^64-1. */
    std::uint64_t
    positiveU64(const char *flag, const char *text) const
    {
        const auto v = parseCount(text);
        if (!v || *v == 0)
            reject(flag, "a positive count", text);
        return *v;
    }

  private:
    [[noreturn]] void
    reject(const char *flag, const char *what, const char *text) const
    {
        std::fprintf(stderr, "%s expects %s, got '%s'\n", flag, what,
                     text);
        if (usage)
            usage(argv0);
        std::exit(2);
    }
};

} // namespace vsim::cli

#endif // VSPEC_TOOLS_CLI_COUNTS_HH
