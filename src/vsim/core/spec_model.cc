#include "spec_model.hh"

#include <cerrno>
#include <cstdlib>
#include <limits>

#include "vsim/base/logging.hh"

namespace vsim::core
{

namespace
{

/**
 * Parse a custom latency tuple "E,EI,EV,VF,IR,VB,VA": exactly seven
 * comma-separated non-negative integers, every field fully consumed.
 */
SpecModel
parseLatencyTuple(const std::string &spec)
{
    SpecModel m;
    m.name = spec;
    int *const order[7] = {&m.execToEquality,     &m.equalityToInvalidate,
                           &m.equalityToVerify,   &m.verifyToFreeResource,
                           &m.invalidateToReissue, &m.verifyToBranch,
                           &m.verifyAddrToMem};

    const char *p = spec.c_str();
    for (int i = 0; i < 7; ++i) {
        char *end = nullptr;
        errno = 0;
        const long v = std::strtol(p, &end, 10);
        // errno/ERANGE and the explicit int bound reject out-of-range
        // values strtol would otherwise clamp (silent truncation).
        if (end == p || errno == ERANGE || v < 0
            || v > std::numeric_limits<int>::max() || v > 1'000'000) {
            VSIM_FATAL("bad latency tuple '", spec, "': field ", i + 1,
                       " is not a non-negative integer (expected seven "
                       "comma-separated values E,EI,EV,VF,IR,VB,VA)");
        }
        *order[i] = static_cast<int>(v);
        p = end;
        if (i < 6) {
            if (*p != ',') {
                VSIM_FATAL("bad latency tuple '", spec, "': expected ',' "
                           "after field ", i + 1,
                           " (seven values E,EI,EV,VF,IR,VB,VA)");
            }
            ++p;
        }
    }
    if (*p != '\0') {
        VSIM_FATAL("bad latency tuple '", spec,
                   "': trailing characters after the seventh field");
    }
    return m;
}

} // namespace

SpecModel
SpecModel::byName(const std::string &name)
{
    if (name == "super")
        return superModel();
    if (name == "great")
        return greatModel();
    if (name == "good")
        return goodModel();
    if (name.find(',') != std::string::npos)
        return parseLatencyTuple(name);
    VSIM_FATAL("unknown speculative execution model '", name,
               "' (expected super/great/good, or a seven-value latency "
               "tuple like 0,0,1,1,1,1,1)");
}

} // namespace vsim::core
