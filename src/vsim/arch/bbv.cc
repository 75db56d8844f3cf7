#include "bbv.hh"

#include <algorithm>

#include "vsim/base/logging.hh"
#include "vsim/base/thread_pool.hh"

namespace vsim::arch
{

std::size_t
bbvBucket(std::uint64_t block_start_pc)
{
    // SplitMix64 finalizer: full-avalanche, fixed constants, no state.
    std::uint64_t z = block_start_pc + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    return static_cast<std::size_t>(z % kBbvDim);
}

BbvAccumulator::BbvAccumulator(std::uint64_t interval_insts)
    : period(interval_insts)
{
    VSIM_ASSERT(period > 0, "BBV interval length must be > 0");
}

void
BbvAccumulator::resumeBlock(std::uint64_t block_start_pc)
{
    VSIM_ASSERT(fill == 0 && intervals_.empty(),
                "resumeBlock after the first step");
    bucket = bbvBucket(block_start_pc);
    newBlock = false;
}

void
BbvAccumulator::finish()
{
    if (fill > 0) {
        intervals_.push_back(current);
        current = Bbv{};
        fill = 0;
    }
}

std::vector<Bbv>
profileBbv(const ExecTrace &trace, std::uint64_t interval_insts,
           int workers)
{
    VSIM_ASSERT(interval_insts > 0, "BBV interval length must be > 0");
    const auto &e = trace.entries;
    const std::uint64_t intervals =
        (e.size() + interval_insts - 1) / interval_insts;
    const std::uint64_t ranges = std::min<std::uint64_t>(
        intervals, static_cast<std::uint64_t>(std::max(workers, 1)));
    std::vector<std::vector<Bbv>> parts(ranges);
    runConcurrently(static_cast<int>(ranges), [&](int r) {
        const std::uint64_t k = static_cast<std::uint64_t>(r);
        const std::uint64_t lo = intervals * k / ranges * interval_insts;
        const std::uint64_t hi =
            std::min<std::uint64_t>(e.size(), intervals * (k + 1) / ranges
                                                  * interval_insts);
        BbvAccumulator acc(interval_insts);
        if (lo > 0 && !e[lo - 1].inst.isControl()) {
            // The block in flight at lo began after the last control
            // transfer before it.
            std::uint64_t start = lo - 1;
            while (start > 0 && !e[start - 1].inst.isControl())
                --start;
            acc.resumeBlock(e[start].pc);
        }
        for (std::uint64_t i = lo; i < hi; ++i)
            acc.step(e[i]);
        acc.finish();
        parts[k] = acc.intervals();
    });
    std::vector<Bbv> out;
    out.reserve(intervals);
    for (const std::vector<Bbv> &part : parts)
        out.insert(out.end(), part.begin(), part.end());
    return out;
}

} // namespace vsim::arch
