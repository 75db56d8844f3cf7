#include "cache.hh"

#include <bit>

#include "vsim/base/logging.hh"

namespace vsim::mem
{

namespace
{

bool
isPow2(std::uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

} // namespace

Cache::Cache(const CacheConfig &config) : cfg(config)
{
    VSIM_ASSERT(isPow2(cfg.sizeBytes), cfg.name, ": size not power of 2");
    VSIM_ASSERT(isPow2(static_cast<std::uint64_t>(cfg.blockBytes)),
                cfg.name, ": block size not power of 2");
    VSIM_ASSERT(cfg.assoc > 0, cfg.name, ": bad associativity");
    const std::uint64_t blocks =
        cfg.sizeBytes / static_cast<std::uint64_t>(cfg.blockBytes);
    VSIM_ASSERT(blocks % static_cast<std::uint64_t>(cfg.assoc) == 0,
                cfg.name, ": blocks not divisible by associativity");
    numSets = static_cast<int>(blocks / static_cast<std::uint64_t>(cfg.assoc));
    VSIM_ASSERT(isPow2(static_cast<std::uint64_t>(numSets)),
                cfg.name, ": set count not power of 2");
    blockShift = std::countr_zero(
        static_cast<std::uint64_t>(cfg.blockBytes));
    lines.resize(blocks);
}

std::uint64_t
Cache::blockAddr(std::uint64_t addr) const
{
    return addr >> blockShift;
}

std::uint64_t
Cache::setIndex(std::uint64_t block) const
{
    return block & static_cast<std::uint64_t>(numSets - 1);
}

bool
Cache::access(std::uint64_t addr, bool is_write, Eviction *evicted)
{
    if (evicted)
        *evicted = Eviction{};
    const std::uint64_t block = blockAddr(addr);
    const std::uint64_t set = setIndex(block);
    Line *base = &lines[set * static_cast<std::uint64_t>(cfg.assoc)];

    // Tags store the whole block number so they are always unambiguous.
    Line *victim = base;
    for (int w = 0; w < cfg.assoc; ++w) {
        Line &line = base[w];
        if (line.valid && line.tag == block) {
            line.lastUse = ++useCounter;
            line.dirty = line.dirty || is_write;
            accesses.record(true);
            return true;
        }
        if (!line.valid) {
            victim = &line;
        } else if (victim->valid && line.lastUse < victim->lastUse) {
            victim = &line;
        }
    }

    accesses.record(false);
    if (victim->valid && victim->dirty)
        ++writebackCount;
    if (evicted) {
        evicted->valid = victim->valid;
        evicted->dirty = victim->valid && victim->dirty;
        evicted->addr =
            victim->tag * static_cast<std::uint64_t>(cfg.blockBytes);
    }
    victim->valid = true;
    victim->dirty = is_write;
    victim->tag = block;
    victim->lastUse = ++useCounter;
    return false;
}

bool
Cache::probe(std::uint64_t addr) const
{
    const std::uint64_t block = blockAddr(addr);
    const std::uint64_t set = setIndex(block);
    const Line *base = &lines[set * static_cast<std::uint64_t>(cfg.assoc)];
    for (int w = 0; w < cfg.assoc; ++w) {
        if (base[w].valid && base[w].tag == block)
            return true;
    }
    return false;
}

void
Cache::save(StateWriter &w) const
{
    // A Line has padding: its flags and its words go as two arrays.
    w.tag("CACH");
    w.u64(lines.size());
    std::vector<std::uint8_t> flags(lines.size());
    std::vector<std::uint64_t> words(2 * lines.size());
    for (std::size_t i = 0; i < lines.size(); ++i) {
        flags[i] = static_cast<std::uint8_t>(lines[i].valid
                                             | (lines[i].dirty << 1));
        words[2 * i] = lines[i].tag;
        words[2 * i + 1] = lines[i].lastUse;
    }
    w.array(flags.data(), flags.size());
    w.array(words.data(), words.size());
    w.u64(useCounter);
    accesses.save(w);
    w.u64(writebackCount);
}

void
Cache::restore(StateReader &r)
{
    r.tag("CACH");
    const std::uint64_t n = r.u64();
    VSIM_ASSERT(n == lines.size(),
                cfg.name, ": snapshot geometry mismatch");
    std::vector<std::uint8_t> flags(lines.size());
    std::vector<std::uint64_t> words(2 * lines.size());
    r.array(flags.data(), flags.size());
    r.array(words.data(), words.size());
    for (std::size_t i = 0; i < lines.size(); ++i) {
        lines[i].valid = flags[i] & 1;
        lines[i].dirty = flags[i] & 2;
        lines[i].tag = words[2 * i];
        lines[i].lastUse = words[2 * i + 1];
    }
    useCounter = r.u64();
    accesses.restore(r);
    writebackCount = r.u64();
}

void
Cache::flush()
{
    for (auto &line : lines) {
        if (line.valid && line.dirty)
            ++writebackCount;
        line = Line{};
    }
    useCounter = 0;
}

CacheHierarchy::CacheHierarchy(const CacheConfig &l1_cfg, Cache &l2,
                               const HierarchyLatencies &lat)
    : l1Cache(l1_cfg), l2Cache(l2), lat(lat)
{}

int
CacheHierarchy::access(std::uint64_t addr, bool is_write)
{
    Eviction victim;
    if (l1Cache.access(addr, is_write, &victim))
        return lat.l1Hit;
    // Fill from L2; the L2 sees the miss as a (clean) read, since this
    // is a timing-only model.
    const int latency = l2Cache.access(addr, false) ? lat.l2Hit
                                                    : lat.l2Miss;
    // A dirty L1 victim drains into the L2 as a write. The writeback
    // sits behind a write buffer, so it does not lengthen the demand
    // fill — but the L2 tag/dirty state and its access/writeback
    // counters must see the traffic.
    if (victim.dirty)
        l2Cache.access(victim.addr, true);
    return latency;
}

} // namespace vsim::mem
