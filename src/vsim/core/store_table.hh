/**
 * @file
 * Load disambiguation over a table of the LSQ's stores (§2.1, §3.2).
 *
 * The core copies its in-flight stores into a StoreTable once per
 * cycle, on the first load that needs it, and every load it checks or
 * issues in that cycle walks the same compact array: disambiguate()
 * visits the stores older than the load once and answers the ordering
 * rule (may it issue), forwarding (which bytes would it take, and from
 * which store) and, through a visitor, whatever else the caller
 * gathers per store (memDeps under speculative memory resolution).
 *
 * While it is built the table also records two summaries that answer
 * most of the selection loop's questions in O(1):
 *
 *  - the seq of the oldest store whose address is unknown. A load
 *    younger than it may not issue; the full pass would reach that
 *    store (or an earlier blocking one) and say the same.
 *  - the 8-byte blocks that known-address stores write, as a hashed
 *    bitmap (a superset of the set). A load none of whose blocks is
 *    marked shares no byte with any known-address store: no store
 *    covers any of its bytes, so it cannot forward, and none overlaps
 *    it, so none whose data is unusable blocks it.
 *
 * Both summaries reason over bytes modulo 2^64: a store or load that
 * wraps past the top of the address space marks and probes the blocks
 * of the bytes it actually touches. They therefore stay exact for any
 * rule that only lets a store cover bytes it writes: today's interval
 * overlap and coverMask() as much as a byte-wise overlap test.
 */

#ifndef VSIM_CORE_STORE_TABLE_HH
#define VSIM_CORE_STORE_TABLE_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace vsim::core
{

/**
 * One in-flight store as load disambiguation sees it in a cycle: the
 * fields of its RsEntry that the ordering rule, the forwarding test
 * and the byte merge read, packed so a load's pass streams a compact
 * array instead of the window's wide entries.
 */
struct StoreView
{
    std::uint64_t seq;
    std::uint64_t addr; //!< meaningful only when addrKnown
    std::uint64_t data; //!< the data operand's value
    int slot;
    std::uint8_t size;
    bool addrKnown;  //!< address computed
    bool dataUsable; //!< data present under the resolution rule
};

/** What one disambiguation pass found for a load. */
struct LoadCheck
{
    bool mayIssue = true; //!< every older store allows the load
    /** Load bytes some older store covers (mask over the value). */
    std::uint64_t covered = 0;
    /** The youngest covering store's data on those bytes. */
    std::uint64_t forwarded = 0;

    bool forwards() const { return covered != 0; }
};

namespace lsq
{

/** Mask of the low @p n bytes of a 64-bit value (all of it from 8). */
inline std::uint64_t
lowBytes(std::uint64_t n)
{
    return n >= 8 ? ~std::uint64_t{0} : (std::uint64_t{1} << (8 * n)) - 1;
}

/**
 * The ordering rule's overlap test: the store's and the load's byte
 * ranges intersect, with the range ends wrapping modulo 2^64.
 */
inline bool
overlaps(const StoreView &s, std::uint64_t addr, int size)
{
    return std::max(s.addr, addr)
           < std::min(s.addr + s.size,
                      addr + static_cast<std::uint64_t>(size));
}

/**
 * The bytes of the @p size-byte load at @p addr that store @p s
 * covers, as a mask over the load's little-endian value, with the
 * store's data shifted onto those bytes in @p placed. Byte addresses
 * compare one by one modulo 2^64: a store whose range wraps past the
 * top of the address space covers nothing, and a wrapping load still
 * finds the bytes it wraps onto. Nonzero exactly when overlaps() holds
 * unless one of the two ranges wraps.
 */
inline std::uint64_t
coverMask(const StoreView &s, std::uint64_t addr, int size,
          std::uint64_t &placed)
{
    if (s.addr + s.size < s.addr)
        return 0;
    const auto n = static_cast<std::uint64_t>(size);
    // The store starts `ahead` bytes into the load ...
    const std::uint64_t ahead = s.addr - addr;
    if (ahead < n) {
        placed = s.data << (8 * ahead);
        return lowBytes(ahead + s.size) & lowBytes(n) & ~lowBytes(ahead);
    }
    // ... or `behind` bytes before it.
    const std::uint64_t behind = addr - s.addr;
    if (behind < s.size) {
        placed = s.data >> (8 * behind);
        return lowBytes(s.size - behind) & lowBytes(n);
    }
    return 0;
}

} // namespace lsq

/** The LSQ's stores in program order, with the shortcut summaries. */
class StoreTable
{
  public:
    void
    clear()
    {
        views_.clear();
        oldestUnknown_ = UINT64_MAX;
        blocks_.fill(0);
    }

    /** Append @p s, younger than every store already in the table. */
    void
    push(const StoreView &s)
    {
        views_.push_back(s);
        if (!s.addrKnown) {
            oldestUnknown_ = std::min(oldestUnknown_, s.seq);
            return;
        }
        // An access of at most 8 bytes touches at most two blocks: the
        // block of its first byte and that of its last, modulo 2^64.
        mark(s.addr >> 3);
        mark((s.addr + s.size - 1) >> 3);
    }

    const std::vector<StoreView> &views() const { return views_; }

    /**
     * Is a store older than the load with seq @p load_seq still
     * without an address? Then the load may not issue.
     */
    bool
    unknownOlderThan(std::uint64_t load_seq) const
    {
        return load_seq > oldestUnknown_;
    }

    /**
     * Might a known-address store write a byte of one of the 8-byte
     * blocks the @p size-byte load at @p addr reads? false proves that
     * none does, so no store overlaps the load or covers any of its
     * bytes.
     */
    bool
    mayShareBlock(std::uint64_t addr, int size) const
    {
        return marked(addr >> 3)
               || marked((addr + static_cast<std::uint64_t>(size) - 1)
                         >> 3);
    }

    /**
     * One pass over the stores older than the load with seq @p seq at
     * @p addr: the ordering rule, forwarding and the forwarded bytes.
     * @p visit(store, overlap) sees every older store the pass gets
     * past, with the ordering rule's overlap verdict.
     */
    template <typename Visit>
    LoadCheck
    disambiguate(std::uint64_t seq, std::uint64_t addr, int size,
                 Visit &&visit) const
    {
        LoadCheck r;
        for (const StoreView &s : views_) {
            if (s.seq >= seq)
                break;
            const bool overlap = lsq::overlaps(s, addr, size);
            if (!s.addrKnown || (overlap && !s.dataUsable))
                return {false, 0, 0};
            // Oldest to youngest: the youngest store covering a byte
            // wins.
            std::uint64_t placed = 0;
            const std::uint64_t mask =
                lsq::coverMask(s, addr, size, placed);
            r.forwarded = (r.forwarded & ~mask) | (placed & mask);
            r.covered |= mask;
            visit(s, overlap);
        }
        return r;
    }

    LoadCheck
    disambiguate(std::uint64_t seq, std::uint64_t addr, int size) const
    {
        return disambiguate(seq, addr, size,
                            [](const StoreView &, bool) {});
    }

  private:
    static constexpr int kLog2Bits = 11; //!< the bitmap's 2048 bits

    static std::size_t
    bitOf(std::uint64_t block)
    {
        // Fibonacci hashing: nearby blocks land on scattered bits.
        return static_cast<std::size_t>(
            (block * 0x9E3779B97F4A7C15ull) >> (64 - kLog2Bits));
    }

    void
    mark(std::uint64_t block)
    {
        const std::size_t b = bitOf(block);
        blocks_[b / 64] |= std::uint64_t{1} << (b % 64);
    }

    bool
    marked(std::uint64_t block) const
    {
        const std::size_t b = bitOf(block);
        return (blocks_[b / 64] >> (b % 64)) & 1;
    }

    std::vector<StoreView> views_;
    std::uint64_t oldestUnknown_ = UINT64_MAX;
    /** Blocks known-address stores write (hashed; a superset). */
    std::array<std::uint64_t, (std::size_t{1} << kLog2Bits) / 64> blocks_{};
};

} // namespace vsim::core

#endif // VSIM_CORE_STORE_TABLE_HH
