/**
 * @file
 * Unit tests for the memory subsystem: sparse memory image semantics
 * and the set-associative cache timing model (hits, LRU eviction,
 * dirty write-back counting, hierarchy latencies).
 */

#include <gtest/gtest.h>

#include "vsim/mem/cache.hh"
#include "vsim/mem/mem_image.hh"

namespace
{

using namespace vsim::mem;

TEST(MemImage, UnmappedReadsZero)
{
    MemImage m;
    EXPECT_EQ(m.read(0xdeadbeef, 8), 0u);
    EXPECT_EQ(m.mappedPages(), 0u);
}

TEST(MemImage, ReadBackWritten)
{
    MemImage m;
    m.write(0x1000, 0x1122334455667788ull, 8);
    EXPECT_EQ(m.read(0x1000, 8), 0x1122334455667788ull);
    // Little-endian byte order.
    EXPECT_EQ(m.read(0x1000, 1), 0x88u);
    EXPECT_EQ(m.read(0x1007, 1), 0x11u);
    EXPECT_EQ(m.read(0x1002, 2), 0x5566u);
    EXPECT_EQ(m.read(0x1004, 4), 0x11223344u);
}

TEST(MemImage, CrossPageAccess)
{
    MemImage m;
    const std::uint64_t addr = MemImage::kPageSize - 4;
    m.write(addr, 0xa1b2c3d4e5f60718ull, 8);
    EXPECT_EQ(m.read(addr, 8), 0xa1b2c3d4e5f60718ull);
    EXPECT_EQ(m.mappedPages(), 2u);
}

// Accesses inside one page take the one-lookup path; these sit on its
// edges and just past them.
TEST(MemImage, AccessEndingAtPageEnd)
{
    MemImage m;
    const std::uint64_t addr = 5 * MemImage::kPageSize + 4088;
    m.write(addr, 0x0102030405060708ull, 8);
    EXPECT_EQ(m.read(addr, 8), 0x0102030405060708ull);
    EXPECT_EQ(m.mappedPages(), 1u);
    EXPECT_EQ(m.readByte(addr + 7), 0x01u);
    EXPECT_EQ(m.readByte(addr + 8), 0u);
}

TEST(MemImage, LastByteOfPage)
{
    MemImage m;
    const std::uint64_t addr = 2 * MemImage::kPageSize + 4095;
    m.write(addr, 0xabcd, 1);
    EXPECT_EQ(m.read(addr, 1), 0xcdu);
    EXPECT_EQ(m.mappedPages(), 1u);
    EXPECT_EQ(m.read(addr - 1, 2), 0xcd00u);
    EXPECT_EQ(m.read(addr, 2), 0xcdu);
}

TEST(MemImage, StraddlingReadWithOnePageMapped)
{
    const std::uint64_t addr = 3 * MemImage::kPageSize - 2;
    MemImage low;
    low.write(addr, 0xbbaa, 2); // the lower page only
    EXPECT_EQ(low.read(addr, 4), 0xbbaau);
    EXPECT_EQ(low.mappedPages(), 1u);

    MemImage high;
    high.write(addr + 2, 0xddcc, 2); // the upper page only
    EXPECT_EQ(high.read(addr, 4), 0xddcc0000u);
    EXPECT_EQ(high.mappedPages(), 1u);
}

TEST(MemImage, AccessWrapsToAddressZero)
{
    MemImage m;
    const std::uint64_t addr = ~std::uint64_t{0} - 3; // 2^64 - 4
    m.write(addr, 0x8877665544332211ull, 8);
    EXPECT_EQ(m.read(addr, 8), 0x8877665544332211ull);
    EXPECT_EQ(m.read(addr, 4), 0x44332211u);
    EXPECT_EQ(m.read(0, 4), 0x88776655u);
    EXPECT_EQ(m.mappedPages(), 2u);
}

TEST(MemImage, DeepCopyIsIndependent)
{
    MemImage a;
    a.write(0x2000, 42, 8);
    MemImage b = a;
    b.write(0x2000, 43, 8);
    EXPECT_EQ(a.read(0x2000, 8), 42u);
    EXPECT_EQ(b.read(0x2000, 8), 43u);
}

TEST(MemImage, WriteBlock)
{
    MemImage m;
    const std::uint8_t bytes[] = {1, 2, 3, 4, 5};
    m.writeBlock(0x3000, bytes, sizeof(bytes));
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(m.readByte(0x3000 + i), bytes[i]);
}

CacheConfig
smallCache()
{
    CacheConfig cfg;
    cfg.name = "test";
    cfg.sizeBytes = 256; // 8 blocks
    cfg.assoc = 2;       // 4 sets
    cfg.blockBytes = 32;
    return cfg;
}

TEST(Cache, ColdMissThenHit)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.access(0x0, false));
    EXPECT_TRUE(c.access(0x0, false));
    EXPECT_TRUE(c.access(0x1f, false)); // same block
    EXPECT_FALSE(c.access(0x20, false)); // next block
    EXPECT_EQ(c.stats().total(), 4u);
    EXPECT_EQ(c.stats().hits(), 2u);
}

TEST(Cache, LruEvictsLeastRecent)
{
    Cache c(smallCache());
    // Three blocks mapping to set 0 (4 sets * 32B = 128B stride).
    c.access(0 * 128, false);
    c.access(1 * 128, false);
    // Touch block 0 so block 1 becomes LRU.
    c.access(0 * 128, false);
    // Block 2 evicts block 1.
    c.access(2 * 128, false);
    EXPECT_TRUE(c.probe(0 * 128));
    EXPECT_FALSE(c.probe(1 * 128));
    EXPECT_TRUE(c.probe(2 * 128));
}

TEST(Cache, DirtyEvictionCountsWriteback)
{
    Cache c(smallCache());
    c.access(0 * 128, true); // dirty
    c.access(1 * 128, false);
    c.access(2 * 128, false); // evicts dirty block 0
    EXPECT_EQ(c.writebacks(), 1u);
    // Clean eviction adds nothing.
    c.access(3 * 128, false);
    EXPECT_EQ(c.writebacks(), 1u);
}

TEST(Cache, ProbeDoesNotDisturbState)
{
    Cache c(smallCache());
    c.access(0, false);
    const auto hits_before = c.stats().hits();
    EXPECT_TRUE(c.probe(0));
    EXPECT_FALSE(c.probe(0x20));
    EXPECT_EQ(c.stats().hits(), hits_before);
}

TEST(Cache, FlushDropsEverything)
{
    Cache c(smallCache());
    c.access(0, true);
    c.flush();
    EXPECT_FALSE(c.probe(0));
}

TEST(Cache, FlushCountsDirtyWritebacks)
{
    Cache c(smallCache());
    c.access(0, true);    // dirty
    c.access(32, false);  // clean
    c.access(64, true);   // dirty
    EXPECT_EQ(c.writebacks(), 0u);
    c.flush();
    EXPECT_EQ(c.writebacks(), 2u); // both dirty lines drained
    // A second flush finds an empty cache: no double counting.
    c.flush();
    EXPECT_EQ(c.writebacks(), 2u);
    // A write hit followed by a flush counts exactly once.
    c.access(0, false);
    c.access(0, true);
    c.flush();
    EXPECT_EQ(c.writebacks(), 3u);
}

TEST(Cache, AccessReportsEvictedBlock)
{
    Cache c(smallCache());
    Eviction ev;
    c.access(0 * 128, true, &ev); // set 0, filled empty way
    EXPECT_FALSE(ev.valid);
    c.access(1 * 128, false, &ev);
    EXPECT_FALSE(ev.valid);
    c.access(2 * 128, false, &ev); // evicts dirty block 0
    EXPECT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(ev.addr, 0u);
    c.access(2 * 128, true, &ev); // hit: nothing displaced
    EXPECT_FALSE(ev.valid);
    c.access(3 * 128, false, &ev); // evicts block 1*128, clean
    EXPECT_TRUE(ev.valid);
    EXPECT_FALSE(ev.dirty);
    EXPECT_EQ(ev.addr, 1u * 128u);
}

TEST(Cache, DistinctSetsDoNotConflict)
{
    Cache c(smallCache());
    for (int i = 0; i < 4; ++i)
        c.access(static_cast<std::uint64_t>(i) * 32, false);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(c.probe(static_cast<std::uint64_t>(i) * 32)) << i;
}

TEST(Hierarchy, PaperLatencies)
{
    CacheConfig l2_cfg;
    l2_cfg.name = "l2";
    l2_cfg.sizeBytes = 1 << 20;
    l2_cfg.assoc = 4;
    l2_cfg.blockBytes = 64;
    Cache l2(l2_cfg);

    CacheConfig l1_cfg;
    l1_cfg.name = "l1d";
    l1_cfg.sizeBytes = 64 << 10;
    l1_cfg.assoc = 4;
    l1_cfg.blockBytes = 32;

    HierarchyLatencies lat; // 2 / 12 / 36
    CacheHierarchy h(l1_cfg, l2, lat);

    // Cold: L1 miss, L2 miss -> 36.
    EXPECT_EQ(h.access(0x4000, false), 36);
    // Now resident in both -> L1 hit -> 2.
    EXPECT_EQ(h.access(0x4000, false), 2);
    // Evict nothing; a different block in the same L2 line: L1 miss,
    // L2 hit (64B L2 blocks cover two 32B L1 blocks) -> 12.
    EXPECT_EQ(h.access(0x4020, false), 12);
}

TEST(Hierarchy, L1DirtyEvictionInstallsInL2)
{
    CacheConfig l2_cfg;
    l2_cfg.name = "l2";
    l2_cfg.sizeBytes = 1 << 20;
    l2_cfg.assoc = 4;
    l2_cfg.blockBytes = 64;
    Cache l2(l2_cfg);

    HierarchyLatencies lat;
    CacheHierarchy h(smallCache(), l2, lat); // tiny 2-way L1

    h.access(0 * 128, true);  // write: L1 block 0 dirty, L2 installs
    h.access(1 * 128, false); // fills the set's other way
    h.access(2 * 128, false); // evicts dirty block 0 -> L2 write

    // Three demand fills (cold L2 misses) plus the writeback of the
    // L1 victim, which hits the block the first demand fill installed.
    EXPECT_EQ(l2.stats().total(), 4u);
    EXPECT_EQ(l2.stats().hits(), 1u);
    // The writeback dirtied the L2 copy: flushing the L2 must drain
    // exactly that one dirty line.
    EXPECT_EQ(l2.writebacks(), 0u);
    l2.flush();
    EXPECT_EQ(l2.writebacks(), 1u);
}

TEST(Hierarchy, CleanL1EvictionDoesNotTouchL2)
{
    CacheConfig l2_cfg;
    l2_cfg.name = "l2";
    l2_cfg.sizeBytes = 1 << 20;
    l2_cfg.assoc = 4;
    l2_cfg.blockBytes = 64;
    Cache l2(l2_cfg);

    HierarchyLatencies lat;
    CacheHierarchy h(smallCache(), l2, lat);

    h.access(0 * 128, false); // clean
    h.access(1 * 128, false);
    h.access(2 * 128, false); // evicts clean block 0: no L2 write
    EXPECT_EQ(l2.stats().total(), 3u); // demand fills only
    l2.flush();
    EXPECT_EQ(l2.writebacks(), 0u);
}

TEST(Hierarchy, L2SharedBetweenL1s)
{
    CacheConfig l2_cfg;
    l2_cfg.name = "l2";
    l2_cfg.sizeBytes = 1 << 20;
    l2_cfg.assoc = 4;
    l2_cfg.blockBytes = 64;
    Cache l2(l2_cfg);

    CacheConfig l1_cfg = smallCache();
    HierarchyLatencies lat;
    CacheHierarchy hi(l1_cfg, l2, lat);
    CacheHierarchy hd(l1_cfg, l2, lat);

    EXPECT_EQ(hi.access(0x8000, false), 36); // fills shared L2
    EXPECT_EQ(hd.access(0x8000, false), 12); // other L1 misses, L2 hits
}

} // namespace
