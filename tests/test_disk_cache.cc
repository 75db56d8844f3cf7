/**
 * @file
 * Tests for the persistent on-disk run cache (vsim/sim/disk_cache.hh):
 * RunResult codec round-trips, cold/warm disk bit-identity,
 * build-fingerprint invalidation, corrupt/truncated-entry eviction,
 * and two processes sharing one store.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "vsim/base/logging.hh"
#include "vsim/base/state_io.hh"
#include "vsim/sim/disk_cache.hh"
#include "vsim/sim/simulator.hh"
#include "vsim/sim/sweep.hh"

namespace
{

using namespace vsim;
using core::ConfidenceKind;
using core::SpecModel;
using core::UpdateTiming;

namespace fs = std::filesystem;

/** Self-deleting scratch directory for a cache store. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        char buf[] = "/tmp/vsim_test_XXXXXX";
        VSIM_ASSERT(::mkdtemp(buf) != nullptr, "mkdtemp failed");
        path = buf;
    }

    ~TempDir() { fs::remove_all(path); }
};

/** A cheap cell whose RunResult exercises every codec section. */
sim::SweepJob
richJob(const std::string &workload = "queens")
{
    sim::SweepJob job;
    job.label = "rich";
    job.workload = workload;
    job.scale = 1;
    job.cfg = sim::vpConfig({8, 48}, SpecModel::greatModel(),
                            ConfidenceKind::Real, UpdateTiming::Delayed);
    job.cfg.metricsInterval = 500; // interval series in the result
    job.cfg.specLedger = true;     // ledger records in the result
    return job;
}

sim::SweepJob
baseJob(const std::string &workload = "queens")
{
    sim::SweepJob job;
    job.label = "base";
    job.workload = workload;
    job.scale = 1;
    job.cfg = sim::baseConfig({8, 48});
    return job;
}

std::vector<std::uint8_t>
bytesOf(const sim::RunResult &r)
{
    StateWriter w;
    sim::saveRunResult(w, r);
    return w.data();
}

// ---- RunResult codec ---------------------------------------------------

TEST(RunResultCodec, RoundTripIsBitIdentical)
{
    sim::RunCache cache;
    const sim::RunResult a = cache.getOrRun(richJob());
    ASSERT_GT(a.intervals.samples.size(), 0u);
    ASSERT_TRUE(a.ledger.enabled);

    const std::vector<std::uint8_t> encoded = bytesOf(a);
    StateReader r(encoded.data(), encoded.size());
    const sim::RunResult b = sim::loadRunResult(r);
    EXPECT_TRUE(r.done());

    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);
    EXPECT_EQ(a.intervals.samples.size(), b.intervals.samples.size());
    EXPECT_EQ(a.ledger.records.size(), b.ledger.records.size());
    // Re-encoding the decoded result must reproduce the exact bytes.
    EXPECT_EQ(encoded, bytesOf(b));
}

TEST(RunResultCodec, TruncatedStreamThrowsNotCrashes)
{
    sim::RunCache cache;
    const std::vector<std::uint8_t> encoded =
        bytesOf(cache.getOrRun(richJob()));
    for (std::size_t len : {std::size_t(0), std::size_t(3),
                            encoded.size() / 2, encoded.size() - 1}) {
        StateReader r(encoded.data(), len);
        EXPECT_THROW(sim::loadRunResult(r), FatalError) << len;
    }
}

// ---- disk store -------------------------------------------------------

TEST(DiskRunCache, ColdThenWarmIsBitIdentical)
{
    TempDir dir;
    const sim::SweepJob job = richJob();

    // Cold: simulate, store.
    sim::RunCache cold;
    cold.attachDisk(std::make_shared<sim::DiskRunCache>(dir.path));
    bool hit = true;
    const sim::RunResult first = cold.getOrRun(job, &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(cold.misses(), 1u);
    EXPECT_EQ(cold.diskHits(), 0u);

    // Warm: a fresh process-equivalent (empty memory cache, new
    // DiskRunCache over the same directory) must serve from disk.
    sim::RunCache warm;
    warm.attachDisk(std::make_shared<sim::DiskRunCache>(dir.path));
    const sim::RunResult second = warm.getOrRun(job, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(warm.diskHits(), 1u);
    EXPECT_EQ(warm.misses(), 0u);
    EXPECT_EQ(bytesOf(first), bytesOf(second));
}

TEST(DiskRunCache, DifferentFingerprintNeverServesOldEntries)
{
    TempDir dir;
    sim::RunCache cache;
    const sim::SweepJob job = baseJob();
    const std::string key = sim::jobKey(job);
    const sim::RunResult result = cache.getOrRun(job);

    sim::DiskRunCache current(dir.path);
    current.store(key, result);
    ASSERT_TRUE(fs::exists(current.entryPath(key)));

    // A different build fingerprint (new sources, new flags) must
    // miss — and must NOT evict the other build's entry.
    sim::DiskRunCache other(dir.path, current.fingerprint() ^ 1);
    sim::RunResult out;
    EXPECT_FALSE(other.load(key, out));
    EXPECT_TRUE(fs::exists(current.entryPath(key)));
    EXPECT_TRUE(current.load(key, out));
    EXPECT_EQ(bytesOf(result), bytesOf(out));
}

TEST(DiskRunCache, CorruptEntryIsEvictedNotServed)
{
    TempDir dir;
    sim::RunCache cache;
    const sim::SweepJob job = baseJob();
    const std::string key = sim::jobKey(job);
    sim::DiskRunCache disk(dir.path);
    disk.store(key, cache.getOrRun(job));

    const std::string path = disk.entryPath(key);
    // Flip one byte in the middle: the checksum must catch it and the
    // entry must be evicted, never served.
    std::vector<char> bytes;
    {
        std::ifstream in(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    ASSERT_GT(bytes.size(), 64u);
    bytes[bytes.size() / 2] ^= 0x5a;
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }
    sim::RunResult out;
    EXPECT_FALSE(disk.load(key, out));
    EXPECT_FALSE(fs::exists(path));
}

TEST(DiskRunCache, TruncatedEntryIsEvicted)
{
    TempDir dir;
    sim::RunCache cache;
    const sim::SweepJob job = baseJob();
    const std::string key = sim::jobKey(job);
    sim::DiskRunCache disk(dir.path);

    for (std::uintmax_t keep : {std::uintmax_t(3),
                                std::uintmax_t(100)}) {
        disk.store(key, cache.getOrRun(job));
        const std::string path = disk.entryPath(key);
        ASSERT_TRUE(fs::exists(path));
        fs::resize_file(path, keep);
        sim::RunResult out;
        EXPECT_FALSE(disk.load(key, out)) << keep;
        EXPECT_FALSE(fs::exists(path)) << keep;
    }
}

TEST(DiskRunCache, KeyMismatchInSlotIsAPlainMiss)
{
    // Simulate an FNV slot collision: a well-formed entry for key A
    // sitting at key B's path. The stored-key guard must miss without
    // evicting A's (valid) bytes.
    TempDir dir;
    sim::RunCache cache;
    const sim::SweepJob a = baseJob("queens");
    const sim::SweepJob b = baseJob("m88k");
    sim::DiskRunCache disk(dir.path);
    disk.store(sim::jobKey(a), cache.getOrRun(a));
    fs::copy_file(disk.entryPath(sim::jobKey(a)),
                  disk.entryPath(sim::jobKey(b)));

    sim::RunResult out;
    EXPECT_FALSE(disk.load(sim::jobKey(b), out));
    EXPECT_TRUE(fs::exists(disk.entryPath(sim::jobKey(b))));
}

TEST(DiskRunCache, UnwritableDirectoryIsFatalAtConstruction)
{
    EXPECT_THROW(sim::DiskRunCache("/proc/no-such-cache-dir"),
                 FatalError);
}

TEST(DiskCacheProcess, TwoProcessesShareOneStore)
{
    TempDir dir;
    const sim::SweepJob job = baseJob();
    const std::string key = sim::jobKey(job);

    // Two child processes race to populate the same directory with
    // the same cell; atomic temp-file + rename writes mean both must
    // succeed and leave one valid entry.
    pid_t pids[2];
    for (pid_t &pid : pids) {
        pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            int status = 1;
            try {
                sim::RunCache mine;
                mine.attachDisk(
                    std::make_shared<sim::DiskRunCache>(dir.path));
                const sim::RunResult r = mine.getOrRun(job);
                status = r.stats.cycles > 0 ? 0 : 1;
            } catch (...) {
                status = 1;
            }
            ::_exit(status);
        }
    }
    for (pid_t pid : pids) {
        int status = -1;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }

    // The parent — a third process — reads what the children left.
    sim::DiskRunCache disk(dir.path);
    sim::RunResult from_disk;
    ASSERT_TRUE(disk.load(key, from_disk));
    sim::RunCache cache;
    EXPECT_EQ(bytesOf(cache.getOrRun(job)), bytesOf(from_disk));
}

} // namespace
