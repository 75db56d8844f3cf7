/**
 * @file
 * The trace frontend's golden/differential harness. Three pillars:
 *
 *  1. Round-trip identity: for every built-in kernel, record a .vst
 *     trace from the functional core, replay it through the timing
 *     core, and require the stats digest to be byte-identical to a
 *     direct (assemble + pre-execute) simulation — at window 256 AND
 *     512, under both sweep kinds (sparse subscriber lists and the
 *     legacy dense scans).
 *
 *  2. Strict-reader rejection: truncated, corrupted, unfinalized or
 *     garbage-extended trace files must raise vsim::FatalError through
 *     loadTrace, never replay junk — including defects at the
 *     loader's burst and worker-range seams — with the same message
 *     at every worker count, and the RunCache content hash must cover
 *     every byte and follow in-place rewrites. A load on any number of
 *     workers returns exactly the functional core's entries.
 *
 *  3. Report-writer regressions riding in the same PR: RFC-4180 CSV
 *     quoting, JSON string escaping, and writeFile failure paths.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "vsim/arch/functional_core.hh"
#include "vsim/base/logging.hh"
#include "vsim/base/thread_pool.hh"
#include "vsim/core/ooo_core.hh"
#include "vsim/sim/report.hh"
#include "vsim/sim/simulator.hh"
#include "vsim/sim/sweep.hh"
#include "vsim/trace/trace_io.hh"
#include "vsim/workloads/workloads.hh"

namespace
{

using namespace vsim;

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "vsim_" + name + ".vst";
}

/** Full stats digest: any drift between two runs must show up here. */
std::string
digest(const core::SimOutcome &out)
{
    const core::CoreStats &s = out.stats;
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "cycles=%llu retired=%llu fetched=%llu dispatched=%llu "
        "issued=%llu squashes=%llu nullif=%llu reissues=%llu "
        "verify=%llu inval=%llu vp=%llu/%llu/%llu/%llu "
        "mispred=%llu fwd=%llu ic=%llu dc=%llu exit=%llu outlen=%zu",
        (unsigned long long)s.cycles, (unsigned long long)s.retired,
        (unsigned long long)s.fetched, (unsigned long long)s.dispatched,
        (unsigned long long)s.issued, (unsigned long long)s.squashes,
        (unsigned long long)s.nullifications,
        (unsigned long long)s.reissues,
        (unsigned long long)s.verifyEvents,
        (unsigned long long)s.invalidateEvents,
        (unsigned long long)s.vpCH, (unsigned long long)s.vpCL,
        (unsigned long long)s.vpIH, (unsigned long long)s.vpIL,
        (unsigned long long)s.condMispredicts,
        (unsigned long long)s.loadsForwarded,
        (unsigned long long)s.icacheMisses,
        (unsigned long long)s.dcacheMisses,
        (unsigned long long)out.exitCode, out.output.size());
    return buf;
}

/**
 * Record kernel @p name at scale 1, then require replay == direct at
 * the given window under both sweep kinds. The direct run uses the
 * default (sparse) kind; comparing the dense replay against it also
 * pins the sparse/dense identity on the replay path. At the first
 * window the recording must also load, on every worker count, into
 * exactly the entries the functional core pre-executes.
 */
void
roundTrip(const std::string &name, int window, int fetch_width)
{
    SCOPED_TRACE(name + " window=" + std::to_string(window));
    const auto prog =
        workloads::buildProgram(workloads::byName(name), 1);
    const std::string path =
        tmpPath(name + "_w" + std::to_string(window));
    const std::uint64_t written = trace::recordTrace(prog, path);
    ASSERT_GT(written, 0u);

    const trace::LoadedTrace loaded = trace::loadTrace(path);
    ASSERT_EQ(loaded.trace.entries.size(), written);
    if (window == 256) {
        const arch::ExecTrace want = arch::preExecute(prog);
        for (const int workers : {1, 2, 3, 4, 7}) {
            SCOPED_TRACE("workers=" + std::to_string(workers));
            const trace::LoadedTrace got = trace::loadTrace(path, workers);
            EXPECT_TRUE(got.trace.entries == want.entries);
            EXPECT_EQ(got.trace.output, want.output);
            EXPECT_EQ(got.trace.exitCode, want.exitCode);
        }
    }

    core::CoreConfig cfg =
        sim::vpConfig({8, window}, core::SpecModel::greatModel(),
                      core::ConfidenceKind::Real,
                      core::UpdateTiming::Delayed);
    cfg.fetchWidth = fetch_width;

    core::OooCore direct(prog, cfg);
    const core::SimOutcome want = direct.run();
    ASSERT_TRUE(want.halted);

    for (const core::SweepKind kind :
         {core::SweepKind::Sparse, core::SweepKind::Dense}) {
        SCOPED_TRACE(kind == core::SweepKind::Sparse ? "sparse"
                                                     : "dense");
        core::CoreConfig replay_cfg = cfg;
        replay_cfg.sweepKind = kind;
        // Alternate the issue scheduler across the sweep kinds so the
        // replay identity also holds over SchedulerKind (both are
        // bit-identical to the direct run's default ready lists).
        replay_cfg.scheduler = kind == core::SweepKind::Dense
                                   ? core::SchedulerKind::Scan
                                   : core::SchedulerKind::ReadyList;
        core::OooCore replay(loaded.program, loaded.trace, replay_cfg);
        const core::SimOutcome got = replay.run();
        EXPECT_TRUE(got.halted);
        EXPECT_EQ(digest(got), digest(want));
        EXPECT_EQ(got.output, want.output);
    }
    std::remove(path.c_str());
}

void
roundTripBothWindows(const std::string &name)
{
    roundTrip(name, 256, 8);
    // The CVP-style point: a 512-entry window with a wide front end.
    roundTrip(name, 512, 16);
}

TEST(TraceRoundTrip, Compress) { roundTripBothWindows("compress"); }
TEST(TraceRoundTrip, Cc) { roundTripBothWindows("cc"); }
TEST(TraceRoundTrip, Go) { roundTripBothWindows("go"); }
TEST(TraceRoundTrip, Jpeg) { roundTripBothWindows("jpeg"); }
TEST(TraceRoundTrip, M88k) { roundTripBothWindows("m88k"); }
TEST(TraceRoundTrip, Perl) { roundTripBothWindows("perl"); }
TEST(TraceRoundTrip, Vortex) { roundTripBothWindows("vortex"); }
TEST(TraceRoundTrip, Queens) { roundTripBothWindows("queens"); }

/**
 * The "trace:<path>" workload-name plumbing: runWorkload on a trace
 * name must reproduce the direct run of the kernel it was recorded
 * from, and the name helpers must round-trip paths.
 */
TEST(TraceWorkload, RunWorkloadReplayMatchesDirect)
{
    EXPECT_FALSE(sim::isTraceWorkload("queens"));
    EXPECT_TRUE(sim::isTraceWorkload("trace:/tmp/x.vst"));
    EXPECT_EQ(sim::traceWorkloadName("/tmp/x.vst"), "trace:/tmp/x.vst");
    EXPECT_EQ(sim::traceWorkloadPath("trace:/tmp/x.vst"), "/tmp/x.vst");

    const auto prog =
        workloads::buildProgram(workloads::byName("queens"), 1);
    const std::string path = tmpPath("runworkload");
    trace::recordTrace(prog, path);

    const core::CoreConfig cfg =
        sim::vpConfig({8, 48}, core::SpecModel::greatModel(),
                      core::ConfidenceKind::Real,
                      core::UpdateTiming::Delayed);
    const sim::RunResult direct = sim::runWorkload("queens", 1, cfg);
    const sim::RunResult replay =
        sim::runWorkload(sim::traceWorkloadName(path), -1, cfg);

    EXPECT_EQ(replay.workload, sim::traceWorkloadName(path));
    EXPECT_EQ(replay.stats.cycles, direct.stats.cycles);
    EXPECT_EQ(replay.stats.retired, direct.stats.retired);
    EXPECT_EQ(replay.exitCode, direct.exitCode);
    EXPECT_EQ(replay.output, direct.output);
    std::remove(path.c_str());
}

/**
 * The RunCache jobKey must incorporate the trace file's *content*
 * hash: two different traces behind otherwise-identical jobs must not
 * alias, and the same file must key identically across job objects.
 */
TEST(TraceWorkload, JobKeyHashesTraceContent)
{
    const std::string path_a = tmpPath("jobkey_a");
    const std::string path_b = tmpPath("jobkey_b");
    trace::recordTrace(
        workloads::buildProgram(workloads::byName("queens"), 1), path_a);
    trace::recordTrace(
        workloads::buildProgram(workloads::byName("compress"), 1),
        path_b);

    sim::SweepJob a;
    a.workload = sim::traceWorkloadName(path_a);
    a.cfg = sim::baseConfig({8, 48});
    sim::SweepJob b = a;
    b.workload = sim::traceWorkloadName(path_b);
    sim::SweepJob a2 = a;

    EXPECT_NE(sim::jobKey(a), sim::jobKey(b));
    EXPECT_EQ(sim::jobKey(a), sim::jobKey(a2));
    EXPECT_EQ(trace::traceFileHash(path_a),
              trace::traceFileHash(path_a));
    EXPECT_NE(trace::traceFileHash(path_a),
              trace::traceFileHash(path_b));
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
}

/**
 * Re-recording a trace in place must change its RunCache identity: the
 * hash memo is keyed on the file's identity (size, mtime, inode), not
 * on the path alone, so the rewritten file is hashed afresh and jobKey
 * no longer aliases the old recording. Recording the first kernel
 * again restores the original key: the key follows content.
 */
TEST(TraceWorkload, RerecordSamePathChangesHashAndKey)
{
    const std::string path = tmpPath("rerecord");
    const auto queens =
        workloads::buildProgram(workloads::byName("queens"), 1);
    sim::SweepJob job;
    job.workload = sim::traceWorkloadName(path);
    job.cfg = sim::baseConfig({8, 48});

    trace::recordTrace(queens, path);
    const std::uint64_t hash_queens = trace::traceFileHash(path);
    const std::string key_queens = sim::jobKey(job);

    trace::recordTrace(
        workloads::buildProgram(workloads::byName("compress"), 1), path);
    EXPECT_NE(trace::traceFileHash(path), hash_queens);
    EXPECT_NE(sim::jobKey(job), key_queens);

    trace::recordTrace(queens, path);
    EXPECT_EQ(trace::traceFileHash(path), hash_queens);
    EXPECT_EQ(sim::jobKey(job), key_queens);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Strict-reader rejection.
// ---------------------------------------------------------------------

class TraceReject : public ::testing::Test
{
  protected:
    /** One valid queens trace shared by all rejection cases. */
    static const std::string &
    validTrace()
    {
        // Per process: ctest runs each case in its own process, in
        // parallel, and a shared seed file would be rewritten under
        // the readers of another case.
        static const std::string path = [] {
            const std::string p =
                tmpPath("reject_seed_" + std::to_string(::getpid()));
            trace::recordTrace(
                workloads::buildProgram(workloads::byName("queens"), 1),
                p);
            return p;
        }();
        return path;
    }

    static std::vector<char>
    readAll(const std::string &path)
    {
        std::ifstream in(path, std::ios::binary);
        EXPECT_TRUE(in);
        return std::vector<char>(std::istreambuf_iterator<char>(in),
                                 std::istreambuf_iterator<char>());
    }

    static std::string
    writeVariant(const std::string &name, const std::vector<char> &bytes)
    {
        const std::string path = tmpPath("reject_" + name);
        std::ofstream out(path, std::ios::binary);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
        EXPECT_TRUE(out);
        return path;
    }

    /** Byte offset of record @p index in trace file @p bytes. */
    static std::uint64_t
    recordOffset(const std::vector<char> &bytes, std::uint64_t index)
    {
        trace::TraceHeader hdr;
        std::memcpy(&hdr, bytes.data(), sizeof hdr);
        return sizeof(trace::TraceHeader)
               + std::uint64_t(hdr.textWords) * 4 + hdr.dataBytes
               + index * sizeof(trace::TraceRecord);
    }

    static std::uint64_t
    recordCount(const std::vector<char> &bytes)
    {
        trace::TraceHeader hdr;
        std::memcpy(&hdr, bytes.data(), sizeof hdr);
        return hdr.recordCount;
    }

    /**
     * Re-seal an edited file: recompute the footer digest over the
     * payload (as its header now describes it) so that only the
     * structural defect under test remains.
     */
    static void
    resealDigest(std::vector<char> &bytes)
    {
        trace::TraceHeader hdr;
        std::memcpy(&hdr, bytes.data(), sizeof hdr);
        const std::uint64_t end =
            bytes.size() - sizeof(trace::TraceFooter);
        const std::uint64_t digest = trace::payloadDigest(
            hdr, bytes.data() + sizeof(trace::TraceHeader));
        std::memcpy(bytes.data() + end + 8, &digest, sizeof digest);
    }

    /** The first record of each range a load on @p workers reads. */
    static std::vector<std::uint64_t>
    rangeStarts(const std::vector<char> &bytes, int workers)
    {
        return trace::loadRangeStarts(recordCount(bytes), workers);
    }

    /**
     * loadTrace's FatalError message for @p path on @p workers ("" if
     * it loads).
     */
    static std::string
    rejection(const std::string &path, int workers = 1)
    {
        try {
            trace::loadTrace(path, workers);
        } catch (const FatalError &err) {
            return err.what();
        }
        return "";
    }

    /**
     * @p bytes must be rejected through loadTrace, the simulator's
     * entry point, with a message containing @p what, and with the
     * same message on one worker and on four.
     */
    static void
    expectRejected(const std::string &name, std::vector<char> bytes,
                   const std::string &what)
    {
        SCOPED_TRACE(name);
        const std::string path = writeVariant(name, std::move(bytes));
        const std::string msg = rejection(path, 1);
        EXPECT_NE(msg.find(what), std::string::npos)
            << "expected \"" << what << "\" in \"" << msg << "\"";
        EXPECT_EQ(rejection(path, 4), msg);
        std::remove(path.c_str());
    }

    /**
     * Record @p index of @p bytes, with its target moved one
     * instruction on (and a self-consistent taken flag), so the correct
     * path no longer chains to the next record.
     */
    static void
    breakChainAfter(std::vector<char> &bytes, std::uint64_t index)
    {
        trace::TraceRecord rec;
        const std::uint64_t off = recordOffset(bytes, index);
        std::memcpy(&rec, bytes.data() + off, sizeof rec);
        rec.target += 4;
        rec.taken = rec.target != rec.pc + 4 ? 1 : 0;
        std::memcpy(bytes.data() + off, &rec, sizeof rec);
    }
};

/**
 * The streaming loader must hand back exactly what the functional core
 * produces: same entry count, same first and last entries.
 */
TEST_F(TraceReject, ValidFileLoads)
{
    const trace::LoadedTrace loaded = trace::loadTrace(validTrace());
    const arch::ExecTrace want = arch::preExecute(
        workloads::buildProgram(workloads::byName("queens"), 1));
    const auto &got = loaded.trace.entries;
    ASSERT_EQ(got.size(), want.entries.size());
    ASSERT_GT(got.size(), 2 * 4096u); // spans several read bursts
    for (const auto &[g, w] :
         {std::pair{got.front(), want.entries.front()},
          std::pair{got.back(), want.entries.back()}}) {
        EXPECT_EQ(g.pc, w.pc);
        EXPECT_EQ(g.nextPc, w.nextPc);
        EXPECT_EQ(g.value, w.value);
        EXPECT_EQ(g.memAddr, w.memAddr);
        EXPECT_EQ(g.inst.op, w.inst.op);
        EXPECT_EQ(g.inst.imm, w.inst.imm);
    }
    EXPECT_EQ(got.back().inst.op, isa::Op::HALT);
    EXPECT_EQ(loaded.trace.output, want.output);
    EXPECT_EQ(loaded.trace.exitCode, want.exitCode);
}

/**
 * A record count that is not a multiple of the burst, split over 3 and
 * 7 workers: the short last burst ends the last range, and every range
 * decodes into its own part of the entries.
 */
TEST_F(TraceReject, PartialLastBurstLoadsOnThreeAndSevenWorkers)
{
    const std::vector<char> bytes = readAll(validTrace());
    ASSERT_NE(recordCount(bytes) % trace::kBurstRecords, 0u);
    const arch::ExecTrace want = arch::preExecute(
        workloads::buildProgram(workloads::byName("queens"), 1));
    for (const int workers : {3, 7}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        ASSERT_EQ(rangeStarts(bytes, workers).size(),
                  static_cast<std::size_t>(workers));
        const trace::LoadedTrace got =
            trace::loadTrace(validTrace(), workers);
        EXPECT_TRUE(got.trace.entries == want.entries);
        EXPECT_EQ(got.trace.output, want.output);
    }
}

TEST_F(TraceReject, MissingFile)
{
    EXPECT_NE(rejection(tmpPath("no_such")).find("cannot open trace file"),
              std::string::npos);
}

TEST_F(TraceReject, Directory)
{
    const std::string dir = testing::TempDir();
    EXPECT_NE(rejection(dir).find("not a regular file"), std::string::npos)
        << rejection(dir);
    try {
        trace::traceFileHash(dir);
        ADD_FAILURE() << "traceFileHash accepted a directory";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("not a regular file"),
                  std::string::npos)
            << err.what();
    }
}

TEST_F(TraceReject, EmptyFile)
{
    expectRejected("empty", {}, "too small to be valid");
}

TEST_F(TraceReject, BadMagic)
{
    auto bytes = readAll(validTrace());
    bytes[0] ^= 0x5a;
    expectRejected("magic", std::move(bytes), "bad magic");
}

TEST_F(TraceReject, BadVersion)
{
    auto bytes = readAll(validTrace());
    bytes[4] = 99; // TraceHeader::version
    expectRejected("version", std::move(bytes), "unsupported trace version");
}

/**
 * A version-1 file (one FNV-1a over the whole payload) is turned away
 * at its header, by version, with the way out: record it again.
 */
TEST_F(TraceReject, VersionOneAsksToRerecord)
{
    auto bytes = readAll(validTrace());
    bytes[4] = 1; // TraceHeader::version
    expectRejected("version_1", std::move(bytes),
                   "unsupported trace version 1 (expected 2; re-record it "
                   "with vspec_tracegen)");
}

TEST_F(TraceReject, UnfinalizedRecordCount)
{
    auto bytes = readAll(validTrace());
    for (std::uint64_t i = 0; i < 8; ++i)
        bytes[trace::kRecordCountOffset + i] = '\xff';
    expectRejected("unfinalized", std::move(bytes), "unfinalized trace");
}

TEST_F(TraceReject, TruncatedFooter)
{
    auto bytes = readAll(validTrace());
    bytes.resize(bytes.size() - sizeof(trace::TraceFooter));
    expectRejected("trunc_footer", std::move(bytes), "(truncated or corrupt)");
}

TEST_F(TraceReject, TruncatedMidRecords)
{
    auto bytes = readAll(validTrace());
    bytes.resize(bytes.size() / 2);
    expectRejected("trunc_half", std::move(bytes), "truncated trace file");
}

TEST_F(TraceReject, TrailingGarbage)
{
    auto bytes = readAll(validTrace());
    bytes.push_back('x');
    expectRejected("trailing", std::move(bytes), "(truncated or corrupt)");
}

TEST_F(TraceReject, CorruptRecordPayload)
{
    // Flip one byte in the value field of the first record: the
    // payload digest in the footer must catch it.
    auto bytes = readAll(validTrace());
    bytes[recordOffset(bytes, 0) + 8] ^= 0x01; // TraceRecord::value
    expectRejected("payload", std::move(bytes), "digest mismatch");
}

TEST_F(TraceReject, CorruptFooterDigest)
{
    auto bytes = readAll(validTrace());
    bytes[bytes.size() - 1] ^= 0x01;
    expectRejected("digest", std::move(bytes), "digest mismatch");
}

/**
 * A pc->target chain break exactly at the first read-burst seam
 * (records 4095 -> 4096): the chaining check must carry the previous
 * burst's last target across the refill. Record 4095 keeps a
 * self-consistent taken flag and the digest is re-sealed, so the
 * break is the only defect.
 */
TEST_F(TraceReject, ChainBreakAtBurstSeam)
{
    auto bytes = readAll(validTrace());
    ASSERT_GT(recordCount(bytes), 4097u);
    breakChainAfter(bytes, 4095);
    resealDigest(bytes);
    expectRejected("seam_chain", std::move(bytes),
                   "record #4095 in " + tmpPath("reject_seam_chain")
                       + ": correct path does not chain");
}

/**
 * One flipped byte inside the final, partial read burst: every burst
 * (the short last one included) must be folded into the digest.
 */
TEST_F(TraceReject, CorruptFinalPartialBurst)
{
    auto bytes = readAll(validTrace());
    const std::uint64_t n = recordCount(bytes);
    ASSERT_NE(n % 4096, 0u);
    const std::uint64_t index = n - n % 4096 + (n % 4096) / 2;
    bytes[recordOffset(bytes, index) + 8] ^= 0x40; // TraceRecord::value
    expectRejected("final_burst", std::move(bytes), "digest mismatch");
}

/**
 * A bad record in a file whose digest no longer matches is reported as
 * a corrupt file, exactly as when the digest was checked before any
 * record; once re-sealed, the same record is named by its defect.
 */
TEST_F(TraceReject, DigestMismatchOutranksRecordDefect)
{
    auto bytes = readAll(validTrace());
    const std::uint64_t index = recordCount(bytes) / 3;
    bytes[recordOffset(bytes, index) + 36] = '\xff'; // TraceRecord::op
    expectRejected("bad_op_unsealed", bytes, "digest mismatch");
    resealDigest(bytes);
    expectRejected("bad_op_sealed", std::move(bytes),
                   "record #" + std::to_string(index) + " in "
                       + tmpPath("reject_bad_op_sealed")
                       + ": opcode out of range");
}

/**
 * A trace cut off before its HALT and re-sealed as if complete (count
 * patched, digest recomputed) must be rejected by the whole-trace
 * check, not replayed as a program that silently stops.
 */
TEST_F(TraceReject, HaltlessTail)
{
    auto bytes = readAll(validTrace());
    const std::uint64_t n = recordCount(bytes);
    const std::uint64_t halt = recordOffset(bytes, n - 1);
    bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(halt),
                bytes.begin()
                    + static_cast<std::ptrdiff_t>(
                        halt + sizeof(trace::TraceRecord)));
    const std::uint64_t count = n - 1;
    std::memcpy(bytes.data() + trace::kRecordCountOffset, &count,
                sizeof count);
    resealDigest(bytes);
    expectRejected("haltless", std::move(bytes),
                   "trace does not end in HALT");
}

/**
 * Defects deep in the file, past its first nine bursts, so in a later
 * worker range than the first on four workers (the names recall the
 * 8-burst digest ring an earlier reader refilled there). Each defect
 * is reported exactly as it is in an early burst, and the failed load
 * joins its workers: a thread left unjoined would end the whole test
 * process.
 */
constexpr std::uint64_t kPastRingLap = 9 * 4096;

TEST_F(TraceReject, CorruptPayloadAfterRingWraps)
{
    auto bytes = readAll(validTrace());
    const std::uint64_t index = kPastRingLap + 4096 + 123;
    ASSERT_GT(recordCount(bytes), index);
    bytes[recordOffset(bytes, index) + 8] ^= 0x01; // TraceRecord::value
    expectRejected("payload_wrapped", std::move(bytes), "digest mismatch");
}

/** A chain break at a burst seam deep in the file. */
TEST_F(TraceReject, ChainBreakAfterRingWraps)
{
    auto bytes = readAll(validTrace());
    const std::uint64_t index = kPastRingLap + 3 * 4096 - 1;
    ASSERT_GT(recordCount(bytes), index + 1);
    breakChainAfter(bytes, index);
    resealDigest(bytes);
    expectRejected("chain_wrapped", std::move(bytes),
                   "record #" + std::to_string(index) + " in "
                       + tmpPath("reject_chain_wrapped")
                       + ": correct path does not chain");
}

TEST_F(TraceReject, DigestMismatchOutranksRecordDefectAfterRingWraps)
{
    auto bytes = readAll(validTrace());
    const std::uint64_t index = kPastRingLap + 11 * 4096 + 7;
    ASSERT_GT(recordCount(bytes), index);
    bytes[recordOffset(bytes, index) + 36] = '\xff'; // TraceRecord::op
    expectRejected("bad_op_wrapped_unsealed", bytes, "digest mismatch");
    resealDigest(bytes);
    expectRejected("bad_op_wrapped_sealed", std::move(bytes),
                   "record #" + std::to_string(index) + " in "
                       + tmpPath("reject_bad_op_wrapped_sealed")
                       + ": opcode out of range");
}

/**
 * A chain break exactly on a worker-range seam: on four workers, the
 * last record of the first range no longer chains to the first record
 * of the second. Neither worker sees both sides, so the check across
 * the seam must name the record a one-worker load names -- ahead of a
 * bad record later in the second range.
 */
TEST_F(TraceReject, ChainBreakAtWorkerSeam)
{
    auto bytes = readAll(validTrace());
    const std::vector<std::uint64_t> starts = rangeStarts(bytes, 4);
    ASSERT_EQ(starts.size(), 4u);
    const std::uint64_t index = starts[1] - 1;
    breakChainAfter(bytes, index);
    bytes[recordOffset(bytes, starts[1] + 5) + 36] = '\xff'; // op
    resealDigest(bytes);
    expectRejected("worker_seam_chain", std::move(bytes),
                   "record #" + std::to_string(index) + " in "
                       + tmpPath("reject_worker_seam_chain")
                       + ": correct path does not chain");
}

/**
 * A bad record on either side of a worker-range seam (the last record
 * of one range on four workers, then the first of the next): unsealed
 * it is a digest mismatch, sealed it is named by its index.
 */
TEST_F(TraceReject, BadRecordsAtWorkerSeam)
{
    const auto bytes = readAll(validTrace());
    const std::vector<std::uint64_t> starts = rangeStarts(bytes, 4);
    ASSERT_EQ(starts.size(), 4u);
    for (const std::uint64_t index : {starts[2] - 1, starts[2]}) {
        auto bad = bytes;
        bad[recordOffset(bad, index) + 36] = '\xff'; // TraceRecord::op
        const std::string name = "worker_seam_op_" + std::to_string(index);
        expectRejected(name + "_unsealed", bad, "digest mismatch");
        resealDigest(bad);
        expectRejected(name, std::move(bad),
                       "record #" + std::to_string(index) + " in "
                           + tmpPath("reject_" + name)
                           + ": opcode out of range");
    }
}

/**
 * A trace whose record count is an exact multiple of the 4096-record
 * burst, so its last burst is full and ends the last worker range
 * exactly: the valid file loads whole, and a flipped byte in its very
 * last record is still digested. The file is the queens trace cut to
 * 10 bursts, ending in a HALT record placed where the cut path
 * continues.
 */
TEST_F(TraceReject, RecordCountMultipleOfBurst)
{
    const auto bytes = readAll(validTrace());
    const std::uint64_t n = recordCount(bytes);
    const std::uint64_t count = 10 * 4096;
    ASSERT_GT(n, count);
    trace::TraceRecord prev, halt;
    std::memcpy(&prev, bytes.data() + recordOffset(bytes, count - 2),
                sizeof prev);
    std::memcpy(&halt, bytes.data() + recordOffset(bytes, n - 1),
                sizeof halt);
    ASSERT_EQ(halt.op, static_cast<std::uint8_t>(isa::Op::HALT));
    halt.pc = prev.target;
    halt.target = halt.pc;
    halt.taken = 1;

    std::vector<char> cut(bytes.begin(),
                          bytes.begin()
                              + static_cast<std::ptrdiff_t>(
                                  recordOffset(bytes, count - 1)));
    const char *raw = reinterpret_cast<const char *>(&halt);
    cut.insert(cut.end(), raw, raw + sizeof halt);
    cut.insert(cut.end(),
               bytes.begin()
                   + static_cast<std::ptrdiff_t>(recordOffset(bytes, n)),
               bytes.end());
    std::memcpy(cut.data() + trace::kRecordCountOffset, &count,
                sizeof count);
    resealDigest(cut);

    const std::string path = writeVariant("burst_multiple", cut);
    for (const int workers : {1, 4}) {
        const trace::LoadedTrace loaded = trace::loadTrace(path, workers);
        ASSERT_EQ(loaded.trace.entries.size(), count);
        EXPECT_EQ(loaded.trace.entries.back().inst.op, isa::Op::HALT);
        EXPECT_EQ(loaded.trace.entries.back().pc, prev.target);
    }
    std::remove(path.c_str());

    cut[recordOffset(cut, count - 1) + 8] ^= 0x01; // TraceRecord::value
    expectRejected("burst_multiple_flipped", std::move(cut),
                   "digest mismatch");
}

/**
 * The bytes recordTrace writes, footer digest included, are pinned to
 * the key digest of the version-2 recording of compress at scale 1, so
 * any change to the bytes on disk shows here. The file is 4,294,756
 * bytes: five 1 MiB blocks, the last one short. The constant was
 * checked against an independent XXH64 of the file's blocks and of
 * their digests (the whole file's plain XXH64, pinned here before the
 * digest went by blocks, is 0x5bc457b866707a1e).
 */
TEST(TraceWriter, RecordedBytesArePinned)
{
    const std::string path = tmpPath("pinned_compress");
    trace::recordTrace(
        workloads::buildProgram(workloads::byName("compress"), 1), path);
    EXPECT_EQ(trace::traceFileHash(path), 0xb38d0391a35e0813ull);
    std::remove(path.c_str());
}

/**
 * Recording folds its digests inline, and a load on one worker reads
 * on the caller: neither starts a thread. Four workers start three
 * beside the caller.
 */
TEST(TraceWriter, RecordingAndOneWorkerLoadStartNoThread)
{
    const std::string path = tmpPath("no_thread");
    const std::uint64_t before = concurrentThreadsStarted();
    trace::recordTrace(
        workloads::buildProgram(workloads::byName("queens"), 1), path);
    trace::loadTrace(path);
    EXPECT_EQ(concurrentThreadsStarted(), before);
    trace::loadTrace(path, 4);
    EXPECT_EQ(concurrentThreadsStarted(), before + 3);
    std::remove(path.c_str());
}

/** The RunCache content hash, on the rejection fixture's helpers. */
class TraceHash : public TraceReject
{};

/**
 * traceFileHash is a full-content hash: one flipped byte anywhere (the
 * header, a middle record, the footer) or one appended byte changes
 * it, and a byte-identical copy at another path hashes the same.
 */
TEST_F(TraceHash, CoversEveryByte)
{
    const auto bytes = readAll(validTrace());
    const std::uint64_t base = trace::traceFileHash(validTrace());

    const std::string copy = writeVariant("hash_copy", bytes);
    EXPECT_EQ(trace::traceFileHash(copy), base);
    std::remove(copy.c_str());

    auto flipped = [&](const std::string &name, std::uint64_t offset) {
        SCOPED_TRACE(name);
        auto v = bytes;
        v[offset] ^= 0x01;
        const std::string path = writeVariant(name, v);
        EXPECT_NE(trace::traceFileHash(path), base);
        std::remove(path.c_str());
    };
    flipped("hash_header", 64); // TraceHeader::exitCode
    flipped("hash_record",
            recordOffset(bytes, recordCount(bytes) / 2) + 8);
    flipped("hash_footer", bytes.size() - 1);

    auto longer = bytes;
    longer.push_back('\0');
    const std::string path = writeVariant("hash_trailing", longer);
    EXPECT_NE(trace::traceFileHash(path), base);
    std::remove(path.c_str());
}

/** The content hash is XXH64 (seed 0): pin it to the reference values. */
TEST_F(TraceHash, MatchesXxh64ReferenceValues)
{
    const std::string empty = writeVariant("xxh_empty", {});
    EXPECT_EQ(trace::traceFileHash(empty), 0xef46db3751d8e999ull);
    std::remove(empty.c_str());
    const std::string abc = writeVariant("xxh_abc", {'a', 'b', 'c'});
    EXPECT_EQ(trace::traceFileHash(abc), 0x44bc2cf5ad770999ull);
    std::remove(abc.c_str());
}

/** @p n bytes of a fixed pattern with no period near a block size. */
std::vector<char>
hashPattern(std::size_t n)
{
    std::vector<char> bytes(n);
    for (std::size_t j = 0; j < n; ++j)
        bytes[j] = static_cast<char>((j * 131 + (j >> 9)) & 0xff);
    return bytes;
}

constexpr std::size_t kKeyBlock = 1 << 20;

/**
 * The key digest around the block size: a file of at most one block
 * hashes to its plain XXH64, a longer one to the XXH64 of its blocks'
 * XXH64s. The constants come from an independent XXH64 of the same
 * pattern.
 */
TEST_F(TraceHash, BlockDigestAtBlockEdges)
{
    const std::pair<std::size_t, std::uint64_t> cases[] = {
        {0, 0xef46db3751d8e999ull},
        {kKeyBlock - 1, 0x5912497fee9cdc8full},
        {kKeyBlock, 0x77a73570e300b127ull},
        {kKeyBlock + 1, 0x53884612077f6881ull},
        {3 * kKeyBlock + 4321, 0xfdef7e8d4bf77726ull},
    };
    for (const auto &[size, want] : cases) {
        SCOPED_TRACE(size);
        const std::string path = writeVariant(
            "hash_edge_" + std::to_string(size), hashPattern(size));
        EXPECT_EQ(trace::traceFileHash(path, 3), want);
        std::remove(path.c_str());
    }
}

/** Ten blocks, the last one short: the same value on any worker count. */
TEST_F(TraceHash, SameValueOnEveryWorkerCount)
{
    const std::vector<char> bytes = hashPattern(9 * kKeyBlock + 4321);
    for (const int workers : {1, 2, 3, 4, 7}) {
        SCOPED_TRACE(workers);
        // A path of its own each time: the memo would answer a repeat.
        const std::string path = writeVariant(
            "hash_workers_" + std::to_string(workers), bytes);
        EXPECT_EQ(trace::traceFileHash(path, workers),
                  0x7884d9d087ddb451ull);
        std::remove(path.c_str());
    }
}

/** Eight threads asking for one file at once digest it once. */
TEST_F(TraceHash, ConcurrentRequestsDigestOnce)
{
    const std::string path =
        writeVariant("hash_concurrent", hashPattern(3 * kKeyBlock + 4321));
    const std::uint64_t before = trace::traceFileHashes();
    std::vector<std::uint64_t> got(8);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < got.size(); ++i)
        threads.emplace_back(
            [&, i] { got[i] = trace::traceFileHash(path, 2); });
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(trace::traceFileHashes(), before + 1);
    for (const std::uint64_t h : got)
        EXPECT_EQ(h, 0xfdef7e8d4bf77726ull);
    std::remove(path.c_str());
}

TEST_F(TraceReject, WriterRefusesUnwritablePath)
{
    const auto prog =
        workloads::buildProgram(workloads::byName("queens"), 1);
    EXPECT_THROW(
        trace::recordTrace(prog, "/nonexistent-dir/queens.vst"),
        FatalError);
}

/**
 * A recording cut off at its instruction limit throws from mid-stream,
 * nine bursts in, and the file it leaves behind is rejected as
 * unfinalized.
 */
TEST_F(TraceReject, RecordingCutAtInstructionLimit)
{
    const auto prog =
        workloads::buildProgram(workloads::byName("queens"), 1);
    const std::string path = tmpPath("reject_cut_recording");
    EXPECT_THROW(trace::recordTrace(prog, path, kPastRingLap + 1000),
                 FatalError);
    EXPECT_NE(rejection(path).find("unfinalized trace"), std::string::npos)
        << rejection(path);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Report-writer regressions.
// ---------------------------------------------------------------------

/**
 * RFC-4180: labels/workloads containing the delimiter, quotes or line
 * breaks must be quoted (embedded quotes doubled); plain fields stay
 * unquoted so existing consumers see byte-identical output.
 */
TEST(Report, CsvQuoting)
{
    sim::SweepJob job;
    job.label = "great, window=48 \"tuned\"";
    job.workload = "line\nbreak";
    job.scale = 1;
    job.cfg = sim::baseConfig({8, 48});
    sim::RunResult r;
    r.workload = job.workload;

    const std::string csv = sim::toCsv({job}, {r});
    EXPECT_NE(csv.find("\"great, window=48 \"\"tuned\"\"\","),
              std::string::npos)
        << csv;
    EXPECT_NE(csv.find("\"line\nbreak\","), std::string::npos) << csv;

    // Plain fields keep the historical unquoted form.
    job.label = "plain";
    job.workload = "queens";
    r.workload = "queens";
    const std::string plain = sim::toCsv({job}, {r});
    EXPECT_NE(plain.find("\nplain,queens,1,8/48,"), std::string::npos)
        << plain;
    EXPECT_EQ(plain.find('"'), std::string::npos) << plain;
}

TEST(Report, JsonEscaping)
{
    sim::SweepJob job;
    job.label = "say \"hi\"\\";
    job.workload = "queens";
    job.cfg = sim::baseConfig({8, 48});
    sim::RunResult r;
    r.workload = "tab\there";

    const std::string json = sim::toJson(job, r);
    EXPECT_NE(json.find("\"label\": \"say \\\"hi\\\"\\\\\""),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"workload\": \"tab\\there\""),
              std::string::npos)
        << json;
}

TEST(Report, WriteFileFailsLoudly)
{
    EXPECT_THROW(sim::writeFile("/nonexistent-dir/out.json", "x"),
                 FatalError);
}

} // namespace
