/**
 * @file
 * Reading and writing ".vst" dynamic instruction traces (see
 * trace_format.hh for the on-disk layout). The writer streams records
 * with buffered I/O, folds each burst's piece digest inline and
 * patches the header on finalize(); the reader validates the whole
 * file strictly -- magic, version, structure sizes, exact file length
 * (truncation / trailing garbage), record sanity and the footer
 * digest -- before handing anything to the timing core, splitting the
 * records over as many workers as it is given. Every I/O or
 * validation failure raises vsim::FatalError so tools exit nonzero
 * instead of replaying junk.
 */

#ifndef VSIM_TRACE_TRACE_IO_HH
#define VSIM_TRACE_TRACE_IO_HH

#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "trace_format.hh"
#include "vsim/arch/functional_core.hh"
#include "vsim/assembler/program.hh"

namespace vsim::trace
{

/** Convert one recorded functional-trace entry to a file record. */
TraceRecord makeRecord(const arch::TraceEntry &entry);

/** Convert one validated file record back to a functional entry. */
arch::TraceEntry makeEntry(const TraceRecord &rec);

/**
 * The footer digest of the payload that follows header @p hdr: the
 * text and data images, hdr.recordCount records and hdr.outputBytes of
 * output, contiguous from @p payload (see trace_format.hh).
 */
std::uint64_t payloadDigest(const TraceHeader &hdr, const void *payload);

/**
 * How a load on @p workers splits @p records: the index of the first
 * record of each contiguous range, one range per worker. Ranges are
 * whole bursts of kBurstRecords, as even as they go, so there are
 * fewer ranges than workers when there are fewer bursts.
 */
std::vector<std::uint64_t> loadRangeStarts(std::uint64_t records,
                                           int workers);

/**
 * Streaming trace generator. Construct with the program's static
 * image, append() each dynamic record as the functional core retires
 * it, then finalize() with the program's output and exit code. Records
 * collect in bursts of kBurstRecords; each full burst is digested and
 * written on the caller's thread, which starts no other. A writer that
 * is destroyed without finalize() leaves recordCount as kUnfinalized
 * on disk, which the reader rejects.
 */
class TraceWriter
{
  public:
    TraceWriter(const std::string &path, const assembler::Program &prog);

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    void append(const TraceRecord &rec);

    /** Flush records, write output + footer, patch the header. */
    void finalize(const std::string &output, std::uint64_t exit_code);

    std::uint64_t recordCount() const { return count; }

  private:
    void put(const void *bytes, std::uint64_t len);
    void flushBuffer();

    std::string path;
    std::ofstream out;
    TraceHeader hdr;
    std::vector<TraceRecord> burst; //!< records not yet written
    std::size_t filled = 0;         //!< records in burst
    std::vector<std::uint64_t> pieces; //!< piece digests so far
    std::uint64_t count = 0;
    bool finalized = false;
};

/** A trace materialised for replay through the timing core. */
struct LoadedTrace
{
    assembler::Program program;
    arch::ExecTrace trace;
};

/**
 * Validating trace loader. The constructor checks the header and the
 * exact file length, reads the static image, and sizes the trace's
 * entries from the header's recordCount without writing them. The
 * records are then split into contiguous ranges of whole bursts, one
 * per worker (loadRangeStarts): each worker reads its bursts with
 * pread, digests each one, checks it record by record (decodable
 * instruction, pc inside the text image, pc->target chaining across
 * burst seams, HALT only at the end) and decodes it into its own part
 * of the entries, which it is the first to touch. The caller runs the
 * first range itself, so one worker starts no thread. After the join
 * the caller digests the output, folds the piece digests in file order
 * and checks the chaining across range seams. The file is read once,
 * and no copy of the raw records is held, so peak memory is the
 * decoded trace itself (~40 B per instruction) plus one burst per
 * worker.
 *
 * Nothing is returned before the footer digest and the whole-trace
 * checks (first record at the entry point, HALT target) pass. A digest
 * mismatch takes precedence over a record defect, and the record
 * defect reported is the earliest one, whatever the worker count, so
 * a corrupted file is reported as corrupt rather than by the first bad
 * field it happens to produce. Non-regular paths (directories, FIFOs)
 * are rejected up front. Every defect raises vsim::FatalError, and
 * every worker is joined first.
 */
class TraceReader
{
  public:
    explicit TraceReader(const std::string &path, int workers = 1);

    const TraceHeader &header() const { return hdr; }
    std::uint64_t recordCount() const { return hdr.recordCount; }

    /** Move the program and trace out; the reader is spent after. */
    LoadedTrace release() { return std::move(loaded); }

  private:
    TraceHeader hdr;
    LoadedTrace loaded;
};

/**
 * Load and validate @p path on @p workers (throws vsim::FatalError on
 * any defect); the entries are the same for any worker count.
 */
LoadedTrace loadTrace(const std::string &path, int workers = 1);

/**
 * Record a complete run of @p prog on the functional core to @p path.
 * @return the number of dynamic records written
 * @throws vsim::FatalError on I/O failure or a non-halting program
 */
std::uint64_t recordTrace(const assembler::Program &prog,
                          const std::string &path,
                          std::uint64_t max_insts = 500'000'000);

/**
 * Content hash of every byte of the file at @p path, footer included:
 * the RunCache / jobKey identity of a trace workload. The file is cut
 * into 1 MiB blocks, each digested with XXH64 (seed 0: four 64-bit
 * multiply-rotate lanes over 32-byte stripes, then the byte tail and
 * the length), and the hash is the XXH64 of the block digests as
 * little-endian words, in file order; a file of at most one block
 * hashes to its plain XXH64. The blocks are split into contiguous
 * ranges, one per worker (the caller runs the first, so one worker
 * starts no thread), and the value is the same for any @p workers.
 * Logs "trace: key digest of B bytes in X s on J workers" at info
 * level. Memoised per path and file identity (size, mtime in ns,
 * device, inode), so a file re-recorded in place is re-hashed instead
 * of aliasing its old key. Thread-safe: concurrent requests for one
 * path digest it once, and the others wait for that digest. Throws
 * vsim::FatalError for a missing or non-regular path, or a file that
 * changes while it is being hashed.
 */
std::uint64_t traceFileHash(const std::string &path, int workers = 1);

/**
 * Files traceFileHash() has digested in this process so far, memo
 * hits and failed digests excluded. Read-only; tests use it to check
 * that concurrent requests digest a file once.
 */
std::uint64_t traceFileHashes();

} // namespace vsim::trace

#endif // VSIM_TRACE_TRACE_IO_HH
