/**
 * @file
 * Reading and writing ".vst" dynamic instruction traces (see
 * trace_format.hh for the on-disk layout). The writer streams records
 * with buffered I/O and patches the header on finalize(); the reader
 * validates the whole file strictly in one streaming pass — magic,
 * version, structure sizes, exact file length (truncation / trailing
 * garbage), record sanity and the footer digest — before handing
 * anything to the timing core. Both fold the byte-serial FNV-1a footer
 * digest on one helper thread, over the same record bursts they write
 * or decode, so the digest runs beside the recording or the decode
 * instead of after it. Every I/O or validation failure raises
 * vsim::FatalError so tools exit nonzero instead of replaying junk.
 */

#ifndef VSIM_TRACE_TRACE_IO_HH
#define VSIM_TRACE_TRACE_IO_HH

#include <cstdint>
#include <fstream>
#include <memory>
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

/** Ring of record bursts whose FNV-1a a helper thread folds. */
class BurstDigest;

/**
 * Streaming trace generator. Construct with the program's static
 * image, append() each dynamic record as the functional core retires
 * it, then finalize() with the program's output and exit code. Records
 * collect in 4096-record bursts; each full burst is written and handed
 * to the digest helper, and the caller fills the next ring slot
 * meanwhile. A writer that is destroyed without finalize() joins the
 * helper and leaves recordCount as kUnfinalized on disk, which the
 * reader rejects.
 */
class TraceWriter
{
  public:
    TraceWriter(const std::string &path, const assembler::Program &prog);
    ~TraceWriter();

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
    std::unique_ptr<BurstDigest> ring; //!< payload FNV-1a helper
    TraceRecord *slot = nullptr; //!< burst being filled (a ring slot)
    std::size_t filled = 0;      //!< records in *slot
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
 * exact file length, then makes one streaming pass over the payload:
 * each burst of up to 4096 records is read once into a slot of an
 * 8-burst ring and handed to a helper thread that folds it into the
 * FNV-1a footer digest, while the caller checks it record by record
 * (decodable instruction, pc inside the text image, pc->target
 * chaining carried across burst seams, HALT only at the end) and
 * decodes it straight into the trace's entries, which are reserved
 * once from the header's recordCount. A slot is refilled only after
 * the helper has digested it, so the digest covers exactly the bytes
 * that were decoded, and the file is never read twice. No copy of the
 * raw records is ever held, so peak memory is the decoded trace itself
 * (~40 B per instruction) plus the ring.
 *
 * Nothing is returned before the footer digest and the whole-trace
 * checks (first record at the entry point, HALT target) pass. A digest
 * mismatch takes precedence over a record defect, so a corrupted file
 * is reported as corrupt rather than by the first bad field it
 * happens to produce. Non-regular paths (directories, FIFOs) are
 * rejected up front. Every defect raises vsim::FatalError, and the
 * helper thread is joined on every path.
 */
class TraceReader
{
  public:
    explicit TraceReader(const std::string &path);

    const TraceHeader &header() const { return hdr; }
    std::uint64_t recordCount() const { return hdr.recordCount; }

    /** Move the program and trace out; the reader is spent after. */
    LoadedTrace release() { return std::move(loaded); }

  private:
    TraceHeader hdr;
    LoadedTrace loaded;
};

/** Load and validate @p path (throws vsim::FatalError on any defect). */
LoadedTrace loadTrace(const std::string &path);

/**
 * Record a complete run of @p prog on the functional core to @p path.
 * @return the number of dynamic records written
 * @throws vsim::FatalError on I/O failure or a non-halting program
 */
std::uint64_t recordTrace(const assembler::Program &prog,
                          const std::string &path,
                          std::uint64_t max_insts = 500'000'000);

/**
 * Content hash of every byte of the file at @p path: the RunCache /
 * jobKey identity of a trace workload. An XXH64 pass (four 64-bit
 * multiply-rotate lanes over 32-byte stripes, then the byte tail and
 * the length), several times faster than the byte-serial FNV-1a footer
 * digest, which stays the format's own checksum. Memoised per path and
 * file identity (size, mtime in ns, device, inode; thread-safe), so a
 * file re-recorded in place is re-hashed instead of aliasing its old
 * key. Throws vsim::FatalError for a missing or non-regular path, or a
 * file that changes while it is being hashed.
 */
std::uint64_t traceFileHash(const std::string &path);

} // namespace vsim::trace

#endif // VSIM_TRACE_TRACE_IO_HH
