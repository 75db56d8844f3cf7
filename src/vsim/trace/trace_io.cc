#include "trace_io.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>

#include "vsim/base/logging.hh"
#include "vsim/base/thread_pool.hh"

namespace vsim::trace
{

namespace
{

/** Block size of the key digest (traceFileHash). */
constexpr std::uint64_t kKeyBlockBytes = 1 << 20;

// XXH64 (seed 0): four 64-bit multiply-rotate lanes over 32-byte
// stripes, then the byte tail, the length and a final avalanche.
constexpr std::uint64_t kXxPrime1 = 0x9e3779b185ebca87ull;
constexpr std::uint64_t kXxPrime2 = 0xc2b2ae3d27d4eb4full;
constexpr std::uint64_t kXxPrime3 = 0x165667b19e3779f9ull;
constexpr std::uint64_t kXxPrime4 = 0x85ebca77c2b2ae63ull;
constexpr std::uint64_t kXxPrime5 = 0x27d4eb2f165667c5ull;

std::uint64_t
load64(const unsigned char *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

std::uint64_t
xxRound(std::uint64_t acc, std::uint64_t lane)
{
    acc += lane * kXxPrime2;
    return std::rotl(acc, 31) * kXxPrime1;
}

/** Streaming XXH64 over a byte sequence fed in 32-byte stripes. */
class ContentHash
{
  public:
    /** Fold the whole stripes of @p p; returns the bytes left over. */
    std::uint64_t
    stripes(const unsigned char *p, std::uint64_t len)
    {
        // Locals, not the members: byte loads may alias the lanes, which
        // would force a store and reload of all four every stripe.
        std::uint64_t v0 = lane[0], v1 = lane[1], v2 = lane[2],
                      v3 = lane[3];
        const std::uint64_t whole = len - len % 32;
        for (std::uint64_t i = 0; i < whole; i += 32) {
            v0 = xxRound(v0, load64(p + i));
            v1 = xxRound(v1, load64(p + i + 8));
            v2 = xxRound(v2, load64(p + i + 16));
            v3 = xxRound(v3, load64(p + i + 24));
        }
        lane[0] = v0;
        lane[1] = v1;
        lane[2] = v2;
        lane[3] = v3;
        total += whole;
        return len - whole;
    }

    /** Mix in the final < 32 bytes and the length. */
    std::uint64_t
    finish(const unsigned char *p, std::uint64_t len)
    {
        std::uint64_t h;
        if (total >= 32) {
            h = std::rotl(lane[0], 1) + std::rotl(lane[1], 7)
                + std::rotl(lane[2], 12) + std::rotl(lane[3], 18);
            for (std::uint64_t v : lane)
                h = (h ^ xxRound(0, v)) * kXxPrime1 + kXxPrime4;
        } else {
            h = kXxPrime5;
        }
        h += total + len;
        for (; len >= 8; p += 8, len -= 8)
            h = std::rotl(h ^ xxRound(0, load64(p)), 27) * kXxPrime1
                + kXxPrime4;
        if (len >= 4) {
            std::uint32_t w;
            std::memcpy(&w, p, sizeof w);
            h = std::rotl(h ^ (w * kXxPrime1), 23) * kXxPrime2 + kXxPrime3;
            p += 4;
            len -= 4;
        }
        for (; len > 0; ++p, --len)
            h = std::rotl(h ^ (*p * kXxPrime5), 11) * kXxPrime1;
        h ^= h >> 33;
        h *= kXxPrime2;
        h ^= h >> 29;
        h *= kXxPrime3;
        return h ^ (h >> 32);
    }

  private:
    std::uint64_t lane[4] = {kXxPrime1 + kXxPrime2, kXxPrime2, 0,
                             0 - kXxPrime1};
    std::uint64_t total = 0;
};

/** XXH64 (seed 0) of @p len bytes: the digest of one payload piece. */
std::uint64_t
xxh64(const void *bytes, std::uint64_t len)
{
    const unsigned char *p = static_cast<const unsigned char *>(bytes);
    ContentHash hasher;
    const std::uint64_t rest = hasher.stripes(p, len);
    return hasher.finish(p + (len - rest), rest);
}

/** The footer digest: the XXH64 of the piece digests, in file order. */
std::uint64_t
foldPieces(const std::vector<std::uint64_t> &pieces)
{
    return xxh64(pieces.data(), pieces.size() * sizeof(std::uint64_t));
}

} // namespace

std::uint64_t
payloadDigest(const TraceHeader &hdr, const void *payload)
{
    const unsigned char *p = static_cast<const unsigned char *>(payload);
    std::vector<std::uint64_t> pieces;
    auto piece = [&](std::uint64_t len) {
        pieces.push_back(xxh64(p, len));
        p += len;
    };
    piece(4ull * hdr.textWords);
    piece(hdr.dataBytes);
    for (std::uint64_t done = 0; done < hdr.recordCount;
         done += kBurstRecords)
        piece(std::min(kBurstRecords, hdr.recordCount - done)
              * sizeof(TraceRecord));
    piece(hdr.outputBytes);
    return foldPieces(pieces);
}

std::vector<std::uint64_t>
loadRangeStarts(std::uint64_t records, int workers)
{
    const std::uint64_t bursts =
        (records + kBurstRecords - 1) / kBurstRecords;
    const std::uint64_t n = std::min<std::uint64_t>(
        bursts, static_cast<std::uint64_t>(std::max(workers, 1)));
    std::vector<std::uint64_t> starts(n);
    for (std::uint64_t r = 0; r < n; ++r)
        starts[r] = bursts * r / n * kBurstRecords;
    return starts;
}

TraceRecord
makeRecord(const arch::TraceEntry &entry)
{
    TraceRecord rec;
    rec.pc = entry.pc;
    rec.value = entry.value;
    rec.target = entry.nextPc;
    rec.memAddr = entry.memAddr;
    rec.imm = entry.inst.imm;
    rec.op = static_cast<std::uint8_t>(entry.inst.op);
    rec.ra = entry.inst.ra;
    rec.rb = entry.inst.rb;
    rec.rc = entry.inst.rc;
    rec.memSize = static_cast<std::uint8_t>(entry.inst.memSize());
    rec.taken = entry.nextPc != entry.pc + 4 ? 1 : 0;
    return rec;
}

arch::TraceEntry
makeEntry(const TraceRecord &rec)
{
    arch::TraceEntry entry;
    entry.pc = rec.pc;
    entry.value = rec.value;
    entry.nextPc = rec.target;
    entry.memAddr = rec.memAddr;
    entry.inst.op = static_cast<isa::Op>(rec.op);
    entry.inst.ra = rec.ra;
    entry.inst.rb = rec.rb;
    entry.inst.rc = rec.rc;
    entry.inst.imm = rec.imm;
    return entry;
}

// --------------------------------------------------------------------
// TraceWriter

TraceWriter::TraceWriter(const std::string &path_,
                         const assembler::Program &prog)
    : path(path_), out(path_, std::ios::binary | std::ios::trunc),
      burst(kBurstRecords)
{
    if (!out)
        VSIM_FATAL("cannot open trace file for writing: ", path);
    if (prog.text.empty())
        VSIM_FATAL("refusing to trace a program with no text: ", path);

    hdr.textBase = prog.textBase;
    hdr.dataBase = prog.dataBase;
    hdr.stackTop = prog.stackTop;
    hdr.entry = prog.entry;
    hdr.textWords = static_cast<std::uint32_t>(prog.text.size());
    hdr.dataBytes = static_cast<std::uint32_t>(prog.data.size());

    // Header first (recordCount = kUnfinalized until finalize()),
    // then the static image, the payload's first two pieces.
    put(&hdr, sizeof(hdr));
    const std::uint64_t text_bytes = 4ull * prog.text.size();
    put(prog.text.data(), text_bytes);
    pieces.push_back(xxh64(prog.text.data(), text_bytes));
    if (!prog.data.empty())
        put(prog.data.data(), prog.data.size());
    pieces.push_back(xxh64(prog.data.data(), prog.data.size()));
}

void
TraceWriter::put(const void *bytes, std::uint64_t len)
{
    out.write(static_cast<const char *>(bytes),
              static_cast<std::streamsize>(len));
    if (!out)
        VSIM_FATAL("write failed on trace file: ", path);
}

void
TraceWriter::flushBuffer()
{
    if (filled == 0)
        return;
    const std::uint64_t bytes = filled * sizeof(TraceRecord);
    pieces.push_back(xxh64(burst.data(), bytes));
    put(burst.data(), bytes);
    filled = 0;
}

void
TraceWriter::append(const TraceRecord &rec)
{
    VSIM_ASSERT(!finalized, "append after finalize");
    burst[filled++] = rec;
    ++count;
    if (filled == kBurstRecords)
        flushBuffer();
}

void
TraceWriter::finalize(const std::string &output, std::uint64_t exit_code)
{
    VSIM_ASSERT(!finalized, "trace finalized twice");
    flushBuffer();
    if (!output.empty())
        put(output.data(), output.size());
    pieces.push_back(xxh64(output.data(), output.size()));

    TraceFooter footer;
    footer.digest = foldPieces(pieces);
    put(&footer, sizeof(footer));

    hdr.outputBytes = static_cast<std::uint32_t>(output.size());
    hdr.exitCode = exit_code;
    hdr.recordCount = count;
    out.seekp(0);
    put(&hdr, sizeof(hdr));

    out.flush();
    if (!out)
        VSIM_FATAL("flush failed on trace file: ", path);
    out.close();
    if (out.fail())
        VSIM_FATAL("close failed on trace file: ", path);
    finalized = true;
}

// --------------------------------------------------------------------
// TraceReader

namespace
{

/** What tells one version of a file on disk from another. */
struct FileId
{
    std::uint64_t size = 0;
    std::int64_t mtimeNs = 0;
    std::uint64_t dev = 0;
    std::uint64_t ino = 0;

    bool operator==(const FileId &) const = default;
};

/**
 * Read-only descriptor on a regular file. O_NONBLOCK keeps the open of
 * a FIFO from waiting for a writer, so a directory, FIFO or device is
 * rejected by the fstat that follows (reads of a regular file ignore
 * the flag).
 */
class InputFile
{
  public:
    explicit InputFile(const std::string &path_) : path(path_)
    {
        fd = ::open(path.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
        if (fd < 0)
            VSIM_FATAL("cannot open trace file: ", path);
        struct stat st;
        if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
            ::close(fd);
            VSIM_FATAL("not a regular file: ", path);
        }
    }

    ~InputFile() { ::close(fd); }

    InputFile(const InputFile &) = delete;
    InputFile &operator=(const InputFile &) = delete;

    /** Identity of the open file (not of whatever the path names now). */
    FileId
    id() const
    {
        struct stat st;
        if (::fstat(fd, &st) != 0)
            VSIM_FATAL("cannot stat trace file: ", path);
        return {static_cast<std::uint64_t>(st.st_size),
                static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1'000'000'000
                    + st.st_mtim.tv_nsec,
                static_cast<std::uint64_t>(st.st_dev),
                static_cast<std::uint64_t>(st.st_ino)};
    }

    /**
     * Read exactly @p len bytes at @p offset or reject the file as
     * truncated. Leaves the read position alone, so workers may call
     * it at once.
     */
    void
    readAt(void *bytes, std::uint64_t len, std::uint64_t offset) const
    {
        char *p = static_cast<char *>(bytes);
        std::uint64_t done = 0;
        while (done < len) {
            const ssize_t n = ::pread(fd, p + done, len - done,
                                      static_cast<off_t>(offset + done));
            if (n == 0)
                VSIM_FATAL("truncated trace file: ", path);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                VSIM_FATAL("read failed on trace file: ", path);
            }
            done += static_cast<std::uint64_t>(n);
        }
    }

  private:
    std::string path;
    int fd = -1;
};

/**
 * Check one record's static fields: a record must describe an
 * instruction the decoder could have produced, lie inside the text
 * image, and carry internally consistent memory/control metadata.
 * @return nullptr if the record is sane, else what is wrong with it
 */
const char *
validateRecord(const TraceRecord &rec, const TraceHeader &hdr)
{
    if (rec.op >= static_cast<std::uint8_t>(isa::kNumOps))
        return "opcode out of range";
    if (rec.ra >= isa::kNumRegs || rec.rb >= isa::kNumRegs
        || rec.rc >= isa::kNumRegs)
        return "register field out of range";

    const isa::Inst inst{static_cast<isa::Op>(rec.op), rec.ra, rec.rb,
                         rec.rc, rec.imm};
    switch (inst.info().fmt) {
      case isa::Format::F_RRR:
        if (rec.imm != 0)
            return "nonzero immediate on an R-type record";
        break;
      case isa::Format::F_RRI:
        if (rec.rc != 0)
            return "nonzero rc on an I-type record";
        if (rec.imm < -(1 << 14) || rec.imm >= (1 << 14))
            return "imm15 out of range";
        break;
      case isa::Format::F_RI20:
        if (rec.rb != 0 || rec.rc != 0)
            return "nonzero rb/rc on a RI20-type record";
        if (rec.imm < -(1 << 19) || rec.imm >= (1 << 19))
            return "imm20 out of range";
        break;
    }

    const std::uint64_t text_end = hdr.textBase + 4ull * hdr.textWords;
    if (rec.pc < hdr.textBase || rec.pc >= text_end || rec.pc % 4 != 0)
        return "pc outside the text image";
    if (rec.memSize != static_cast<std::uint8_t>(inst.memSize()))
        return "memSize does not match the opcode";
    if (!inst.isMem() && rec.memAddr != 0)
        return "memory address on a non-memory record";
    if (rec.taken != (rec.target != rec.pc + 4 ? 1 : 0))
        return "taken flag contradicts the target";
    for (std::uint8_t p : rec.pad) {
        if (p != 0)
            return "nonzero pad bytes";
    }
    return nullptr;
}

/** What one load worker found in its range of records. */
struct RangeScan
{
    const char *defect = nullptr; //!< the range's first record defect
    std::uint64_t defectIndex = 0;
    std::uint64_t firstPc = 0;    //!< pc of the range's first record
    std::uint64_t lastTarget = 0; //!< target of its last one (no defect)
};

/**
 * One load worker: read records [first, stop) -- whole bursts, at byte
 * @p records_at of the file -- a burst at a time, store each burst's
 * digest at its index in @p burst_digests, and check and decode the
 * records into @p entries. Each record must be a decodable
 * instruction, the correct path must chain (record i's target is
 * record i+1's pc, across burst seams too; the caller checks the seam
 * before @p first), and only the trace's last record may be (and must
 * be) a HALT. After the first defect the rest of the range is only
 * digested.
 */
void
scanRange(const InputFile &in, const TraceHeader &hdr,
          std::uint64_t records_at, std::uint64_t first,
          std::uint64_t stop, arch::TraceEntry *entries,
          std::uint64_t *burst_digests, RangeScan &scan)
{
    std::vector<TraceRecord> burst(std::min(kBurstRecords, stop - first));
    std::uint64_t prev_target = 0;
    for (std::uint64_t done = first; done < stop; done += kBurstRecords) {
        const std::uint64_t n = std::min(kBurstRecords, stop - done);
        const std::uint64_t bytes = n * sizeof(TraceRecord);
        in.readAt(burst.data(), bytes,
                  records_at + done * sizeof(TraceRecord));
        burst_digests[done / kBurstRecords] = xxh64(burst.data(), bytes);
        if (done == first)
            scan.firstPc = burst[0].pc;
        for (std::uint64_t j = 0; j < n && !scan.defect; ++j) {
            const TraceRecord &rec = burst[j];
            const std::uint64_t i = done + j;
            if (i > first && rec.pc != prev_target) {
                scan.defect =
                    "correct path does not chain to the next record";
                scan.defectIndex = i - 1;
                break;
            }
            scan.defect = validateRecord(rec, hdr);
            const bool last = i + 1 == hdr.recordCount;
            const bool halt =
                rec.op == static_cast<std::uint8_t>(isa::Op::HALT);
            if (!scan.defect && halt != last) {
                scan.defect = last ? "trace does not end in HALT"
                                   : "HALT before the end of the trace";
            }
            if (scan.defect) {
                scan.defectIndex = i;
                break;
            }
            prev_target = rec.target;
            entries[i] = makeEntry(rec);
        }
    }
    scan.lastTarget = prev_target;
}

} // namespace

TraceReader::TraceReader(const std::string &path, int workers)
{
    const auto t0 = std::chrono::steady_clock::now();
    InputFile in(path);
    const std::uint64_t file_size = in.id().size;

    if (file_size < sizeof(TraceHeader) + sizeof(TraceFooter))
        VSIM_FATAL("trace file too small to be valid: ", path);
    in.readAt(&hdr, sizeof(hdr), 0);

    if (hdr.magic != kTraceMagic)
        VSIM_FATAL("not a VSIM trace (bad magic): ", path);
    if (hdr.version != kTraceVersion) {
        VSIM_FATAL("unsupported trace version ", hdr.version,
                   " (expected ", kTraceVersion,
                   "; re-record it with vspec_tracegen): ", path);
    }
    if (hdr.headerBytes != sizeof(TraceHeader)
        || hdr.recordBytes != sizeof(TraceRecord))
        VSIM_FATAL("trace structure sizes do not match v", kTraceVersion,
                   ": ", path);
    if (hdr.recordCount == kUnfinalized) {
        VSIM_FATAL("unfinalized trace (writer did not finish): ",
                   path);
    }
    if (hdr.textWords == 0)
        VSIM_FATAL("trace has an empty text image: ", path);
    if (hdr.recordCount == 0)
        VSIM_FATAL("trace has no dynamic records: ", path);
    if (hdr.entry < hdr.textBase
        || hdr.entry >= hdr.textBase + 4ull * hdr.textWords
        || hdr.entry % 4 != 0)
        VSIM_FATAL("trace entry point outside the text image: ", path);

    // Exact length check: catches truncation and trailing garbage
    // before we commit to reading the sections. It also bounds
    // recordCount by the file size, so sizing the entries is safe.
    const std::uint64_t payload = file_size - sizeof(TraceHeader)
                                  - sizeof(TraceFooter);
    if (hdr.recordCount > payload / sizeof(TraceRecord))
        VSIM_FATAL("truncated trace file: ", path);
    const std::uint64_t records_at =
        sizeof(TraceHeader) + 4ull * hdr.textWords + hdr.dataBytes;
    const std::uint64_t output_at =
        records_at + hdr.recordCount * sizeof(TraceRecord);
    const std::uint64_t expected =
        output_at + hdr.outputBytes + sizeof(TraceFooter);
    if (file_size != expected) {
        VSIM_FATAL("trace file length ", file_size, " != expected ",
                   expected, " (truncated or corrupt): ", path);
    }

    // Piece digests in file order: text, data, each burst, output.
    const std::uint64_t bursts =
        (hdr.recordCount + kBurstRecords - 1) / kBurstRecords;
    std::vector<std::uint64_t> pieces(bursts + 3);

    assembler::Program &prog = loaded.program;
    prog.textBase = hdr.textBase;
    prog.dataBase = hdr.dataBase;
    prog.stackTop = hdr.stackTop;
    prog.entry = hdr.entry;
    prog.text.resize(hdr.textWords);
    in.readAt(prog.text.data(), 4ull * hdr.textWords, sizeof(TraceHeader));
    pieces[0] = xxh64(prog.text.data(), 4ull * hdr.textWords);
    prog.data.resize(hdr.dataBytes);
    in.readAt(prog.data.data(), hdr.dataBytes,
              sizeof(TraceHeader) + 4ull * hdr.textWords);
    pieces[1] = xxh64(prog.data.data(), hdr.dataBytes);

    // The records, one contiguous range of bursts per worker, each
    // decoded into entries that only its worker touches. Record
    // defects are held back until the digest has been checked.
    arch::ExecTrace &trace = loaded.trace;
    trace.entries.resize(hdr.recordCount);
    const std::vector<std::uint64_t> starts =
        loadRangeStarts(hdr.recordCount, workers);
    const std::size_t ranges = starts.size();
    std::vector<RangeScan> scans(ranges);
    runConcurrently(static_cast<int>(ranges), [&](int r) {
        const std::size_t k = static_cast<std::size_t>(r);
        scanRange(in, hdr, records_at, starts[k],
                  k + 1 < ranges ? starts[k + 1] : hdr.recordCount,
                  trace.entries.data(), &pieces[2], scans[k]);
    });

    trace.output.resize(hdr.outputBytes);
    in.readAt(trace.output.data(), hdr.outputBytes, output_at);
    pieces.back() = xxh64(trace.output.data(), hdr.outputBytes);
    trace.exitCode = hdr.exitCode;

    TraceFooter footer;
    in.readAt(&footer, sizeof(footer), output_at + hdr.outputBytes);
    if (footer.endMagic != kTraceEndMagic)
        VSIM_FATAL("trace footer marker missing: ", path);
    if (footer.digest != foldPieces(pieces)) {
        VSIM_FATAL("trace payload digest mismatch (corrupt file): ",
                   path);
    }
    // The earliest record defect, in the order one pass meets them: a
    // range's seam with the range before it precedes its own records.
    auto corrupt = [&](std::uint64_t index, const char *defect) {
        VSIM_FATAL("corrupt trace record #", index, " in ", path, ": ",
                   defect);
    };
    for (std::size_t r = 0; r < ranges; ++r) {
        if (r > 0 && scans[r].firstPc != scans[r - 1].lastTarget)
            corrupt(starts[r] - 1,
                    "correct path does not chain to the next record");
        if (scans[r].defect)
            corrupt(scans[r].defectIndex, scans[r].defect);
    }
    if (trace.entries.front().pc != hdr.entry)
        VSIM_FATAL("first trace record is not at the entry point: ",
                   path);
    if (trace.entries.back().nextPc != trace.entries.back().pc)
        VSIM_FATAL("HALT record target is not its own pc: ", path);

    VSIM_INFORM("trace: ", hdr.recordCount, " records loaded in ",
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count(),
                " s on ", ranges, ranges == 1 ? " worker" : " workers");
}

// --------------------------------------------------------------------
// Convenience entry points

LoadedTrace
loadTrace(const std::string &path, int workers)
{
    return TraceReader(path, workers).release();
}

std::uint64_t
recordTrace(const assembler::Program &prog, const std::string &path,
            std::uint64_t max_insts)
{
    TraceWriter writer(path, prog);
    arch::FunctionalCore core(prog);
    arch::TraceEntry entry;
    while (!core.state().halted) {
        if (core.instCount() >= max_insts) {
            VSIM_FATAL("traced program did not halt within ", max_insts,
                       " instructions");
        }
        core.step(&entry);
        writer.append(makeRecord(entry));
    }
    writer.finalize(core.state().output, core.state().exitCode);
    return writer.recordCount();
}

namespace
{

std::atomic<std::uint64_t> fileHashes{0};

/**
 * The key digest of the @p size bytes of @p in (see traceFileHash),
 * its blocks split into contiguous ranges, one per worker; the caller
 * runs the first.
 */
std::uint64_t
keyDigest(const InputFile &in, std::uint64_t size, int workers)
{
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t blocks =
        std::max<std::uint64_t>(1, (size + kKeyBlockBytes - 1)
                                       / kKeyBlockBytes);
    const std::uint64_t ranges = std::min<std::uint64_t>(
        blocks, static_cast<std::uint64_t>(std::max(workers, 1)));
    std::vector<std::uint64_t> digests(blocks);
    runConcurrently(static_cast<int>(ranges), [&](int r) {
        const std::uint64_t k = static_cast<std::uint64_t>(r);
        // At least one byte, so an empty file still digests a valid
        // pointer.
        std::vector<unsigned char> block(
            std::max<std::uint64_t>(1, std::min(kKeyBlockBytes, size)));
        for (std::uint64_t b = blocks * k / ranges;
             b < blocks * (k + 1) / ranges; ++b) {
            const std::uint64_t at = b * kKeyBlockBytes;
            const std::uint64_t len = std::min(kKeyBlockBytes, size - at);
            in.readAt(block.data(), len, at);
            digests[b] = xxh64(block.data(), len);
        }
    });
    VSIM_INFORM("trace: key digest of ", size, " bytes in ",
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count(),
                " s on ", ranges, ranges == 1 ? " worker" : " workers");
    return blocks == 1 ? digests[0] : foldPieces(digests);
}

} // namespace

std::uint64_t
traceFileHash(const std::string &path, int workers)
{
    struct Memo
    {
        std::mutex mutex; //!< held across the digest of this path
        bool known = false;
        FileId id;
        std::uint64_t hash = 0;
    };
    static std::mutex memoMutex;
    static std::map<std::string, Memo> memo;

    InputFile in(path);
    const FileId before = in.id();
    std::unique_lock<std::mutex> memo_lock(memoMutex);
    Memo &m = memo[path]; // map nodes never move
    memo_lock.unlock();
    // Per-path lock: a second request waits for the first digest of
    // its own file, never for another file's.
    std::lock_guard<std::mutex> lock(m.mutex);
    if (m.known && m.id == before)
        return m.hash;

    std::uint64_t hash = 0;
    try {
        hash = keyDigest(in, before.size, workers);
    } catch (const FatalError &) {
        // A file cut short under the digest reads as truncated; say
        // what happened to it instead.
        if (in.id() == before)
            throw;
    }
    if (in.id() != before)
        VSIM_FATAL("trace file changed while it was being hashed: ", path);
    m.known = true;
    m.id = before;
    m.hash = hash;
    fileHashes.fetch_add(1, std::memory_order_relaxed);
    return hash;
}

std::uint64_t
traceFileHashes()
{
    return fileHashes.load(std::memory_order_relaxed);
}

} // namespace vsim::trace
