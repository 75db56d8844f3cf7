#include "trace_io.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>

#include "vsim/base/logging.hh"

namespace vsim::trace
{

namespace
{

/** Records buffered per write/read burst (192 KiB of 48-byte records). */
constexpr std::size_t kBurstRecords = 4096;

/** Chunk size for whole-file hashing (a multiple of the 32-byte stripe). */
constexpr std::size_t kChunkBytes = 256 * 1024;

/** Bursts the digest ring holds (1.5 MiB of records). */
constexpr std::size_t kRingSlots = 8;

} // namespace

// --------------------------------------------------------------------
// BurstDigest

/**
 * The payload's FNV-1a, folded over record bursts on one helper
 * thread. FNV-1a is a serial multiply chain, so folding it beside the
 * producer takes it off the critical path. The producer fills ring
 * slots in turn: acquire() returns the next slot once the helper has
 * digested what it held last, and publish() hands the filled slot to
 * the helper. A published slot may still be read by the producer (the
 * reader checks and decodes a burst while it is digested) but not
 * written. finish() folds every published burst and joins the helper;
 * the destructor joins it on every other path.
 */
class BurstDigest
{
  public:
    explicit BurstDigest(std::uint64_t seed)
        : slots(kRingSlots * kBurstRecords), digest(seed),
          helper([this] { fold(); })
    {}

    ~BurstDigest() { stop(); }

    BurstDigest(const BurstDigest &) = delete;
    BurstDigest &operator=(const BurstDigest &) = delete;

    /** The next slot to fill, once its previous burst is digested. */
    TraceRecord *
    acquire()
    {
        std::unique_lock<std::mutex> lock(mtx);
        folded.wait(lock,
                    [this] { return published - digested < kRingSlots; });
        return &slots[published % kRingSlots * kBurstRecords];
    }

    /** Hand the slot from acquire(), holding @p records, to the helper. */
    void
    publish(std::size_t records)
    {
        {
            std::lock_guard<std::mutex> lock(mtx);
            sizes[published % kRingSlots] = records;
            ++published;
        }
        work.notify_one();
    }

    /** The digest of the seed and every published burst, in order. */
    std::uint64_t
    finish()
    {
        stop();
        return digest;
    }

  private:
    void
    stop()
    {
        if (!helper.joinable())
            return;
        {
            std::lock_guard<std::mutex> lock(mtx);
            closing = true;
        }
        work.notify_one();
        helper.join();
    }

    /** Helper thread: fold published bursts until closed and drained. */
    void
    fold()
    {
        std::uint64_t h = digest;
        std::unique_lock<std::mutex> lock(mtx);
        for (;;) {
            work.wait(lock,
                      [this] { return closing || digested < published; });
            if (digested == published)
                break;
            const std::size_t slot = digested % kRingSlots;
            const std::size_t records = sizes[slot];
            lock.unlock();
            h = fnv1a(&slots[slot * kBurstRecords],
                      records * sizeof(TraceRecord), h);
            lock.lock();
            ++digested;
            folded.notify_one();
        }
        digest = h; // read by finish() after the join
    }

    std::vector<TraceRecord> slots;
    std::size_t sizes[kRingSlots] = {}; //!< records per published slot
    std::uint64_t published = 0;        //!< bursts handed over
    std::uint64_t digested = 0;         //!< bursts folded
    bool closing = false;
    std::uint64_t digest;
    std::mutex mtx;
    std::condition_variable work;   //!< a burst was published, or closing
    std::condition_variable folded; //!< a burst was digested
    std::thread helper; //!< last member: starts after the rest exist
};

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
    : path(path_), out(path_, std::ios::binary | std::ios::trunc)
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
    // then the static image; the payload digest starts at the image.
    put(&hdr, sizeof(hdr));
    std::uint64_t seed = kFnvOffset;
    if (!prog.text.empty()) {
        const std::uint64_t bytes = 4ull * prog.text.size();
        put(prog.text.data(), bytes);
        seed = fnv1a(prog.text.data(), bytes, seed);
    }
    if (!prog.data.empty()) {
        put(prog.data.data(), prog.data.size());
        seed = fnv1a(prog.data.data(), prog.data.size(), seed);
    }
    ring = std::make_unique<BurstDigest>(seed);
}

TraceWriter::~TraceWriter()
{
    // Without finalize() the header still says kUnfinalized records,
    // so a half-written file is rejected on load rather than replayed.
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
    ring->publish(filled);
    put(slot, filled * sizeof(TraceRecord));
    filled = 0;
}

void
TraceWriter::append(const TraceRecord &rec)
{
    VSIM_ASSERT(!finalized, "append after finalize");
    if (filled == 0)
        slot = ring->acquire();
    slot[filled++] = rec;
    ++count;
    if (filled == kBurstRecords)
        flushBuffer();
}

void
TraceWriter::finalize(const std::string &output, std::uint64_t exit_code)
{
    VSIM_ASSERT(!finalized, "trace finalized twice");
    flushBuffer();

    TraceFooter footer;
    footer.digest = ring->finish();
    if (!output.empty()) {
        put(output.data(), output.size());
        footer.digest = fnv1a(output.data(), output.size(), footer.digest);
    }
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

    /** Read up to @p len bytes; comes up short only at end of file. */
    std::uint64_t
    readSome(void *bytes, std::uint64_t len)
    {
        char *p = static_cast<char *>(bytes);
        std::uint64_t done = 0;
        while (done < len) {
            const ssize_t n = ::read(fd, p + done, len - done);
            if (n == 0)
                break;
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                VSIM_FATAL("read failed on trace file: ", path);
            }
            done += static_cast<std::uint64_t>(n);
        }
        return done;
    }

    /** Read exactly @p len bytes or reject the file as truncated. */
    void
    read(void *bytes, std::uint64_t len)
    {
        if (readSome(bytes, len) != len)
            VSIM_FATAL("truncated trace file: ", path);
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

} // namespace

TraceReader::TraceReader(const std::string &path)
{
    InputFile in(path);
    const std::uint64_t file_size = in.id().size;

    if (file_size < sizeof(TraceHeader) + sizeof(TraceFooter))
        VSIM_FATAL("trace file too small to be valid: ", path);
    in.read(&hdr, sizeof(hdr));

    if (hdr.magic != kTraceMagic)
        VSIM_FATAL("not a VSIM trace (bad magic): ", path);
    if (hdr.version != kTraceVersion) {
        VSIM_FATAL("unsupported trace version ", hdr.version,
                   " (expected ", kTraceVersion, "): ", path);
    }
    if (hdr.headerBytes != sizeof(TraceHeader)
        || hdr.recordBytes != sizeof(TraceRecord))
        VSIM_FATAL("trace structure sizes do not match v1: ", path);
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
    // recordCount by the file size, so the reserve below is safe.
    const std::uint64_t payload = file_size - sizeof(TraceHeader)
                                  - sizeof(TraceFooter);
    if (hdr.recordCount > payload / sizeof(TraceRecord))
        VSIM_FATAL("truncated trace file: ", path);
    const std::uint64_t expected =
        sizeof(TraceHeader) + 4ull * hdr.textWords + hdr.dataBytes
        + hdr.recordCount * sizeof(TraceRecord) + hdr.outputBytes
        + sizeof(TraceFooter);
    if (file_size != expected) {
        VSIM_FATAL("trace file length ", file_size, " != expected ",
                   expected, " (truncated or corrupt): ", path);
    }

    std::uint64_t seed = kFnvOffset;

    assembler::Program &prog = loaded.program;
    prog.textBase = hdr.textBase;
    prog.dataBase = hdr.dataBase;
    prog.stackTop = hdr.stackTop;
    prog.entry = hdr.entry;
    prog.text.resize(hdr.textWords);
    in.read(prog.text.data(), 4ull * hdr.textWords);
    seed = fnv1a(prog.text.data(), 4ull * hdr.textWords, seed);
    if (hdr.dataBytes) {
        prog.data.resize(hdr.dataBytes);
        in.read(prog.data.data(), hdr.dataBytes);
        seed = fnv1a(prog.data.data(), hdr.dataBytes, seed);
    }

    // The records, one burst at a time: each burst is read once into a
    // ring slot, handed to the digest helper, then checked and decoded
    // here while the helper folds it. Each record must be a decodable
    // instruction, the correct path must chain (record i's target is
    // record i+1's pc, across burst seams too), and only the last
    // record may be (and must be) a HALT. The first defect is held
    // back until the digest has been checked, so the records after it
    // are only digested.
    arch::ExecTrace &trace = loaded.trace;
    trace.entries.reserve(hdr.recordCount);
    BurstDigest ring(seed);
    const char *defect = nullptr;
    std::uint64_t defect_index = 0;
    std::uint64_t prev_target = 0;
    for (std::uint64_t done = 0; done < hdr.recordCount;) {
        const std::uint64_t burst =
            std::min<std::uint64_t>(kBurstRecords, hdr.recordCount - done);
        TraceRecord *slot = ring.acquire();
        in.read(slot, burst * sizeof(TraceRecord));
        ring.publish(burst);
        for (std::uint64_t j = 0; j < burst && !defect; ++j) {
            const TraceRecord &rec = slot[j];
            const std::uint64_t i = done + j;
            if (i > 0 && rec.pc != prev_target) {
                defect = "correct path does not chain to the next record";
                defect_index = i - 1;
                continue;
            }
            defect = validateRecord(rec, hdr);
            const bool last = i + 1 == hdr.recordCount;
            const bool halt =
                rec.op == static_cast<std::uint8_t>(isa::Op::HALT);
            if (!defect && halt != last) {
                defect = last ? "trace does not end in HALT"
                              : "HALT before the end of the trace";
            }
            if (defect) {
                defect_index = i;
                continue;
            }
            prev_target = rec.target;
            trace.entries.push_back(makeEntry(rec));
        }
        done += burst;
    }

    std::uint64_t digest = ring.finish();
    if (hdr.outputBytes) {
        trace.output.resize(hdr.outputBytes);
        in.read(trace.output.data(), hdr.outputBytes);
        digest = fnv1a(trace.output.data(), hdr.outputBytes, digest);
    }
    trace.exitCode = hdr.exitCode;

    TraceFooter footer;
    in.read(&footer, sizeof(footer));
    if (footer.endMagic != kTraceEndMagic)
        VSIM_FATAL("trace footer marker missing: ", path);
    if (footer.digest != digest) {
        VSIM_FATAL("trace payload digest mismatch (corrupt file): ",
                   path);
    }
    if (defect) {
        VSIM_FATAL("corrupt trace record #", defect_index, " in ", path,
                   ": ", defect);
    }
    if (trace.entries.front().pc != hdr.entry)
        VSIM_FATAL("first trace record is not at the entry point: ",
                   path);
    if (trace.entries.back().nextPc != trace.entries.back().pc)
        VSIM_FATAL("HALT record target is not its own pc: ", path);
}

// --------------------------------------------------------------------
// Convenience entry points

LoadedTrace
loadTrace(const std::string &path)
{
    return TraceReader(path).release();
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

} // namespace

std::uint64_t
traceFileHash(const std::string &path)
{
    struct Memo
    {
        FileId id;
        std::uint64_t hash;
    };
    static std::mutex mutex;
    static std::map<std::string, Memo> cache;

    InputFile in(path);
    const FileId before = in.id();
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (auto it = cache.find(path);
            it != cache.end() && it->second.id == before)
            return it->second.hash;
    }

    // Every chunk but the last is full (readSome is short only at end
    // of file), so only the last one leaves a partial stripe.
    std::vector<unsigned char> chunk(kChunkBytes);
    ContentHash hasher;
    std::uint64_t hash = 0;
    for (;;) {
        const std::uint64_t n = in.readSome(chunk.data(), chunk.size());
        const std::uint64_t rest = hasher.stripes(chunk.data(), n);
        if (n < chunk.size()) {
            hash = hasher.finish(chunk.data() + (n - rest), rest);
            break;
        }
    }
    if (in.id() != before)
        VSIM_FATAL("trace file changed while it was being hashed: ", path);

    std::lock_guard<std::mutex> lock(mutex);
    cache[path] = {before, hash};
    return hash;
}

} // namespace vsim::trace
