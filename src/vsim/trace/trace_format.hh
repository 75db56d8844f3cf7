/**
 * @file
 * On-disk layout of VSIM dynamic instruction traces (".vst" files).
 *
 * A trace is a complete, self-contained recording of one program run
 * made by the functional core: enough to replay the run through the
 * out-of-order timing core with *no assembler and no re-execution of
 * the functional model*. Modeled on the Championship Value Prediction
 * harness (trace-driven replay at a 512-entry window), adapted to
 * VRISC: each dynamic record carries the PC, the opcode class and
 * register fields, the memory address and access size, the
 * taken/target outcome and the destination-register value.
 *
 * The timing core additionally models wrong-path fetch (paper §5.1:
 * wrong-path side effects are simulated), and a wrong path by
 * definition is not in the dynamic trace — so the file also embeds the
 * program's static text/data image. Correct-path replay is decode-free
 * (records are pre-decoded); wrong-path fetch decodes from the
 * embedded image exactly like direct simulation, which is what makes
 * replay digest-identical to simulating the original program.
 *
 * All integers are little-endian. File layout, version 2:
 *
 *   TraceHeader                  (80 bytes, fixed)
 *   text image                   (textWords x u32)
 *   data image                   (dataBytes x u8)
 *   dynamic records              (recordCount x TraceRecord, 48 bytes)
 *   program output               (outputBytes x u8, PUTC/PUTI stream)
 *   TraceFooter                  (16 bytes: end magic + payload digest)
 *
 * The footer digest covers every byte between the end of the header
 * and the start of the footer, so truncation, bit rot and a writer
 * that died mid-stream are all detected on load. It is taken in
 * pieces that split where the records do: the XXH64 (seed 0) of each
 * piece, in file order -- the text image, the data image, every burst
 * of kBurstRecords records (the last one may be short; an empty trace
 * has none) and the output, empty pieces included -- and the footer
 * holds the XXH64 of those piece digests laid end to end as
 * little-endian u64s. A reader can therefore digest the bursts on any
 * number of workers and fold the piece digests in order; version 1
 * chained one FNV-1a over the whole payload, which no number of
 * threads could split, and is rejected at the header. The output
 * section follows the records so the generator can stream records
 * while the program runs; recordCount / outputBytes / exitCode are
 * written into the header by TraceWriter::finalize(), and a header
 * whose recordCount is still kUnfinalized marks an unfinished file
 * and is rejected by the reader.
 */

#ifndef VSIM_TRACE_TRACE_FORMAT_HH
#define VSIM_TRACE_TRACE_FORMAT_HH

#include <cstdint>

namespace vsim::trace
{

/** "VSTR" little-endian. */
constexpr std::uint32_t kTraceMagic = 0x52545356u;

/** "VSTE" little-endian (footer end marker). */
constexpr std::uint32_t kTraceEndMagic = 0x45545356u;

constexpr std::uint32_t kTraceVersion = 2;

/** Records per digest piece (192 KiB of 48-byte records). */
constexpr std::uint64_t kBurstRecords = 4096;

/** recordCount placeholder while the writer is still appending. */
constexpr std::uint64_t kUnfinalized = ~0ull;

/** Fixed-size file header (80 bytes). */
struct TraceHeader
{
    std::uint32_t magic = kTraceMagic;
    std::uint32_t version = kTraceVersion;
    std::uint32_t headerBytes = 80;
    std::uint32_t recordBytes = 48;
    std::uint64_t textBase = 0;
    std::uint64_t dataBase = 0;
    std::uint64_t stackTop = 0;
    std::uint64_t entry = 0;
    std::uint32_t textWords = 0;  //!< static text image length
    std::uint32_t dataBytes = 0;  //!< static data image length
    std::uint32_t outputBytes = 0; //!< recorded PUTC/PUTI output length
    std::uint32_t pad = 0;
    std::uint64_t exitCode = 0;
    // recordCount lives at a fixed offset so finalize() can patch it.
    std::uint64_t recordCount = kUnfinalized;
};

static_assert(sizeof(TraceHeader) == 80, "trace header layout drifted");

/** Byte offset of TraceHeader::recordCount (patched by finalize()). */
constexpr std::uint64_t kRecordCountOffset = 72;

/**
 * One dynamic (correct-path) instruction, pre-decoded (48 bytes).
 * taken/target are the *architectural* control outcome: target is the
 * next correct-path PC, and taken is set when target != pc + 4.
 */
struct TraceRecord
{
    std::uint64_t pc = 0;
    std::uint64_t value = 0;   //!< destination-register result (if any)
    std::uint64_t target = 0;  //!< next correct-path PC
    std::uint64_t memAddr = 0; //!< effective address; 0 for non-memory
    std::int32_t imm = 0;      //!< decoded immediate field
    std::uint8_t op = 0;       //!< opcode class (isa::Op)
    std::uint8_t ra = 0;
    std::uint8_t rb = 0;
    std::uint8_t rc = 0;
    std::uint8_t memSize = 0;  //!< access size in bytes; 0 for non-memory
    std::uint8_t taken = 0;    //!< control transfer taken (target != pc+4)
    std::uint8_t pad[6] = {};
};

static_assert(sizeof(TraceRecord) == 48, "trace record layout drifted");

/** Fixed-size file footer (16 bytes). */
struct TraceFooter
{
    std::uint32_t endMagic = kTraceEndMagic;
    std::uint32_t pad = 0;
    std::uint64_t digest = 0; //!< XXH64 of the payload's piece digests
};

static_assert(sizeof(TraceFooter) == 16, "trace footer layout drifted");

// ---- FNV-1a 64 (the disk cache's checksums) ---------------------------

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

inline std::uint64_t
fnv1a(const void *bytes, std::uint64_t len,
      std::uint64_t seed = kFnvOffset)
{
    const unsigned char *p = static_cast<const unsigned char *>(bytes);
    std::uint64_t h = seed;
    for (std::uint64_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

} // namespace vsim::trace

#endif // VSIM_TRACE_TRACE_FORMAT_HH
