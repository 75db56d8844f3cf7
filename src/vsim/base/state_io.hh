/**
 * @file
 * Byte-buffer serialization used by the checkpointable simulator
 * state (SimSnapshot): a StateWriter appends fixed-width
 * little-endian primitives to a growable buffer, a StateReader
 * re-reads them with strict bounds checking. Every compound object
 * (memory image, predictor tables, cache tag state) writes a small
 * section tag first, so a reader that drifts out of sync fails loudly
 * at the next section instead of silently mis-restoring state.
 *
 * The format is a same-build exchange format, not a stable cross-
 * version one: producers and consumers are always the same build
 * (the persistent run cache enforces this with a build fingerprint in
 * its entry header — see vsim/sim/disk_cache.hh), so no versioning is
 * needed beyond the section tags.
 *
 * Reader failures (underrun, tag mismatch) throw vsim::FatalError so
 * that consumers of *untrusted* bytes — a truncated or corrupted
 * on-disk cache entry — can catch the error and recover (evict the
 * entry) instead of aborting the process.
 */

#ifndef VSIM_BASE_STATE_IO_HH
#define VSIM_BASE_STATE_IO_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "logging.hh"

namespace vsim
{

class StateWriter
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf.push_back(v);
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void boolean(bool v) { u8(v ? 1 : 0); }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    /** Length-prefixed string (u64 length + raw bytes). */
    void
    str(const std::string &s)
    {
        u64(s.size());
        buf.insert(buf.end(), s.begin(), s.end());
    }

    /** Four-character section tag guarding reader/writer sync. */
    void
    tag(const char (&t)[5])
    {
        // Byte by byte, like u64(): a range insert into a fresh buffer
        // trips a GCC 12 -Wstringop-overflow false positive.
        for (int i = 0; i < 4; ++i)
            u8(static_cast<std::uint8_t>(t[i]));
    }

    void
    bytes(const std::uint8_t *data, std::size_t len)
    {
        buf.insert(buf.end(), data, data + len);
    }

    /**
     * The @p n elements of @p data as their object bytes, in one copy:
     * the bulk form for large tables. Host byte order, little-endian
     * on every supported host; an element type with padding would
     * write indeterminate bytes, so it does not compile.
     */
    template <typename T>
    void
    array(const T *data, std::size_t n)
    {
        static_assert(std::has_unique_object_representations_v<T>,
                      "array() needs a type without padding bytes");
        static_assert(std::endian::native == std::endian::little);
        bytes(reinterpret_cast<const std::uint8_t *>(data), n * sizeof(T));
    }

    const std::vector<std::uint8_t> &data() const { return buf; }
    std::vector<std::uint8_t> take() { return std::move(buf); }

  private:
    std::vector<std::uint8_t> buf;
};

class StateReader
{
  public:
    explicit StateReader(const std::vector<std::uint8_t> &data)
        : buf(data.data()), size(data.size())
    {
    }

    StateReader(const std::uint8_t *data, std::size_t len)
        : buf(data), size(len)
    {
    }

    std::uint8_t
    u8()
    {
        need(1);
        return buf[pos++];
    }

    std::uint64_t
    u64()
    {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(buf[pos + i]) << (8 * i);
        pos += 8;
        return v;
    }

    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    bool boolean() { return u8() != 0; }
    double f64() { return std::bit_cast<double>(u64()); }

    /** Length-prefixed string written by StateWriter::str. */
    std::string
    str()
    {
        std::uint64_t len = u64();
        if (len > size - pos)
            VSIM_FATAL("state buffer underrun: string of ", len,
                       " bytes at offset ", pos, " exceeds buffer");
        std::string s(reinterpret_cast<const char *>(buf + pos), len);
        pos += len;
        return s;
    }

    /** Consume and check a section tag written by StateWriter::tag. */
    void
    tag(const char (&t)[5])
    {
        need(4);
        if (std::memcmp(buf + pos, t, 4) != 0)
            VSIM_FATAL("state section tag mismatch: expected ", t,
                       " at offset ", pos);
        pos += 4;
    }

    void
    bytes(std::uint8_t *out, std::size_t len)
    {
        need(len);
        std::memcpy(out, buf + pos, len);
        pos += len;
    }

    /** Refill the @p n elements of @p out written by StateWriter::array. */
    template <typename T>
    void
    array(T *out, std::size_t n)
    {
        static_assert(std::has_unique_object_representations_v<T>,
                      "array() needs a type without padding bytes");
        need(n * sizeof(T));
        std::memcpy(static_cast<void *>(out), buf + pos, n * sizeof(T));
        pos += n * sizeof(T);
    }

    bool done() const { return pos == size; }
    std::size_t position() const { return pos; }

  private:
    void
    need(std::size_t n)
    {
        if (n > size - pos)
            VSIM_FATAL("state buffer underrun at offset ", pos,
                       ": need ", n, " more bytes, have ", size - pos);
    }

    const std::uint8_t *buf;
    std::size_t size;
    std::size_t pos = 0;
};

} // namespace vsim

#endif // VSIM_BASE_STATE_IO_HH
