/**
 * @file
 * Persistent, content-addressed on-disk extension of the RunCache.
 *
 * Every entry is one file named by the FNV-1a 64 hash of the job's
 * canonical fingerprint (jobKey) folded with a *build fingerprint* —
 * a hash of every source file, the compiler version and the build
 * flags — so a rebuilt simulator can never serve results recorded by
 * a different binary: stale entries simply live under names the new
 * build never computes.
 *
 * Entry format (all little-endian, via vsim::StateWriter):
 *
 *   "VSRC"                        magic tag
 *   u64  format version           kDiskFormatVersion
 *   u64  build fingerprint        redundant with the file name; guards
 *                                 manual renames / copied cache dirs
 *   str  jobKey                   full key, guards FNV collisions
 *   RunResult payload             saveRunResult byte stream
 *   u64  FNV-1a checksum          over everything above
 *
 * Writes are atomic (temp file + rename in the same directory), so
 * concurrent processes sharing a cache directory race benignly: both
 * write the same bytes, the second rename wins. Reads treat *any*
 * defect — short file, bad checksum, tag mismatch, truncated payload —
 * as a miss and evict the entry rather than crash; a mismatched
 * fingerprint or jobKey is a plain miss (the entry belongs to someone
 * else and is left alone).
 */

#ifndef VSIM_SIM_DISK_CACHE_HH
#define VSIM_SIM_DISK_CACHE_HH

#include <cstdint>
#include <string>

#include "simulator.hh"

namespace vsim
{
class StateWriter;
class StateReader;
} // namespace vsim

namespace vsim::sim
{

/** Bump when the entry layout or the RunResult codec changes. */
constexpr std::uint64_t kDiskFormatVersion = 1;

/**
 * Serialize @p r (stats, CPI stack, histograms, intervals, ledger)
 * into @p w. The stream is self-delimiting; loadRunResult reads it
 * back bit-identically. The payload of every disk cache entry.
 */
void saveRunResult(StateWriter &w, const RunResult &r);

/** Inverse of saveRunResult; VSIM_FATAL (catchable) on corrupt input. */
RunResult loadRunResult(StateReader &r);

/** Directory-backed store of finished runs, keyed by jobKey string. */
class DiskRunCache
{
  public:
    /**
     * Open (creating if needed) the store at @p dir. @p fingerprint
     * defaults to this binary's build fingerprint; tests override it
     * to model a rebuilt binary. VSIM_FATAL when the directory cannot
     * be created.
     */
    explicit DiskRunCache(std::string dir,
                          std::uint64_t fingerprint = buildFingerprint());

    /**
     * Look up @p key. True and fills @p out on a valid entry; false on
     * absence, on another build's entry, or on a corrupt entry (which
     * is unlinked and warned about).
     */
    bool load(const std::string &key, RunResult &out);

    /**
     * True when an entry file for @p key exists. A key-existence
     * probe only: it reads nothing, so an entry that load() would
     * reject (corrupt, or a colliding key) still answers true.
     */
    bool contains(const std::string &key) const;

    /**
     * Persist @p result under @p key (atomic temp-file + rename).
     * Failures are warned about, never fatal: a full disk degrades the
     * cache to a no-op, it does not kill the sweep.
     */
    void store(const std::string &key, const RunResult &result);

    /** Entry file path for @p key (name = hash(key, fingerprint)). */
    std::string entryPath(const std::string &key) const;

    /**
     * Cap the total size of the directory's *.vsr entries at
     * @p maxBytes (0, the default, means unlimited). Enforced after
     * every successful store(): entries are evicted oldest-mtime-first
     * until the total fits, each eviction logged at warning level.
     * load() refreshes a hit's mtime, so the order is true LRU, not
     * insertion order. Entries from other builds share the directory
     * and the budget — an old build's cold entries are exactly what
     * the budget is meant to reclaim.
     */
    void setMaxBytes(std::uint64_t maxBytes) { maxBytes_ = maxBytes; }
    std::uint64_t maxBytes() const { return maxBytes_; }

    const std::string &dir() const { return dir_; }
    std::uint64_t fingerprint() const { return fingerprint_; }

    /**
     * Fingerprint of this binary: FNV-1a over the source-tree hash
     * (generated at build time), the compiler version string, the
     * build flags, and kDiskFormatVersion.
     */
    static std::uint64_t buildFingerprint();

  private:
    /** Evict oldest-mtime entries until the directory fits the budget. */
    void enforceBudget();

    std::string dir_;
    std::uint64_t fingerprint_;
    std::uint64_t maxBytes_ = 0;
};

} // namespace vsim::sim

#endif // VSIM_SIM_DISK_CACHE_HH
