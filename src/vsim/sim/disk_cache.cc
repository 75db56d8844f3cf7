#include "disk_cache.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include <unistd.h>

#include "vsim/base/logging.hh"
#include "vsim/base/state_io.hh"
#include "vsim/trace/trace_format.hh"

#include "vsim_build_hash.hh"

namespace vsim::sim
{

namespace
{

namespace fs = std::filesystem;

void
saveCpi(StateWriter &w, const obs::CpiStack &cpi)
{
    for (std::uint64_t c : cpi.cycles)
        w.u64(c);
}

void
loadCpi(StateReader &r, obs::CpiStack &cpi)
{
    for (std::uint64_t &c : cpi.cycles)
        c = r.u64();
}

void
saveStats(StateWriter &w, const core::CoreStats &s)
{
    w.tag("STAT");
    w.u64(s.cycles);
    w.u64(s.retired);
    w.u64(s.fetched);
    w.u64(s.dispatched);
    w.u64(s.issued);
    w.u64(s.retiredLoads);
    w.u64(s.retiredStores);
    w.u64(s.retiredBranches);
    w.u64(s.condBranches);
    w.u64(s.condMispredicts);
    w.u64(s.squashes);
    w.u64(s.vpEligible);
    w.u64(s.vpCH);
    w.u64(s.vpCL);
    w.u64(s.vpIH);
    w.u64(s.vpIL);
    w.u64(s.vpSpeculated);
    w.u64(s.verifyEvents);
    w.u64(s.invalidateEvents);
    w.u64(s.nullifications);
    w.u64(s.reissues);
    w.u64(s.loadsForwarded);
    w.u64(s.icacheMisses);
    w.u64(s.dcacheMisses);
    w.u64(s.predMade);
    w.u64(s.predSquashed);
    w.u64(s.predConsumed);
    w.u64(s.verifyTouches);
    w.u64(s.invalTouches);
    saveCpi(w, s.cpi);
    s.verifyLatency.save(w);
    s.invalToReissue.save(w);
    s.specInFlight.save(w);
}

void
loadStats(StateReader &r, core::CoreStats &s)
{
    r.tag("STAT");
    s.cycles = r.u64();
    s.retired = r.u64();
    s.fetched = r.u64();
    s.dispatched = r.u64();
    s.issued = r.u64();
    s.retiredLoads = r.u64();
    s.retiredStores = r.u64();
    s.retiredBranches = r.u64();
    s.condBranches = r.u64();
    s.condMispredicts = r.u64();
    s.squashes = r.u64();
    s.vpEligible = r.u64();
    s.vpCH = r.u64();
    s.vpCL = r.u64();
    s.vpIH = r.u64();
    s.vpIL = r.u64();
    s.vpSpeculated = r.u64();
    s.verifyEvents = r.u64();
    s.invalidateEvents = r.u64();
    s.nullifications = r.u64();
    s.reissues = r.u64();
    s.loadsForwarded = r.u64();
    s.icacheMisses = r.u64();
    s.dcacheMisses = r.u64();
    s.predMade = r.u64();
    s.predSquashed = r.u64();
    s.predConsumed = r.u64();
    s.verifyTouches = r.u64();
    s.invalTouches = r.u64();
    loadCpi(r, s.cpi);
    s.verifyLatency.restore(r);
    s.invalToReissue.restore(r);
    s.specInFlight.restore(r);
}

} // namespace

void
saveRunResult(StateWriter &w, const RunResult &r)
{
    w.tag("VSRR");
    w.str(r.workload);
    w.u64(r.instructions);
    w.f64(r.ipc);
    w.u64(r.exitCode);
    w.str(r.output);
    saveStats(w, r.stats);
    w.tag("INTV");
    w.u64(r.intervals.period);
    w.u64(r.intervals.samples.size());
    for (const obs::IntervalSample &s : r.intervals.samples) {
        w.u64(s.cycleStart);
        w.u64(s.cycles);
        w.u64(s.retired);
        w.u64(s.issued);
        w.u64(s.dispatched);
        w.u64(s.occupancySum);
        w.u64(s.condBranches);
        w.u64(s.condMispredicts);
        w.u64(s.squashes);
        w.u64(s.verifyEvents);
        w.u64(s.invalidateEvents);
        w.u64(s.nullifications);
        saveCpi(w, s.cpi);
    }
    w.tag("LEDG");
    w.boolean(r.ledger.enabled);
    w.u64(r.ledger.records.size());
    for (const obs::LedgerRecord &rec : r.ledger.records) {
        w.u64(rec.seq);
        w.u64(rec.pc);
        w.u64(rec.madeAt);
        w.u64(rec.resolvedAt);
        w.u64(rec.consumers);
        w.u64(rec.reissues);
        w.u8(static_cast<std::uint8_t>(rec.outcome));
        w.boolean(rec.committed);
    }
}

RunResult
loadRunResult(StateReader &r)
{
    RunResult out;
    r.tag("VSRR");
    out.workload = r.str();
    out.instructions = r.u64();
    out.ipc = r.f64();
    out.exitCode = r.u64();
    out.output = r.str();
    loadStats(r, out.stats);
    r.tag("INTV");
    out.intervals.period = r.u64();
    const std::uint64_t nsamples = r.u64();
    // Each sample is at least 12 u64s + a CPI stack; cap the reserve
    // against absurd counts so a corrupt length can't OOM before the
    // underrun check fires.
    if (nsamples > (1ull << 32))
        VSIM_FATAL("implausible interval sample count ", nsamples);
    out.intervals.samples.resize(static_cast<std::size_t>(nsamples));
    for (obs::IntervalSample &s : out.intervals.samples) {
        s.cycleStart = r.u64();
        s.cycles = r.u64();
        s.retired = r.u64();
        s.issued = r.u64();
        s.dispatched = r.u64();
        s.occupancySum = r.u64();
        s.condBranches = r.u64();
        s.condMispredicts = r.u64();
        s.squashes = r.u64();
        s.verifyEvents = r.u64();
        s.invalidateEvents = r.u64();
        s.nullifications = r.u64();
        loadCpi(r, s.cpi);
    }
    r.tag("LEDG");
    out.ledger.enabled = r.boolean();
    const std::uint64_t nrecords = r.u64();
    if (nrecords > (1ull << 32))
        VSIM_FATAL("implausible ledger record count ", nrecords);
    out.ledger.records.resize(static_cast<std::size_t>(nrecords));
    for (obs::LedgerRecord &rec : out.ledger.records) {
        rec.seq = r.u64();
        rec.pc = r.u64();
        rec.madeAt = r.u64();
        rec.resolvedAt = r.u64();
        rec.consumers = static_cast<std::uint32_t>(r.u64());
        rec.reissues = static_cast<std::uint32_t>(r.u64());
        const std::uint8_t outcome = r.u8();
        if (outcome > static_cast<std::uint8_t>(
                obs::LedgerOutcome::Squashed))
            VSIM_FATAL("invalid ledger outcome ", int(outcome));
        rec.outcome = static_cast<obs::LedgerOutcome>(outcome);
        rec.committed = r.boolean();
    }
    return out;
}

std::uint64_t
DiskRunCache::buildFingerprint()
{
    std::ostringstream os;
    os << std::hex << VSIM_SOURCE_HASH << '|' << __VERSION__ << '|'
       << VSIM_BUILD_FLAGS << '|' << kDiskFormatVersion;
    const std::string s = os.str();
    return trace::fnv1a(s.data(), s.size());
}

DiskRunCache::DiskRunCache(std::string dir, std::uint64_t fingerprint)
    : dir_(std::move(dir)), fingerprint_(fingerprint)
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec || !fs::is_directory(dir_))
        VSIM_FATAL("cannot create cache directory '", dir_,
                   "': ", ec ? ec.message() : "not a directory");
}

std::string
DiskRunCache::entryPath(const std::string &key) const
{
    std::uint64_t h = trace::fnv1a(&fingerprint_, sizeof(fingerprint_));
    h = trace::fnv1a(key.data(), key.size(), h);
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx.vsr",
                  static_cast<unsigned long long>(h));
    return dir_ + "/" + name;
}

bool
DiskRunCache::load(const std::string &key, RunResult &out)
{
    const std::string path = entryPath(key);
    std::vector<std::uint8_t> bytes;
    {
        std::ifstream in(path, std::ios::binary);
        if (!in)
            return false; // plain miss
        in.seekg(0, std::ios::end);
        const std::streamoff len = in.tellg();
        in.seekg(0, std::ios::beg);
        if (len > 0) {
            bytes.resize(static_cast<std::size_t>(len));
            in.read(reinterpret_cast<char *>(bytes.data()), len);
        }
        if (!in) {
            VSIM_WARN("cache: unreadable entry ", path, ", evicting");
            fs::remove(path);
            return false;
        }
    }

    const auto evict = [&](const std::string &why) {
        VSIM_WARN("cache: corrupt entry ", path, " (", why,
                  "), evicting");
        std::error_code ec;
        fs::remove(path, ec);
        return false;
    };

    if (bytes.size() < sizeof(std::uint64_t))
        return evict("short file");
    const std::size_t payload = bytes.size() - sizeof(std::uint64_t);
    std::uint64_t stored = 0;
    for (int i = 0; i < 8; ++i)
        stored |= static_cast<std::uint64_t>(bytes[payload + i])
                  << (8 * i);
    if (trace::fnv1a(bytes.data(), payload) != stored)
        return evict("checksum mismatch");

    try {
        StateReader r(bytes.data(), payload);
        r.tag("VSRC");
        if (r.u64() != kDiskFormatVersion)
            return false; // another format's entry: miss, leave alone
        if (r.u64() != fingerprint_)
            return false; // another build's entry: miss, leave alone
        if (r.str() != key)
            return false; // FNV collision: miss, leave alone
        out = loadRunResult(r);
        if (!r.done())
            return evict("trailing bytes");
    } catch (const FatalError &err) {
        return evict(err.what());
    }
    // Refresh the entry's mtime so the size budget's oldest-first
    // eviction is true LRU rather than insertion order. Best-effort: a
    // read-only cache directory still serves hits.
    std::error_code ec;
    fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
    return true;
}

bool
DiskRunCache::contains(const std::string &key) const
{
    std::error_code ec;
    return fs::exists(entryPath(key), ec);
}

void
DiskRunCache::store(const std::string &key, const RunResult &result)
{
    StateWriter w;
    w.tag("VSRC");
    w.u64(kDiskFormatVersion);
    w.u64(fingerprint_);
    w.str(key);
    saveRunResult(w, result);
    const std::uint64_t checksum =
        trace::fnv1a(w.data().data(), w.data().size());
    w.u64(checksum);

    const std::string path = entryPath(key);
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    {
        std::ofstream outf(tmp, std::ios::binary | std::ios::trunc);
        if (!outf) {
            VSIM_WARN("cache: cannot write ", tmp, ", skipping store");
            return;
        }
        outf.write(reinterpret_cast<const char *>(w.data().data()),
                   static_cast<std::streamsize>(w.data().size()));
        if (!outf) {
            VSIM_WARN("cache: short write to ", tmp,
                      ", skipping store");
            std::error_code ec;
            fs::remove(tmp, ec);
            return;
        }
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) {
        VSIM_WARN("cache: cannot rename ", tmp, " to ", path, ": ",
                  ec.message());
        fs::remove(tmp, ec);
        return;
    }
    enforceBudget();
}

void
DiskRunCache::enforceBudget()
{
    if (maxBytes_ == 0)
        return;

    struct Entry
    {
        fs::path path;
        fs::file_time_type mtime;
        std::uint64_t size = 0;
    };
    std::vector<Entry> entries;
    std::uint64_t total = 0;

    std::error_code ec;
    for (const auto &de : fs::directory_iterator(dir_, ec)) {
        if (de.path().extension() != ".vsr")
            continue; // leave temp files to their owners
        std::error_code fec;
        const std::uint64_t size = de.file_size(fec);
        if (fec)
            continue; // raced with an eviction elsewhere
        const fs::file_time_type mtime = de.last_write_time(fec);
        if (fec)
            continue;
        entries.push_back({de.path(), mtime, size});
        total += size;
    }
    if (ec) {
        VSIM_WARN("cache: cannot scan ", dir_, " for size budget: ",
                  ec.message());
        return;
    }
    if (total <= maxBytes_)
        return;

    // Oldest mtime first; the path tie-break keeps concurrent writers
    // that share a budget evicting in the same order.
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  if (a.mtime != b.mtime)
                      return a.mtime < b.mtime;
                  return a.path < b.path;
              });
    for (const Entry &e : entries) {
        if (total <= maxBytes_)
            break;
        std::error_code rec;
        if (!fs::remove(e.path, rec)) {
            if (rec) {
                VSIM_WARN("cache: cannot evict ", e.path.string(),
                          ": ", rec.message());
                continue; // still there, still counts
            }
            total -= e.size; // raced: already gone, bytes reclaimed
            continue;
        }
        VSIM_WARN("cache: size budget ", maxBytes_,
                  " bytes exceeded, evicted LRU entry ",
                  e.path.string(), " (", e.size, " bytes)");
        total -= e.size;
    }
}

} // namespace vsim::sim
