#include "bpred.hh"

#include "vsim/base/logging.hh"

namespace vsim::bpred
{

namespace
{

void
saveCounters(StateWriter &w, const std::vector<SatCounter> &table)
{
    std::vector<std::uint8_t> raw(table.size());
    for (std::size_t i = 0; i < table.size(); ++i)
        raw[i] = static_cast<std::uint8_t>(table[i].raw());
    w.u64(raw.size());
    w.array(raw.data(), raw.size());
}

void
restoreCounters(StateReader &r, std::vector<SatCounter> &table)
{
    const std::uint64_t n = r.u64();
    VSIM_ASSERT(n == table.size(),
                "branch-predictor snapshot geometry mismatch");
    std::vector<std::uint8_t> raw(table.size());
    r.array(raw.data(), raw.size());
    for (std::size_t i = 0; i < table.size(); ++i)
        table[i].setRaw(raw[i]);
}

} // namespace

Gshare::Gshare(int history_bits, int table_bits)
    : historyBits(history_bits), tableBits(table_bits),
      table(1u << table_bits, SatCounter(2, 1))
{
    VSIM_ASSERT(history_bits <= table_bits,
                "gshare history wider than table index");
}

std::size_t
Gshare::index(std::uint64_t pc) const
{
    const std::uint64_t mask = (1ull << tableBits) - 1;
    const std::uint64_t hist_mask = (1ull << historyBits) - 1;
    return static_cast<std::size_t>(((pc >> 2) ^ (history & hist_mask))
                                    & mask);
}

bool
Gshare::predict(std::uint64_t pc)
{
    return table[index(pc)].taken();
}

void
Gshare::update(std::uint64_t pc, bool taken)
{
    SatCounter &ctr = table[index(pc)];
    if (taken)
        ctr.increment();
    else
        ctr.decrement();
    history = (history << 1) | (taken ? 1 : 0);
}

void
Gshare::save(StateWriter &w) const
{
    w.tag("BPGS");
    w.u64(history);
    saveCounters(w, table);
    accuracy.save(w);
}

void
Gshare::restore(StateReader &r)
{
    r.tag("BPGS");
    history = r.u64();
    restoreCounters(r, table);
    accuracy.restore(r);
}

Bimodal::Bimodal(int table_bits)
    : tableBits(table_bits), table(1u << table_bits, SatCounter(2, 1))
{}

bool
Bimodal::predict(std::uint64_t pc)
{
    const std::uint64_t mask = (1ull << tableBits) - 1;
    return table[static_cast<std::size_t>((pc >> 2) & mask)].taken();
}

void
Bimodal::update(std::uint64_t pc, bool taken)
{
    const std::uint64_t mask = (1ull << tableBits) - 1;
    SatCounter &ctr = table[static_cast<std::size_t>((pc >> 2) & mask)];
    if (taken)
        ctr.increment();
    else
        ctr.decrement();
}

void
Bimodal::save(StateWriter &w) const
{
    w.tag("BPBM");
    saveCounters(w, table);
    accuracy.save(w);
}

void
Bimodal::restore(StateReader &r)
{
    r.tag("BPBM");
    restoreCounters(r, table);
    accuracy.restore(r);
}

GAg::GAg(int history_bits)
    : historyBits(history_bits),
      table(1u << history_bits, SatCounter(2, 1))
{}

bool
GAg::predict(std::uint64_t pc)
{
    (void)pc;
    const std::uint64_t mask = (1ull << historyBits) - 1;
    return table[static_cast<std::size_t>(history & mask)].taken();
}

void
GAg::update(std::uint64_t pc, bool taken)
{
    (void)pc;
    const std::uint64_t mask = (1ull << historyBits) - 1;
    SatCounter &ctr = table[static_cast<std::size_t>(history & mask)];
    if (taken)
        ctr.increment();
    else
        ctr.decrement();
    history = (history << 1) | (taken ? 1 : 0);
}

void
GAg::save(StateWriter &w) const
{
    w.tag("BPGA");
    w.u64(history);
    saveCounters(w, table);
    accuracy.save(w);
}

void
GAg::restore(StateReader &r)
{
    r.tag("BPGA");
    history = r.u64();
    restoreCounters(r, table);
    accuracy.restore(r);
}

std::unique_ptr<BranchPredictor>
makeBranchPredictor(const std::string &kind)
{
    if (kind == "gshare")
        return std::make_unique<Gshare>();
    if (kind == "bimodal")
        return std::make_unique<Bimodal>();
    if (kind == "gag")
        return std::make_unique<GAg>();
    VSIM_FATAL("unknown branch predictor '", kind, "'");
}

} // namespace vsim::bpred
