#include "vpred.hh"

#include <utility>

#include "vsim/base/logging.hh"

namespace vsim::vpred
{

// ---------------------------------------------------------------------
// FcmPredictor
// ---------------------------------------------------------------------

FcmPredictor::FcmPredictor(int l1_bits, int l2_bits)
    : l1Bits(l1_bits), l2Bits(l2_bits),
      history(1ull << l1_bits), committed(1ull << l1_bits),
      table(1ull << l2_bits)
{
    VSIM_ASSERT(l1_bits > 0 && l1_bits <= 24, "bad l1_bits");
    VSIM_ASSERT(l2_bits > 0 && l2_bits <= 24, "bad l2_bits");
}

std::size_t
FcmPredictor::l1Index(std::uint64_t pc) const
{
    return static_cast<std::size_t>((pc >> 2)
                                    & ((1ull << l1Bits) - 1));
}

std::uint16_t
FcmPredictor::valueHash(std::uint64_t value)
{
    // Fold the 64-bit value to 16 bits.
    value ^= value >> 32;
    value ^= value >> 16;
    return static_cast<std::uint16_t>(value);
}

std::size_t
FcmPredictor::context(const HistEntry &entry) const
{
    // Shift-and-xor combination of the 4 hashed values, oldest value
    // shifted the most (select-fold-shift-xor, Sazeides & Smith '97).
    // Each history position lands in a distinct quarter of the index
    // so small values (masks, flags, characters) do not alias the
    // whole history into a handful of low bits.
    std::uint64_t ctx = 0;
    ctx ^= static_cast<std::uint64_t>(entry.vhash[0]) << (3 * l2Bits / 4);
    ctx ^= static_cast<std::uint64_t>(entry.vhash[1]) << (2 * l2Bits / 4);
    ctx ^= static_cast<std::uint64_t>(entry.vhash[2]) << (l2Bits / 4);
    ctx ^= static_cast<std::uint64_t>(entry.vhash[3]);
    return static_cast<std::size_t>(ctx & ((1ull << l2Bits) - 1));
}

Prediction
FcmPredictor::predict(std::uint64_t pc)
{
    const std::size_t ctx = context(history[l1Index(pc)]);
    return {table[ctx].value, static_cast<std::uint64_t>(ctx)};
}

void
FcmPredictor::pushHistory(std::uint64_t pc, std::uint64_t value)
{
    history[l1Index(pc)].push(valueHash(value));
}

void
FcmPredictor::commitHistory(std::uint64_t pc, std::uint64_t actual,
                            bool correct)
{
    const std::size_t idx = l1Index(pc);
    committed[idx].push(valueHash(actual));
    // Misprediction: the speculative history diverged from the real
    // value stream; squash it back to the architectural history.
    if (!correct)
        history[idx] = committed[idx];
}

void
FcmPredictor::updateTable(std::uint64_t pc, std::uint64_t token,
                          std::uint64_t actual)
{
    (void)pc;
    PredEntry &entry = table[static_cast<std::size_t>(token)];
    if (entry.value == actual) {
        entry.counter = 1;
    } else if (entry.counter > 0) {
        // 1-bit hysteresis: survive one conflicting update.
        entry.counter = 0;
    } else {
        entry.value = actual;
        entry.counter = 1;
    }
}

void
FcmPredictor::save(StateWriter &w) const
{
    // Whole arrays in one copy each: the warmup pass saves these
    // tables once per snapshot. A PredEntry has padding, so its values
    // and its counters go as two arrays.
    w.tag("VPFC");
    w.u64(history.size());
    w.array(history.data(), history.size());
    w.array(committed.data(), committed.size());
    w.u64(table.size());
    std::vector<std::uint64_t> values(table.size());
    std::vector<std::uint8_t> counters(table.size());
    for (std::size_t i = 0; i < table.size(); ++i) {
        values[i] = table[i].value;
        counters[i] = table[i].counter;
    }
    w.array(values.data(), values.size());
    w.array(counters.data(), counters.size());
}

void
FcmPredictor::restore(StateReader &r)
{
    r.tag("VPFC");
    VSIM_ASSERT(r.u64() == history.size(),
                "fcm snapshot geometry mismatch (l1)");
    r.array(history.data(), history.size());
    r.array(committed.data(), committed.size());
    VSIM_ASSERT(r.u64() == table.size(),
                "fcm snapshot geometry mismatch (l2)");
    std::vector<std::uint64_t> values(table.size());
    std::vector<std::uint8_t> counters(table.size());
    r.array(values.data(), values.size());
    r.array(counters.data(), counters.size());
    for (std::size_t i = 0; i < table.size(); ++i)
        table[i] = {values[i], counters[i]};
}

// ---------------------------------------------------------------------
// LastValuePredictor
// ---------------------------------------------------------------------

LastValuePredictor::LastValuePredictor(int table_bits)
    : tableBits(table_bits), table(1ull << table_bits, 0)
{}

Prediction
LastValuePredictor::predict(std::uint64_t pc)
{
    const std::size_t idx = static_cast<std::size_t>(
        (pc >> 2) & ((1ull << tableBits) - 1));
    return {table[idx], 0};
}

void
LastValuePredictor::updateTable(std::uint64_t pc, std::uint64_t token,
                                std::uint64_t actual)
{
    (void)token;
    const std::size_t idx = static_cast<std::size_t>(
        (pc >> 2) & ((1ull << tableBits) - 1));
    table[idx] = actual;
}

void
LastValuePredictor::save(StateWriter &w) const
{
    w.tag("VPLV");
    w.u64(table.size());
    w.array(table.data(), table.size());
}

void
LastValuePredictor::restore(StateReader &r)
{
    r.tag("VPLV");
    VSIM_ASSERT(r.u64() == table.size(),
                "last-value snapshot geometry mismatch");
    r.array(table.data(), table.size());
}

// ---------------------------------------------------------------------
// StridePredictor
// ---------------------------------------------------------------------

StridePredictor::StridePredictor(int table_bits)
    : tableBits(table_bits), table(1ull << table_bits)
{}

Prediction
StridePredictor::predict(std::uint64_t pc)
{
    const std::size_t idx = static_cast<std::size_t>(
        (pc >> 2) & ((1ull << tableBits) - 1));
    const Entry &entry = table[idx];
    return {entry.last + static_cast<std::uint64_t>(entry.stride), 0};
}

void
StridePredictor::updateTable(std::uint64_t pc, std::uint64_t token,
                             std::uint64_t actual)
{
    (void)token;
    const std::size_t idx = static_cast<std::size_t>(
        (pc >> 2) & ((1ull << tableBits) - 1));
    Entry &entry = table[idx];
    // Unsigned subtraction wraps modulo 2^64; the cast keeps the bits,
    // so values more than 2^63 apart cannot overflow.
    const auto delta = static_cast<std::int64_t>(actual - entry.last);
    // 2-delta rule: commit a new stride only when seen twice in a row.
    if (delta == entry.lastDelta)
        entry.stride = delta;
    entry.lastDelta = delta;
    entry.last = actual;
}

void
StridePredictor::save(StateWriter &w) const
{
    w.tag("VPST");
    w.u64(table.size());
    w.array(table.data(), table.size());
}

void
StridePredictor::restore(StateReader &r)
{
    r.tag("VPST");
    VSIM_ASSERT(r.u64() == table.size(),
                "stride snapshot geometry mismatch");
    r.array(table.data(), table.size());
}

// ---------------------------------------------------------------------
// HybridPredictor
// ---------------------------------------------------------------------

HybridPredictor::HybridPredictor(int table_bits)
    : fcm(table_bits, table_bits), stride(table_bits),
      tableBits(table_bits), chooser(1ull << table_bits, 2)
{}

Prediction
HybridPredictor::predict(std::uint64_t pc)
{
    const std::size_t idx = static_cast<std::size_t>(
        (pc >> 2) & ((1ull << tableBits) - 1));
    const Prediction f = fcm.predict(pc);
    const Prediction s = stride.predict(pc);

    const std::uint64_t slot = ringNext++ % kRingSize;
    ring[slot] = {f.token, f.value, s.value};

    const bool use_fcm = chooser[idx] >= 2;
    return {use_fcm ? f.value : s.value, slot};
}

void
HybridPredictor::pushHistory(std::uint64_t pc, std::uint64_t value)
{
    fcm.pushHistory(pc, value);
}

void
HybridPredictor::updateTable(std::uint64_t pc, std::uint64_t token,
                             std::uint64_t actual)
{
    const std::size_t idx = static_cast<std::size_t>(
        (pc >> 2) & ((1ull << tableBits) - 1));
    const Outstanding &o = ring[token % kRingSize];

    // Score both components with what they actually predicted.
    const bool fcm_right = o.fcmValue == actual;
    const bool stride_right = o.strideValue == actual;
    if (fcm_right && !stride_right && chooser[idx] < 3)
        ++chooser[idx];
    else if (!fcm_right && stride_right && chooser[idx] > 0)
        --chooser[idx];

    fcm.updateTable(pc, o.fcmToken, actual);
    stride.updateTable(pc, 0, actual);
}

void
HybridPredictor::save(StateWriter &w) const
{
    w.tag("VPHY");
    fcm.save(w);
    stride.save(w);
    w.u64(chooser.size());
    w.array(chooser.data(), chooser.size());
    w.array(ring.data(), ring.size());
    w.u64(ringNext);
}

void
HybridPredictor::restore(StateReader &r)
{
    r.tag("VPHY");
    fcm.restore(r);
    stride.restore(r);
    VSIM_ASSERT(r.u64() == chooser.size(),
                "hybrid snapshot geometry mismatch");
    r.array(chooser.data(), chooser.size());
    r.array(ring.data(), ring.size());
    ringNext = r.u64();
}

namespace
{

template <typename P>
std::unique_ptr<ValuePredictor>
build()
{
    return std::make_unique<P>();
}

/** Every predictor makeValuePredictor builds, by name. */
constexpr std::pair<const char *, std::unique_ptr<ValuePredictor> (*)()>
    kPredictors[] = {{"fcm", build<FcmPredictor>},
                     {"last-value", build<LastValuePredictor>},
                     {"stride", build<StridePredictor>},
                     {"hybrid", build<HybridPredictor>}};

} // namespace

const std::vector<std::string> &
valuePredictorNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const auto &p : kPredictors)
            v.push_back(p.first);
        return v;
    }();
    return names;
}

std::unique_ptr<ValuePredictor>
makeValuePredictor(const std::string &kind)
{
    for (const auto &[name, make] : kPredictors) {
        if (kind == name)
            return make();
    }
    VSIM_FATAL("unknown value predictor '", kind, "'");
}

// ---------------------------------------------------------------------
// Confidence
// ---------------------------------------------------------------------

ResettingConfidence::ResettingConfidence(int counter_bits, int table_bits,
                                         int threshold_in)
    : maxCount((1 << counter_bits) - 1),
      threshold(threshold_in < 0 ? maxCount : threshold_in),
      tableBits(table_bits), table(1ull << table_bits, 0)
{
    VSIM_ASSERT(counter_bits >= 1 && counter_bits <= 8,
                "bad confidence counter width");
    VSIM_ASSERT(table_bits >= 1 && table_bits <= 24,
                "bad confidence table size (log2 entries)");
}

bool
ResettingConfidence::confident(std::uint64_t pc) const
{
    const std::size_t idx = static_cast<std::size_t>(
        (pc >> 2) & ((1ull << tableBits) - 1));
    return table[idx] >= threshold;
}

void
ResettingConfidence::update(std::uint64_t pc, bool correct)
{
    const std::size_t idx = static_cast<std::size_t>(
        (pc >> 2) & ((1ull << tableBits) - 1));
    if (correct) {
        if (table[idx] < maxCount)
            ++table[idx];
    } else {
        table[idx] = 0;
    }
}

void
ResettingConfidence::save(StateWriter &w) const
{
    w.tag("CONF");
    w.u64(table.size());
    w.array(table.data(), table.size());
}

void
ResettingConfidence::restore(StateReader &r)
{
    r.tag("CONF");
    VSIM_ASSERT(r.u64() == table.size(),
                "confidence snapshot geometry mismatch");
    r.array(table.data(), table.size());
}

} // namespace vsim::vpred
