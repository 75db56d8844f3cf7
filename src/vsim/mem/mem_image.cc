#include "mem_image.hh"

#include <algorithm>
#include <vector>

#include "vsim/base/logging.hh"

namespace vsim::mem
{

MemImage::MemImage(const MemImage &other)
{
    *this = other;
}

MemImage &
MemImage::operator=(const MemImage &other)
{
    if (this == &other)
        return *this;
    pages.clear();
    for (const auto &[key, page] : other.pages)
        pages.emplace(key, std::make_unique<Page>(*page));
    return *this;
}

const MemImage::Page *
MemImage::findPage(std::uint64_t addr) const
{
    auto it = pages.find(addr >> kPageBits);
    return it == pages.end() ? nullptr : it->second.get();
}

MemImage::Page &
MemImage::touchPage(std::uint64_t addr)
{
    auto &slot = pages[addr >> kPageBits];
    if (!slot) {
        slot = std::make_unique<Page>();
        slot->fill(0);
    }
    return *slot;
}

std::uint8_t
MemImage::readByte(std::uint64_t addr) const
{
    const Page *page = findPage(addr);
    return page ? (*page)[addr & (kPageSize - 1)] : 0;
}

void
MemImage::writeByte(std::uint64_t addr, std::uint8_t value)
{
    touchPage(addr)[addr & (kPageSize - 1)] = value;
}

std::uint64_t
MemImage::read(std::uint64_t addr, int size) const
{
    VSIM_ASSERT(size == 1 || size == 2 || size == 4 || size == 8,
                "bad access size ", size);
    std::uint64_t value = 0;
    const std::uint64_t off = addr & (kPageSize - 1);
    if (off + static_cast<std::uint64_t>(size) <= kPageSize) {
        const Page *page = findPage(addr);
        if (!page)
            return 0;
        for (int i = 0; i < size; ++i) {
            value |= static_cast<std::uint64_t>((*page)[off + i])
                     << (8 * i);
        }
        return value;
    }
    // Straddles a page (or wraps past 2^64 onto address 0).
    for (int i = 0; i < size; ++i)
        value |= static_cast<std::uint64_t>(readByte(addr + i)) << (8 * i);
    return value;
}

void
MemImage::write(std::uint64_t addr, std::uint64_t value, int size)
{
    VSIM_ASSERT(size == 1 || size == 2 || size == 4 || size == 8,
                "bad access size ", size);
    const std::uint64_t off = addr & (kPageSize - 1);
    if (off + static_cast<std::uint64_t>(size) <= kPageSize) {
        Page &page = touchPage(addr);
        for (int i = 0; i < size; ++i)
            page[off + i] = static_cast<std::uint8_t>(value >> (8 * i));
        return;
    }
    // Straddles a page (or wraps past 2^64 onto address 0).
    for (int i = 0; i < size; ++i)
        writeByte(addr + i, static_cast<std::uint8_t>(value >> (8 * i)));
}

void
MemImage::writeBlock(std::uint64_t addr, const std::uint8_t *data,
                     std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i)
        writeByte(addr + i, data[i]);
}

void
MemImage::save(StateWriter &w) const
{
    w.tag("MEMI");
    std::vector<std::uint64_t> keys;
    keys.reserve(pages.size());
    for (const auto &[key, page] : pages)
        keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    w.u64(keys.size());
    for (std::uint64_t key : keys) {
        w.u64(key);
        w.bytes(pages.at(key)->data(), kPageSize);
    }
}

void
MemImage::restore(StateReader &r)
{
    r.tag("MEMI");
    pages.clear();
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t key = r.u64();
        auto page = std::make_unique<Page>();
        r.bytes(page->data(), kPageSize);
        pages.emplace(key, std::move(page));
    }
}

} // namespace vsim::mem
