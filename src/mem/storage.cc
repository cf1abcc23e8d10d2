#include "mem/storage.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace vip {

DramStorage::~DramStorage()
{
    for (auto &slot : root_) {
        Leaf *leaf = slot.load(std::memory_order_relaxed);
        if (!leaf)
            continue;
        for (auto &page : leaf->pages)
            delete[] page.load(std::memory_order_relaxed);
        delete leaf;
    }
}

const std::uint8_t *
DramStorage::pageFor(Addr addr) const
{
    const Addr page_no = addr / kPageBytes;
    // Past the radix span nothing was ever written (pageForWrite
    // asserts there): it reads as an untouched zero page.
    if (page_no >> (kRootBits + kLeafBits) != 0)
        return nullptr;
    const Leaf *leaf =
        root_[page_no >> kLeafBits].load(std::memory_order_acquire);
    if (!leaf)
        return nullptr;
    return leaf->pages[page_no & (kLeafSlots - 1)].load(
        std::memory_order_acquire);
}

std::uint8_t *
DramStorage::pageForWrite(Addr addr)
{
    const Addr page_no = addr / kPageBytes;
    vip_assert(page_no >> (kRootBits + kLeafBits) == 0,
               "DRAM address past the 64 GiB radix span");

    auto &root_slot = root_[page_no >> kLeafBits];
    Leaf *leaf = root_slot.load(std::memory_order_acquire);
    if (!leaf) {
        // First-touch CAS race: the loser frees its candidate and
        // adopts the winner's, so exactly one leaf is ever published.
        Leaf *fresh = new Leaf();
        if (root_slot.compare_exchange_strong(leaf, fresh,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire))
            leaf = fresh;
        else
            delete fresh;
    }

    auto &page_slot = leaf->pages[page_no & (kLeafSlots - 1)];
    std::uint8_t *page = page_slot.load(std::memory_order_acquire);
    if (!page) {
        std::uint8_t *fresh = new std::uint8_t[kPageBytes]();
        if (page_slot.compare_exchange_strong(page, fresh,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
            page = fresh;
            touched_.fetch_add(1, std::memory_order_acq_rel);
        } else {
            delete[] fresh;
        }
    }
    return page;
}

void
DramStorage::read(Addr addr, void *dst, std::size_t bytes) const
{
    auto *out = static_cast<std::uint8_t *>(dst);
    while (bytes > 0) {
        const std::size_t off = addr % kPageBytes;
        const std::size_t chunk = std::min(bytes, kPageBytes - off);
        const std::uint8_t *page = pageFor(addr);
        if (page)
            std::memcpy(out, page + off, chunk);
        else
            std::memset(out, 0, chunk);
        out += chunk;
        addr += chunk;
        bytes -= chunk;
    }
}

void
DramStorage::write(Addr addr, const void *src, std::size_t bytes)
{
    const auto *in = static_cast<const std::uint8_t *>(src);
    while (bytes > 0) {
        const std::size_t off = addr % kPageBytes;
        const std::size_t chunk = std::min(bytes, kPageBytes - off);
        std::memcpy(pageForWrite(addr) + off, in, chunk);
        in += chunk;
        addr += chunk;
        bytes -= chunk;
    }
}

std::vector<Addr>
DramStorage::touchedPageNumbers() const
{
    std::vector<Addr> numbers;
    numbers.reserve(touchedPages());
    for (std::size_t r = 0; r < kRootSlots; ++r) {
        const Leaf *leaf = root_[r].load(std::memory_order_acquire);
        if (!leaf)
            continue;
        for (std::size_t l = 0; l < kLeafSlots; ++l)
            if (leaf->pages[l].load(std::memory_order_acquire))
                numbers.push_back((Addr{r} << kLeafBits) | l);
    }
    return numbers;
}

std::uint64_t
DramStorage::fingerprint() const
{
    // FNV-1a per page (seeded with the page number so content at the
    // wrong address cannot cancel out), XOR-combined across pages and
    // walked in ascending radix order — the digest is order-independent
    // twice over.
    std::uint64_t digest = 0;
    for (std::size_t r = 0; r < kRootSlots; ++r) {
        const Leaf *leaf = root_[r].load(std::memory_order_acquire);
        if (!leaf)
            continue;
        for (std::size_t l = 0; l < kLeafSlots; ++l) {
            const std::uint8_t *bytes =
                leaf->pages[l].load(std::memory_order_acquire);
            if (!bytes)
                continue;
            const bool all_zero = std::all_of(bytes, bytes + kPageBytes,
                                              [](std::uint8_t b) {
                                                  return b == 0;
                                              });
            if (all_zero)
                continue;
            const Addr page_no = (Addr{r} << kLeafBits) | l;
            std::uint64_t h = 0xcbf29ce484222325ULL ^ page_no;
            for (std::size_t i = 0; i < kPageBytes; ++i) {
                h ^= bytes[i];
                h *= 0x100000001b3ULL;
            }
            digest ^= h;
        }
    }
    return digest;
}

} // namespace vip
