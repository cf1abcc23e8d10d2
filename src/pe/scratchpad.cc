#include "pe/scratchpad.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace vip {

namespace {

/** First byte of the granule after the one holding byte @p a. */
constexpr unsigned
nextGranule(unsigned a)
{
    return (a / Scratchpad::kGranule + 1) * Scratchpad::kGranule;
}

} // namespace

void
Scratchpad::read(SpAddr addr, void *dst, unsigned bytes) const
{
    vip_assert(contains(addr, bytes), "scratchpad read [", addr, ", ",
               std::uint64_t{addr} + bytes, ") out of bounds");
    std::memcpy(dst, data_.data() + addr, bytes);
}

void
Scratchpad::write(SpAddr addr, const void *src, unsigned bytes)
{
    vip_assert(contains(addr, bytes), "scratchpad write [", addr, ", ",
               std::uint64_t{addr} + bytes, ") out of bounds");
    std::memcpy(data_.data() + addr, src, bytes);
}

void
Scratchpad::markReadyAt(SpAddr addr, unsigned bytes, Cycles at)
{
    vip_assert(contains(addr, bytes), "scratchpad mark out of bounds");
    const unsigned end = addr + bytes;
    for (unsigned i = addr; i < end; ++i)
        readyAt_[i] = std::max(readyAt_[i], at);
    for (unsigned lo = addr; lo < end; lo = nextGranule(lo)) {
        Cycles &g = granuleReadyAt_[lo / kGranule];
        g = std::max(g, at);
    }
}

void
Scratchpad::markReadyStream(SpAddr addr, unsigned bytes, Cycles base)
{
    vip_assert(contains(addr, bytes), "scratchpad mark out of bounds");
    const unsigned end = addr + bytes;
    for (unsigned i = 0; i < bytes; ++i)
        readyAt_[addr + i] = std::max(readyAt_[addr + i], base + i / 8);
    // Within a granule, the last byte in the range is ready last.
    for (unsigned lo = addr; lo < end; lo = nextGranule(lo)) {
        const unsigned last = std::min(end, nextGranule(lo)) - 1;
        Cycles &g = granuleReadyAt_[lo / kGranule];
        g = std::max(g, base + (last - addr) / 8);
    }
}

bool
Scratchpad::hazardousStreamRead(SpAddr addr, unsigned bytes,
                                Cycles base) const
{
    vip_assert(contains(addr, bytes), "scratchpad query out of bounds");
    const unsigned end = addr + bytes;
    for (unsigned lo = addr; lo < end; lo = nextGranule(lo)) {
        // Deadlines grow with the address, so a granule whose latest
        // ready clock meets its first in-range byte's deadline is clear.
        if (granuleReadyAt_[lo / kGranule] <= base + (lo - addr) / 8)
            continue;
        const unsigned hi = std::min(end, nextGranule(lo));
        for (unsigned i = lo; i < hi; ++i) {
            if (readyAt_[i] > base + (i - addr) / 8)
                return true;
        }
    }
    return false;
}

Cycles
Scratchpad::readyAt(SpAddr addr, unsigned bytes) const
{
    vip_assert(contains(addr, bytes), "scratchpad query out of bounds");
    const unsigned end = addr + bytes;
    Cycles latest = 0;
    for (unsigned lo = addr; lo < end; lo = nextGranule(lo)) {
        if (granuleReadyAt_[lo / kGranule] <= latest)
            continue;  // nothing in this granule can raise the max
        const unsigned hi = std::min(end, nextGranule(lo));
        for (unsigned i = lo; i < hi; ++i)
            latest = std::max(latest, readyAt_[i]);
    }
    return latest;
}

} // namespace vip
