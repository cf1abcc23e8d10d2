/**
 * @file
 * Focused tests of the vault scheduler's timing behavior: write
 * recovery, bank-level pipelining, FR-FCFS reordering, per-bank tCCD
 * pacing, closed-page row-burst retention, latency histograms, and
 * seeded random traffic pinned to golden completion times.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <vector>

#include "mem/vault.hh"
#include "sim/rng.hh"

namespace vip {
namespace {

struct Harness
{
    explicit Harness(const MemConfig &c)
        : cfg(c), mapper(c.geom, c.addrMap), vault(0, c, mapper, nullptr)
    {}

    /** Enqueue a request; records completion time into @p out. */
    void
    issue(Addr addr, unsigned bytes, bool write, Cycles *out)
    {
        auto req = std::make_unique<MemRequest>();
        req->addr = addr;
        req->bytes = bytes;
        req->isWrite = write;
        req->issuedAt = now;
        req->onComplete = [out](MemRequest &r) { *out = r.completedAt; };
        ASSERT_TRUE(vault.enqueue(std::move(req)));
    }

    void
    drain()
    {
        while (!vault.idle() && now < 1'000'000)
            vault.tick(now++);
        ASSERT_TRUE(vault.idle());
    }

    MemConfig cfg;
    AddressMapper mapper;
    VaultController vault;
    Cycles now = 0;
};

MemConfig
oneVault()
{
    MemConfig cfg;
    cfg.geom.vaults = 1;
    return cfg;
}

TEST(VaultSched, WriteRecoveryDelaysRowClose)
{
    // Write to row A, then read row B of the SAME bank: the precharge
    // must wait out tWR after the write's data, so the read completes
    // later than in the read-read case.
    const MemConfig cfg = oneVault();
    const Addr row_a = 0;
    // Next row of the same bank: rows advance above the bank bits.
    const Addr row_b =
        static_cast<Addr>(cfg.geom.rowBytes) * cfg.geom.banksPerVault;
    ASSERT_EQ(AddressMapper(cfg.geom, cfg.addrMap).decode(row_b).bank,
              0u);
    ASSERT_EQ(AddressMapper(cfg.geom, cfg.addrMap).decode(row_b).row, 1u);

    Cycles after_write = 0, after_read = 0;
    {
        Harness h(cfg);
        Cycles w = 0;
        h.issue(row_a, 32, true, &w);
        h.issue(row_b, 32, false, &after_write);
        h.drain();
    }
    {
        Harness h(cfg);
        Cycles r = 0;
        h.issue(row_a, 32, false, &r);
        h.issue(row_b, 32, false, &after_read);
        h.drain();
    }
    EXPECT_GT(after_write, after_read + cfg.timing.tWR / 2);
}

TEST(VaultSched, BankParallelismPipelinesActivates)
{
    // Eight accesses: all to one bank's distinct rows vs spread over
    // eight banks. The spread case must finish much sooner.
    auto run = [&](bool spread) {
        const MemConfig cfg = oneVault();
        Harness h(cfg);
        const Addr bank_stride = cfg.geom.rowBytes;   // next bank
        const Addr row_stride =
            static_cast<Addr>(cfg.geom.rowBytes) * cfg.geom.banksPerVault;
        Cycles done[8] = {};
        for (unsigned i = 0; i < 8; ++i) {
            const Addr addr = spread ? i * bank_stride
                                     : i * row_stride;
            h.issue(addr, 32, false, &done[i]);
        }
        h.drain();
        Cycles last = 0;
        for (Cycles d : done)
            last = std::max(last, d);
        return last;
    };
    const Cycles same_bank = run(false);
    const Cycles spread = run(true);
    EXPECT_LT(spread * 2, same_bank);
}

TEST(VaultSched, FrFcfsServesRowHitsFirst)
{
    // Queue: [row A col 0, row B, row A col 1]. Under FR-FCFS the
    // second row-A access is serviced before row B's activate path
    // finishes, i.e. it completes before the row-B access.
    const MemConfig cfg = oneVault();
    const Addr row_b =
        static_cast<Addr>(cfg.geom.rowBytes) * cfg.geom.banksPerVault;
    Harness h(cfg);
    Cycles a0 = 0, b0 = 0, a1 = 0;
    h.issue(0, 32, false, &a0);
    h.issue(row_b, 32, false, &b0);
    h.issue(32, 32, false, &a1);
    h.drain();
    EXPECT_LT(a0, b0);
    EXPECT_LT(a1, b0) << "row hit should bypass the pending miss";
}

TEST(VaultSched, PerBankCcdAllowsCrossBankStreaming)
{
    // Alternating columns across two banks can issue every tBurst;
    // consecutive columns in one bank are paced by tCCD.
    auto run = [&](bool two_banks) {
        const MemConfig cfg = oneVault();
        Harness h(cfg);
        Cycles done[8] = {};
        for (unsigned i = 0; i < 8; ++i) {
            const Addr addr =
                two_banks
                    ? (i % 2) * cfg.geom.rowBytes + (i / 2) * 32
                    : i * 32;
            h.issue(addr, 32, false, &done[i]);
        }
        h.drain();
        Cycles last = 0;
        for (Cycles d : done)
            last = std::max(last, d);
        return last;
    };
    // With tCCD (7) > tBurst (4), two banks should be faster.
    EXPECT_LT(run(true), run(false));
}

TEST(VaultSched, ClosedPageKeepsRowForQueuedHits)
{
    // Closed-page auto-precharge is suppressed while more queued
    // accesses target the same row: a 128 B request (4 columns) should
    // activate its row exactly once.
    MemConfig cfg = oneVault();
    cfg.pagePolicy = PagePolicy::Closed;
    Harness h(cfg);
    Cycles done = 0;
    h.issue(0, 128, false, &done);
    h.drain();
    EXPECT_EQ(h.vault.stats().rowMisses.value(), 1u);
    EXPECT_EQ(h.vault.stats().colCommands.value(), 4u);
}

TEST(VaultSched, LatencyHistogramTracksCompletions)
{
    const MemConfig cfg = oneVault();
    Harness h(cfg);
    Cycles done[4] = {};
    for (unsigned i = 0; i < 4; ++i)
        h.issue(i * 32, 32, false, &done[i]);
    h.drain();
    const Histogram &hist = h.vault.latencyHistogram();
    EXPECT_EQ(hist.count(), 4u);
    EXPECT_GT(hist.mean(), static_cast<double>(cfg.timing.tCL));
    EXPECT_GE(hist.max(), static_cast<Cycles>(hist.mean()));
}

TEST(VaultSched, ReadsAndWritesShareTheDataBus)
{
    // Mixed traffic still totals correctly.
    const MemConfig cfg = oneVault();
    Harness h(cfg);
    Cycles sink[6] = {};
    for (unsigned i = 0; i < 6; ++i)
        h.issue(i * 64, 64, i % 2 == 0, &sink[i]);
    h.drain();
    EXPECT_EQ(h.vault.stats().writeBytes.value(), 3u * 64);
    EXPECT_EQ(h.vault.stats().readBytes.value(), 3u * 64);
    EXPECT_EQ(h.vault.stats().reqCount.value(), 6u);
}

/** What SeededTrafficGolden pins for one configuration. */
struct TrafficDigest
{
    std::uint64_t completionHash;
    std::uint64_t rowHits;
    std::uint64_t rowMisses;
    std::uint64_t rowConflicts;
    std::uint64_t refreshes;
    std::uint64_t colCommands;

    bool
    operator==(const TrafficDigest &o) const
    {
        return completionHash == o.completionHash && rowHits == o.rowHits &&
               rowMisses == o.rowMisses &&
               rowConflicts == o.rowConflicts &&
               refreshes == o.refreshes && colCommands == o.colCommands;
    }
};

std::ostream &
operator<<(std::ostream &os, const TrafficDigest &d)
{
    return os << "{0x" << std::hex << d.completionHash << std::dec
              << "ull, " << d.rowHits << ", " << d.rowMisses << ", "
              << d.rowConflicts << ", " << d.refreshes << ", "
              << d.colCommands << "}";
}

/**
 * Seeded random reads and writes over three rows of every bank, in
 * phases of silence, light traffic and a saturated queue, for four
 * refresh intervals; then drain. Returns an FNV-1a hash of every
 * (request index, completion cycle) pair plus the scheduler counters.
 */
TrafficDigest
seededTraffic(const MemConfig &cfg, bool wake_gate)
{
    Harness h(cfg);
    h.vault.setWakeGate(wake_gate);
    Rng rng(0x5eedull + cfg.geom.banksPerVault +
            (cfg.pagePolicy == PagePolicy::Closed ? 1 : 0));
    const Cycles horizon = 4 * cfg.timing.tREFI;
    std::vector<Cycles> done(horizon, 0);
    std::size_t issued = 0;
    for (; h.now < horizon; h.vault.tick(h.now++)) {
        // 400-cycle phases: idle, one request per 8 cycles, saturated.
        const unsigned phase = (h.now / 400) % 3;
        const std::uint64_t draw = rng.next();
        if (phase == 0 || (phase == 1 && draw % 8 != 0))
            continue;
        DramCoord c{};
        c.bank = static_cast<unsigned>(rng.nextBelow(cfg.geom.banksPerVault));
        // Mostly row 0, so hits queue up behind misses and conflicts.
        c.row = rng.nextBelow(4) == 0 ? 1 + rng.nextBelow(2) : 0;
        c.col = static_cast<unsigned>(rng.nextBelow(cfg.geom.colsPerRow()));
        c.offset = static_cast<unsigned>(rng.nextBelow(cfg.geom.colBytes));
        const auto bytes = static_cast<unsigned>(1 + rng.nextBelow(96));
        const bool write = rng.nextBelow(3) == 0;
        if (!h.vault.canAccept())
            continue;
        h.issue(h.mapper.encode(c), bytes, write, &done[issued++]);
    }
    h.drain();

    std::uint64_t hash = 0xcbf29ce484222325ull;
    auto mix = [&](std::uint64_t v) {
        for (unsigned i = 0; i < 8; ++i) {
            hash ^= (v >> (8 * i)) & 0xff;
            hash *= 0x100000001b3ull;
        }
    };
    for (std::size_t i = 0; i < issued; ++i) {
        mix(i);
        mix(done[i]);
    }
    const auto &s = h.vault.stats();
    EXPECT_GE(s.refreshes.value(), 3u);
    return {hash, s.rowHits.value(), s.rowMisses.value(),
            s.rowConflicts.value(), s.refreshes.value(),
            s.colCommands.value()};
}

TEST(VaultSched, SeededTrafficGolden)
{
    // Pinned from the scheduler before its per-bank candidate table
    // existed: any divergence in command order or timing moves the
    // completion hash. The wake gate must not change a thing.
    struct Case
    {
        PagePolicy policy;
        bool moreBanks;
        TrafficDigest golden;
    };
    const Case cases[] = {
        {PagePolicy::Open, false,
         {0x2163f3b208896981ull, 2111, 823, 761, 4, 2111}},
        {PagePolicy::Open, true,
         {0xb77fe3b350e18916ull, 2101, 744, 483, 4, 2101}},
        {PagePolicy::Closed, false,
         {0xa11f060cb044814aull, 2064, 978, 422, 4, 2064}},
        {PagePolicy::Closed, true,
         {0xf9365727f38cc326ull, 2126, 1191, 303, 4, 2126}},
    };
    for (const Case &c : cases) {
        MemConfig cfg = oneVault();
        cfg.pagePolicy = c.policy;
        if (c.moreBanks)
            cfg.geom.scaleBanks(true);
        const TrafficDigest off = seededTraffic(cfg, false);
        const TrafficDigest on = seededTraffic(cfg, true);
        SCOPED_TRACE(testing::Message()
                     << (c.policy == PagePolicy::Open ? "open" : "closed")
                     << " page, " << cfg.geom.banksPerVault << " banks");
        EXPECT_EQ(off, c.golden);
        EXPECT_EQ(on, off) << "the wake gate changed the schedule";
    }
}

} // namespace
} // namespace vip
