/**
 * @file
 * Unit tests for the HMC memory model: address mapping, the sparse
 * backing store, bank timing, page policies, refresh, and the Fig. 5
 * geometry knobs.
 */

#include <gtest/gtest.h>

#include <memory>

#include "mem/addrmap.hh"
#include "mem/hmc.hh"
#include "mem/storage.hh"
#include "sim/rng.hh"
#include "system/simulation.hh"

namespace vip {
namespace {

class AddrMapRoundTrip : public ::testing::TestWithParam<AddrMap>
{
};

TEST_P(AddrMapRoundTrip, EncodeDecodeIdentity)
{
    DramGeometry geom;
    const AddressMapper mapper(geom, GetParam());
    Rng rng(5);
    for (unsigned n = 0; n < 2000; ++n) {
        const Addr addr = rng.nextBelow(geom.capacity());
        const DramCoord c = mapper.decode(addr);
        EXPECT_EQ(mapper.encode(c), addr);
        EXPECT_LT(c.vault, geom.vaults);
        EXPECT_LT(c.bank, geom.banksPerVault);
        EXPECT_LT(c.row, geom.rowsPerBank);
        EXPECT_LT(c.col, geom.colsPerRow());
        EXPECT_LT(c.offset, geom.colBytes);
    }
}

INSTANTIATE_TEST_SUITE_P(BothSchemes, AddrMapRoundTrip,
                         ::testing::Values(AddrMap::VaultRowBankCol,
                                           AddrMap::RowBankColVault));

TEST(AddrMap, VaultHighGivesContiguousVaultRegions)
{
    DramGeometry geom;
    const AddressMapper mapper(geom, AddrMap::VaultRowBankCol);
    for (unsigned v = 0; v < geom.vaults; ++v) {
        const Addr base = mapper.vaultBase(v);
        EXPECT_EQ(mapper.decode(base).vault, v);
        EXPECT_EQ(mapper.decode(base + geom.bytesPerVault() - 1).vault,
                  v);
    }
}

TEST(AddrMap, VaultLowInterleavesColumns)
{
    DramGeometry geom;
    const AddressMapper mapper(geom, AddrMap::RowBankColVault);
    // Consecutive 32 B columns land in consecutive vaults.
    EXPECT_EQ(mapper.decode(0).vault, 0u);
    EXPECT_EQ(mapper.decode(geom.colBytes).vault, 1u);
    EXPECT_EQ(mapper.decode(2 * geom.colBytes).vault, 2u);
}

TEST(Geometry, ScalingPreservesCapacity)
{
    DramGeometry geom;
    const auto cap = geom.capacity();
    DramGeometry more = geom;
    more.scaleBanks(true);
    EXPECT_EQ(more.capacity(), cap);
    EXPECT_EQ(more.banksPerVault, geom.banksPerVault * 4);
    DramGeometry fewer = geom;
    fewer.scaleBanks(false);
    EXPECT_EQ(fewer.capacity(), cap);
    DramGeometry wide = geom;
    wide.scaleRowWidth(true);
    EXPECT_EQ(wide.capacity(), cap);
    EXPECT_EQ(wide.rowBytes, geom.rowBytes * 4);
    DramGeometry narrow = geom;
    narrow.scaleRowWidth(false);
    EXPECT_EQ(narrow.capacity(), cap);
}

TEST(Storage, ZeroFilledAndSparse)
{
    DramStorage storage;
    EXPECT_EQ(storage.load<std::uint64_t>(123456789), 0u);
    EXPECT_EQ(storage.touchedPages(), 0u);
    storage.store<std::uint32_t>(1 << 30, 0xdeadbeef);
    EXPECT_EQ(storage.load<std::uint32_t>(1 << 30), 0xdeadbeefu);
    EXPECT_EQ(storage.touchedPages(), 1u);
}

TEST(Storage, ReadPastTheRadixSpanIsZero)
{
    // Nothing can be written past the 64 GiB span, so a host read
    // there sees an untouched zero page instead of indexing past the
    // radix root.
    DramStorage storage;
    EXPECT_EQ(storage.load<std::uint64_t>(Addr{1} << 63), 0u);
    EXPECT_EQ(storage.touchedPages(), 0u);
    const Simulation sim(makeSystemConfig(1, 1));
    EXPECT_EQ(sim.peekDram(0x8000000000000000), 0);
}

TEST(Storage, CrossPageTransfers)
{
    DramStorage storage;
    std::vector<std::uint8_t> data(10000);
    Rng rng(6);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.nextBelow(256));
    const Addr base = DramStorage::kPageBytes - 1234;
    storage.write(base, data.data(), data.size());
    std::vector<std::uint8_t> back(data.size());
    storage.read(base, back.data(), back.size());
    EXPECT_EQ(back, data);
}

/** Harness: drive one vault until a request completes. */
struct VaultHarness
{
    explicit VaultHarness(const MemConfig &cfg)
        : config(cfg), mapper(cfg.geom, cfg.addrMap),
          vault(0, cfg, mapper, nullptr)
    {}

    /** Issue a read and return its completion latency. */
    Cycles
    readLatency(Addr addr, unsigned bytes = 32)
    {
        Cycles done = 0;
        auto req = std::make_unique<MemRequest>();
        req->addr = addr;
        req->bytes = bytes;
        req->issuedAt = now;
        req->onComplete = [&](MemRequest &r) {
            done = r.completedAt - r.issuedAt;
        };
        EXPECT_TRUE(vault.enqueue(std::move(req)));
        while (done == 0 && now < 100000)
            vault.tick(now++);
        return done;
    }

    MemConfig config;
    AddressMapper mapper;
    VaultController vault;
    Cycles now = 0;
};

TEST(Vault, ColdReadLatencyIsActPlusCasPlusBurst)
{
    MemConfig cfg;
    cfg.geom.vaults = 1;
    VaultHarness h(cfg);
    const Cycles lat = h.readLatency(64);
    // tRCD + tCL + tBurst, plus scheduler cycles.
    const Cycles floor = cfg.timing.tRCD + cfg.timing.tCL +
                         cfg.timing.tBurst;
    EXPECT_GE(lat, floor);
    EXPECT_LE(lat, floor + 8);
}

TEST(Vault, OpenPageHitIsFasterThanMiss)
{
    MemConfig cfg;
    cfg.geom.vaults = 1;
    VaultHarness h(cfg);
    const Cycles miss = h.readLatency(0);
    const Cycles hit = h.readLatency(32);  // same row, next column
    EXPECT_LT(hit, miss);
    EXPECT_EQ(h.vault.stats().rowHits.value(), 2u)
        << "second access and one column of the first hit the open row";
}

TEST(Vault, ClosedPagePolicyReopensRows)
{
    MemConfig cfg;
    cfg.geom.vaults = 1;
    cfg.pagePolicy = PagePolicy::Closed;
    VaultHarness h(cfg);
    const Cycles first = h.readLatency(0);
    const Cycles second = h.readLatency(32);
    // With auto-precharge and an empty queue, the second access must
    // activate again: no faster than the first.
    EXPECT_GE(second + 2, first);
    EXPECT_GE(h.vault.stats().rowMisses.value(), 2u);
}

TEST(Vault, MultiColumnRequestCompletesOnce)
{
    MemConfig cfg;
    cfg.geom.vaults = 1;
    VaultHarness h(cfg);
    unsigned completions = 0;
    auto req = std::make_unique<MemRequest>();
    req->addr = 16;       // misaligned: spans 9 columns
    req->bytes = 270;
    req->onComplete = [&](MemRequest &) { ++completions; };
    ASSERT_TRUE(h.vault.enqueue(std::move(req)));
    while (!h.vault.idle())
        h.vault.tick(h.now++);
    EXPECT_EQ(completions, 1u);
    EXPECT_EQ(h.vault.stats().colCommands.value(), 9u);
    EXPECT_EQ(h.vault.stats().readBytes.value(), 270u);
}

TEST(Vault, RefreshFiresAtTrefi)
{
    MemConfig cfg;
    cfg.geom.vaults = 1;
    VaultHarness h(cfg);
    for (Cycles t = 0; t < 3 * cfg.timing.tREFI + 10; ++t)
        h.vault.tick(h.now++);
    EXPECT_EQ(h.vault.stats().refreshes.value(), 3u);
}

TEST(Vault, QueueBackpressure)
{
    MemConfig cfg;
    cfg.geom.vaults = 1;
    cfg.transQueueDepth = 4;
    VaultHarness h(cfg);
    unsigned accepted = 0;
    for (unsigned i = 0; i < 8; ++i) {
        auto req = std::make_unique<MemRequest>();
        req->addr = i * 4096;
        req->bytes = 32;
        if (h.vault.enqueue(std::move(req)))
            ++accepted;
    }
    EXPECT_EQ(accepted, 4u);
    EXPECT_FALSE(h.vault.canAccept());
    while (!h.vault.idle())
        h.vault.tick(h.now++);
    EXPECT_TRUE(h.vault.canAccept());
}

TEST(Hmc, RoutesToHomeVaultAndTracksBytes)
{
    MemConfig cfg;
    HmcStack hmc(cfg);
    const Addr in_vault3 = hmc.mapper().vaultBase(3) + 1000;
    EXPECT_EQ(hmc.homeVault(in_vault3), 3u);

    bool done = false;
    auto req = std::make_unique<MemRequest>();
    req->addr = in_vault3;
    req->bytes = 64;
    req->isWrite = true;
    req->onComplete = [&](MemRequest &) { done = true; };
    ASSERT_TRUE(hmc.enqueue(std::move(req)));
    Cycles now = 0;
    while (!done && now < 10000)
        hmc.tick(now++);
    EXPECT_TRUE(done);
    EXPECT_EQ(hmc.vault(3).stats().writeBytes.value(), 64u);
    EXPECT_EQ(hmc.totalBytesMoved(), 64u);
}

TEST(Hmc, MoreBanksImproveRandomAccessThroughput)
{
    // The Fig. 5 "more/fewer ranks" mechanism: random single-column
    // reads across banks complete sooner with more banks.
    auto run = [](int scale) {
        MemConfig cfg;
        cfg.geom.vaults = 1;
        if (scale > 0)
            cfg.geom.scaleBanks(true);
        else if (scale < 0)
            cfg.geom.scaleBanks(false);
        VaultHarness h(cfg);
        Rng rng(7);
        unsigned done = 0;
        const unsigned N = 64;
        for (unsigned i = 0; i < N; ++i) {
            auto req = std::make_unique<MemRequest>();
            req->addr = (rng.nextBelow(1 << 20)) & ~31ull;
            req->bytes = 32;
            req->onComplete = [&](MemRequest &) { ++done; };
            while (!h.vault.canAccept())
                h.vault.tick(h.now++);
            EXPECT_TRUE(h.vault.enqueue(std::move(req)));
        }
        while (done < N)
            h.vault.tick(h.now++);
        return h.now;
    };
    const Cycles fewer = run(-1);
    const Cycles base = run(0);
    const Cycles more = run(+1);
    EXPECT_LT(more, fewer);
    EXPECT_LE(base, fewer);
}

TEST(Timing, RefreshScalingFollowsJedecRatios)
{
    DramTiming t1;
    DramTiming t2 = t1;
    t2.scaleRefresh(2);
    DramTiming t4 = t1;
    t4.scaleRefresh(4);
    EXPECT_EQ(t2.tREFI, 2 * t1.tREFI);
    EXPECT_EQ(t4.tREFI, 4 * t1.tREFI);
    // tRFC grows sublinearly: longer blocks, but lower duty overhead.
    EXPECT_GT(t2.tRFC, t1.tRFC);
    EXPECT_GT(t4.tRFC, t2.tRFC);
    EXPECT_LT(t4.tRFC, 4 * t1.tRFC);
    const double duty1 = static_cast<double>(t1.tRFC) / t1.tREFI;
    const double duty4 = static_cast<double>(t4.tRFC) / t4.tREFI;
    EXPECT_LT(duty4, duty1);
}

} // namespace
} // namespace vip
