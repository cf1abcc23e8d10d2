/**
 * @file
 * Unit tests for the 2D torus NoC: routing distances, the
 * 3-cycles-per-hop latency model, per-link serialization, contention,
 * wraparound, and the intra-vault star lanes.
 */

#include <gtest/gtest.h>

#include "noc/torus.hh"

namespace vip {
namespace {

Cycles
deliverOne(TorusNoc &noc, unsigned src, unsigned dst, unsigned bytes,
           unsigned src_lane = 4, unsigned dst_lane = 4)
{
    Cycles delivered = 0;
    Packet p;
    p.src = src;
    p.dst = dst;
    p.payloadBytes = bytes;
    p.srcLane = src_lane;
    p.dstLane = dst_lane;
    p.onArrive = [&](Packet &pkt) { delivered = pkt.deliveredAt; };
    noc.send(std::move(p), 0);
    Cycles now = 0;
    while (delivered == 0 && now < 10000)
        noc.tick(now++);
    return delivered;
}

TEST(Torus, HopCountsWithWraparound)
{
    TorusNoc noc(8, 4);
    EXPECT_EQ(noc.hopCount(0, 0), 0u);
    EXPECT_EQ(noc.hopCount(0, 1), 1u);
    EXPECT_EQ(noc.hopCount(0, 7), 1u);   // x wraps: 7 is one hop left
    EXPECT_EQ(noc.hopCount(0, 4), 4u);   // halfway around the x ring
    EXPECT_EQ(noc.hopCount(0, 8), 1u);   // one hop in y
    EXPECT_EQ(noc.hopCount(0, 24), 1u);  // y wraps
    EXPECT_EQ(noc.hopCount(0, 12), 5u);  // 4 in x + 1 in y
    // Symmetry.
    for (unsigned a = 0; a < 32; a += 5) {
        for (unsigned b = 0; b < 32; b += 3)
            EXPECT_EQ(noc.hopCount(a, b), noc.hopCount(b, a));
    }
}

TEST(Torus, LatencyFormulaSinglePacket)
{
    TorusNoc noc(8, 4);
    // Latency = inject ser + hops * (3 + ser) + eject ser, with
    // ser = ceil((payload + 8) / 8).
    for (unsigned payload : {0u, 32u, 256u}) {
        const Cycles ser = (payload + 8 + 7) / 8;
        for (unsigned dst : {0u, 1u, 12u}) {
            TorusNoc fresh(8, 4);
            const unsigned hops = fresh.hopCount(0, dst);
            const Cycles want = ser + hops * (3 + ser) + ser;
            EXPECT_EQ(deliverOne(fresh, 0, dst, payload), want)
                << "payload " << payload << " dst " << dst;
        }
    }
}

TEST(Torus, ContentionSerializesSharedLinks)
{
    // Two same-size packets over the same route: the second's delivery
    // trails by at least one serialization unit.
    TorusNoc noc(8, 4);
    Cycles first = 0, second = 0;
    for (int i = 0; i < 2; ++i) {
        Packet p;
        p.src = 0;
        p.dst = 2;
        p.payloadBytes = 64;
        p.onArrive = [&, i](Packet &pkt) {
            (i == 0 ? first : second) = pkt.deliveredAt;
        };
        noc.send(std::move(p), 0);
    }
    Cycles now = 0;
    while (second == 0 && now < 10000)
        noc.tick(now++);
    const Cycles ser = (64 + 8) / 8;
    EXPECT_GE(second, first + ser);
}

TEST(Torus, StarLanesDoNotContend)
{
    // Packets injected by different PEs of the same vault use private
    // star links: both arrive with single-packet latency.
    TorusNoc noc(8, 4);
    Cycles t[2] = {0, 0};
    for (unsigned lane = 0; lane < 2; ++lane) {
        Packet p;
        p.src = 0;
        p.dst = 0;
        p.payloadBytes = 64;
        p.srcLane = lane;
        p.dstLane = 4;
        p.onArrive = [&, lane](Packet &pkt) {
            t[lane] = pkt.deliveredAt;
        };
        noc.send(std::move(p), 0);
    }
    Cycles now = 0;
    while ((t[0] == 0 || t[1] == 0) && now < 10000)
        noc.tick(now++);
    // Both share only the ejection lane (the vault controller's), so
    // the second trails by exactly one ejection serialization.
    const Cycles ser = (64 + 8) / 8;
    EXPECT_EQ(std::min(t[0], t[1]), 2 * ser);
    EXPECT_EQ(std::max(t[0], t[1]), 3 * ser);
}

TEST(Torus, ManyPacketsAllDelivered)
{
    TorusNoc noc(8, 4);
    unsigned delivered = 0;
    Cycles now = 0;
    for (unsigned src = 0; src < 32; ++src) {
        for (unsigned dst = 0; dst < 32; ++dst) {
            Packet p;
            p.src = src;
            p.dst = dst;
            p.payloadBytes = 32;
            p.onArrive = [&](Packet &) { ++delivered; };
            noc.send(std::move(p), now);
        }
    }
    while (!noc.idle() && now < 100000)
        noc.tick(now++);
    EXPECT_EQ(delivered, 32u * 32u);
    EXPECT_EQ(noc.delivered(), 32u * 32u);
    // The watchdog's progress report: one island delivered them all.
    EXPECT_EQ(noc.islandDelivered(0), noc.delivered());
    EXPECT_GT(noc.avgLatency(), 0.0);
}

TEST(Torus, DimensionOrderRoutingIsMinimal)
{
    // Every delivery time respects the minimal-hop lower bound.
    for (unsigned dst = 1; dst < 32; dst += 3) {
        TorusNoc noc(8, 4);
        const Cycles t = deliverOne(noc, 5, dst, 0);
        const Cycles ser = 1;
        EXPECT_GE(t, noc.hopCount(5, dst) * (3 + ser)) << dst;
    }
}

} // namespace
} // namespace vip
