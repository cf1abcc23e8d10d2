#include "noc/torus.hh"

#include <algorithm>
#include <utility>

#include "sim/fault.hh"
#include "sim/logging.hh"

namespace vip {

TorusNoc::TorusNoc(unsigned xdim, unsigned ydim, StatGroup *parent)
    : xdim_(xdim), ydim_(ydim),
      linkFreeAt_(static_cast<std::size_t>(xdim) * ydim * NumPorts, 0),
      laneSeq_(static_cast<std::size_t>(xdim) * ydim * kLanes, 0),
      islandOf_(static_cast<std::size_t>(xdim) * ydim, 0),
      shards_(1),
      statGroup_("noc", parent),
      statDelivered_(&statGroup_, "delivered", "packets delivered"),
      statBytes_(&statGroup_, "bytes", "payload bytes delivered"),
      statLatency_(&statGroup_, "latency_total",
                   "sum of packet latencies (cycles)"),
      statHops_(&statGroup_, "hops_total", "torus hops traversed")
{
    vip_assert(xdim_ > 0 && ydim_ > 0, "degenerate torus");
    shards_[0].outbox.resize(1);
}

void
TorusNoc::setPartition(const std::vector<unsigned> &island_of_node,
                       unsigned islands)
{
    vip_assert(islands >= 1, "need at least one island");
    vip_assert(island_of_node.size() == numNodes(),
               "partition map does not cover the torus");
    for (Shard &sh : shards_)
        vip_assert(sh.events.empty() && sh.packets.size() ==
                                            sh.freeSlots.size(),
                   "repartitioning a network with traffic in flight");
    for (const unsigned i : island_of_node)
        vip_assert(i < islands, "node mapped past the last island");
    islandOf_ = island_of_node;
    shards_.clear();
    shards_.resize(islands);
    for (Shard &sh : shards_)
        sh.outbox.resize(islands);
}

unsigned
TorusNoc::hopCount(unsigned src, unsigned dst) const
{
    auto ringDist = [](unsigned a, unsigned b, unsigned dim) {
        const unsigned fwd = (b + dim - a) % dim;
        return std::min(fwd, dim - fwd);
    };
    return ringDist(nodeX(src), nodeX(dst), xdim_) +
           ringDist(nodeY(src), nodeY(dst), ydim_);
}

std::pair<unsigned, TorusNoc::Port>
TorusNoc::route(unsigned node, unsigned dst) const
{
    const unsigned x = nodeX(node), y = nodeY(node);
    const unsigned dx = nodeX(dst), dy = nodeY(dst);

    if (x != dx) {
        const unsigned fwd = (dx + xdim_ - x) % xdim_;
        const bool plus = fwd <= xdim_ - fwd;
        const unsigned nx = plus ? (x + 1) % xdim_ : (x + xdim_ - 1) % xdim_;
        return {nodeAt(nx, y), plus ? XPlus : XMinus};
    }
    vip_assert(y != dy, "route() called at destination");
    const unsigned fwd = (dy + ydim_ - y) % ydim_;
    const bool plus = fwd <= ydim_ - fwd;
    const unsigned ny = plus ? (y + 1) % ydim_ : (y + ydim_ - 1) % ydim_;
    return {nodeAt(x, ny), plus ? YPlus : YMinus};
}

Cycles
TorusNoc::occupy(std::size_t link, Cycles ready, unsigned bytes)
{
    const Cycles start = std::max(ready, linkFreeAt_[link]);
    const Cycles ser = (bytes + kBytesPerCycle - 1) / kBytesPerCycle;
    linkFreeAt_[link] = start + ser;
    return start;
}

std::size_t
TorusNoc::allocSlot(Shard &sh, Packet pkt)
{
    if (!sh.freeSlots.empty()) {
        const std::size_t slot = sh.freeSlots.back();
        sh.freeSlots.pop_back();
        sh.packets[slot] = std::move(pkt);
        return slot;
    }
    sh.packets.push_back(std::move(pkt));
    return sh.packets.size() - 1;
}

void
TorusNoc::send(Packet pkt, Cycles now)
{
    vip_assert(pkt.src < numNodes() && pkt.dst < numNodes(),
               "packet endpoints out of range");
    vip_assert(pkt.srcLane < kLanes && pkt.dstLane < kLanes,
               "bad star lane");
    pkt.injectedAt = now;
    pkt.seq = laneSeq_[pkt.src * kLanes + pkt.srcLane]++;

    Shard &sh = shards_[islandOf_[pkt.src]];
    const std::size_t slot = allocSlot(sh, std::move(pkt));
    Packet &p = sh.packets[slot];

    const unsigned bytes = p.payloadBytes + kHeaderBytes;
    const Cycles start = occupy(
        linkId(p.src, static_cast<Port>(InjectBase + p.srcLane)), now,
        bytes);
    const Cycles ser = (bytes + kBytesPerCycle - 1) / kBytesPerCycle;
    sh.events.push({start + ser, slot, p.src, laneKeyOf(p)});
}

void
TorusNoc::advance(unsigned island, std::size_t packet_index,
                  unsigned node, Cycles now)
{
    Shard &sh = shards_[island];
    Packet &pkt = sh.packets[packet_index];
    const unsigned bytes = pkt.payloadBytes + kHeaderBytes;
    const Cycles ser = (bytes + kBytesPerCycle - 1) / kBytesPerCycle;

    if (node == pkt.dst) {
        if (!pkt.ejected) {
            if (injector_ &&
                injector_->onNocArrival(laneKeyOf(pkt), pkt.attempts) !=
                    FaultInjector::NocVerdict::Deliver) {
                // Lost at the ejection port (dropped flit or link CRC
                // failure): the link-level retry re-injects the whole
                // packet from its source, re-paying serialization on
                // the injection link and every hop. injectedAt is
                // preserved so latency statistics absorb the retry.
                if (pkt.attempts < UINT16_MAX)
                    ++pkt.attempts;
                const unsigned home = islandOf_[pkt.src];
                if (home != island) {
                    // Cross-island retry: the verdict lands on the
                    // destination island but the injection link lives
                    // on the source island, so hand the packet back by
                    // mail; the source re-occupies its lane when it
                    // drains (documented timing divergence for faulty
                    // cross-island traffic, see docs/INTERNALS.md).
                    Packet moved = std::move(pkt);
                    sh.freeSlots.push_back(packet_index);
                    sh.outbox[home].push_back(
                        {now, moved.src, true, std::move(moved)});
                    return;
                }
                const Cycles start = occupy(
                    linkId(pkt.src,
                           static_cast<Port>(InjectBase + pkt.srcLane)),
                    now, bytes);
                sh.events.push(
                    {start + ser, packet_index, pkt.src, laneKeyOf(pkt)});
                return;
            }
            // Reserve the ejection port; deliver when the tail clears it.
            const Cycles start = occupy(
                linkId(node, static_cast<Port>(EjectBase + pkt.dstLane)),
                now, bytes);
            pkt.ejected = true;
            pkt.deliveredAt = start + ser;
            sh.events.push(
                {pkt.deliveredAt, packet_index, node, laneKeyOf(pkt)});
            return;
        }
        const Cycles latency = pkt.deliveredAt - pkt.injectedAt;
        sh.progress += 1;
        sh.delivered += 1;
        sh.bytes += pkt.payloadBytes;
        sh.latencyTotal += latency;
        sh.hist.sample(latency);
        if (pkt.onArrive)
            pkt.onArrive(pkt);
        sh.freeSlots.push_back(packet_index);
        return;
    }

    const auto [next, port] = route(node, pkt.dst);
    const Cycles start = occupy(linkId(node, port), now, bytes);
    sh.hops += 1;
    const Cycles at = start + kHopLatency + ser;
    const unsigned dst_island = islandOf_[next];
    if (dst_island != island) {
        // Handing the packet over at the island boundary: the event
        // resumes on the neighbor's heap after its next inbox drain.
        // Conservative-quantum guarantee: at >= now + kHopLatency + 1
        // (ser >= 1 for the 8-byte header), so with quanta of
        // kHopLatency + 1 cycles the event is never already overdue
        // when the neighbor picks it up.
        Packet moved = std::move(pkt);
        sh.freeSlots.push_back(packet_index);
        sh.outbox[dst_island].push_back(
            {at, next, false, std::move(moved)});
        return;
    }
    sh.events.push({at, packet_index, next, laneKeyOf(pkt)});
}

void
TorusNoc::tick(Cycles now)
{
    vip_assert(shards_.size() == 1,
               "tick() drives an unpartitioned network; islands use "
               "tickIsland()");
    tickIsland(0, now);
    flushIslandStats();
}

void
TorusNoc::tickIsland(unsigned island, Cycles now)
{
    auto &events = shards_[island].events;
    while (!events.empty() && events.top().at <= now) {
        const Event ev = events.top();
        events.pop();
        advance(island, ev.packetIndex, ev.node, ev.at);
    }
}

Cycles
TorusNoc::nextEventAt(unsigned island, Cycles now) const
{
    const auto &events = shards_[island].events;
    if (events.empty())
        return kIdleForever;
    return std::max(events.top().at, now);
}

bool
TorusNoc::idle() const
{
    return inFlight() == 0;
}

bool
TorusNoc::drainInboxes(unsigned island)
{
    bool any = false;
    Shard &mine = shards_[island];
    for (Shard &src : shards_) {
        auto &box = src.outbox[island];
        for (Mail &m : box) {
            const Cycles at = m.at;
            const unsigned node = m.node;
            const bool reinject = m.reinject;
            const std::size_t slot = allocSlot(mine, std::move(m.pkt));
            Packet &p = mine.packets[slot];
            if (reinject) {
                // Retransmission handed back by the destination
                // island: occupy our injection lane now that we own
                // the packet again.
                const unsigned bytes = p.payloadBytes + kHeaderBytes;
                const Cycles start = occupy(
                    linkId(p.src,
                           static_cast<Port>(InjectBase + p.srcLane)),
                    at, bytes);
                const Cycles ser =
                    (bytes + kBytesPerCycle - 1) / kBytesPerCycle;
                mine.events.push(
                    {start + ser, slot, p.src, laneKeyOf(p)});
            } else {
                mine.events.push({at, slot, node, laneKeyOf(p)});
            }
            any = true;
        }
        box.clear();
    }
    return any;
}

std::uint64_t
TorusNoc::islandDelivered(unsigned island) const
{
    return shards_[island].progress;
}

std::size_t
TorusNoc::inFlight() const
{
    std::size_t n = 0;
    for (const Shard &sh : shards_) {
        n += sh.packets.size() - sh.freeSlots.size();
        for (const auto &box : sh.outbox)
            n += box.size();
    }
    return n;
}

void
TorusNoc::flushIslandStats()
{
    for (Shard &sh : shards_) {
        statDelivered_ += sh.delivered;
        statBytes_ += sh.bytes;
        statLatency_ += sh.latencyTotal;
        statHops_ += sh.hops;
        latencyHist_.merge(sh.hist);
        sh.delivered = sh.bytes = sh.latencyTotal = sh.hops = 0;
        sh.hist.reset();
    }
}

} // namespace vip
