/**
 * @file
 * Packet-level model of VIP's on-chip network: an 8x4 2D torus of vault
 * routers with bidirectional 64-bit links (8 B/cycle => 10 GB/s at
 * 1.25 GHz) and 3 cycles of router+link latency per hop (Sec. V-A).
 *
 * Dimension-order (X then Y) routing with shortest-direction wraparound.
 * Contention is modelled at every traversed link, including the
 * injection and ejection ports, by per-link serialization: a packet of
 * S bytes occupies each link for ceil(S / 8) cycles.
 *
 * Intra-vault traffic (a PE talking to its own vault controller) uses
 * only the star's injection and ejection ports, never a torus link.
 *
 * ## Island partitioning
 *
 * The network can be split into islands (setPartition) so one run can
 * shard across host threads (see sim/island.hh and system/partition.hh).
 * Each island owns the packets, events, and link state of its nodes and
 * is ticked by exactly one thread; a packet hopping onto a node of
 * another island is handed over through a per-island-pair SPSC mailbox
 * that the receiving island drains only at quantum boundaries, so
 * intra-quantum execution is lock-free and thread-confined. Events are
 * processed in a canonical total order — (cycle, node, lane key) — for
 * any island count, which is what makes every cut bit-identical to one
 * island: same-cycle events at *different* nodes commute (they
 * touch disjoint link, slot, and vault state), and same-cycle events at
 * the *same* node are ordered the same way regardless of how many
 * islands processed the rest of the machine.
 */

#ifndef VIP_NOC_TORUS_HH
#define VIP_NOC_TORUS_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "sim/clocked.hh"
#include "sim/histogram.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace vip {

class FaultInjector;

/**
 * Owned, type-erased cargo riding inside a packet (the system parks
 * the in-flight MemRequest here). Travelling *inside* the packet —
 * instead of in a side table indexed by a slot captured in onArrive —
 * is what lets a packet cross island threads: the payload is always
 * owned by whichever island currently holds the packet, and is freed
 * with it if the machine is torn down mid-flight.
 */
using PacketPayload = std::unique_ptr<void, void (*)(void *)>;

/** One message travelling between vault nodes. Move-only: it owns its
 *  payload. */
struct Packet
{
    unsigned src = 0;
    unsigned dst = 0;
    unsigned payloadBytes = 0;

    /**
     * Star-topology lane at each endpoint: lanes 0..3 are the four
     * PEs' private links to their vault router, lane 4 is the vault
     * controller's. Each lane is a separate physical link, so a PE's
     * injections never contend with its neighbors' (Sec. III-C).
     */
    unsigned srcLane = 4;
    unsigned dstLane = 4;

    /** Called at the cycle the packet is fully delivered at dst. In
     *  island mode this runs on the destination island's thread; the
     *  closure must only touch destination-island state. */
    std::function<void(Packet &)> onArrive;

    /** Owned cargo (see PacketPayload). */
    PacketPayload payload{nullptr, +[](void *) {}};

    Cycles injectedAt = 0;
    Cycles deliveredAt = 0;

    /** Internal: set once the ejection port has been reserved. */
    bool ejected = false;

    /** Delivery attempts so far (> 0 after an injected drop/CRC
     *  failure forced a retransmission). Saturates rather than wraps
     *  so a forced-drop campaign cannot recycle attempt identities. */
    std::uint16_t attempts = 0;

    /**
     * Per-source-lane sequence number, assigned by send(). Stable
     * across retransmissions. Together with the source lane it forms
     * the packet's canonical identity (TorusNoc::laneKeyOf): the event
     * tie-break and the deterministic fault-injection key. Per-lane —
     * not a global injection stamp — because each lane's send order is
     * island-local and deterministic, so the identity is the same for
     * any island count (a deterministic wrap after 2^32 packets per
     * lane keeps runs reproducible).
     */
    std::uint32_t seq = 0;
};

class TorusNoc
{
  public:
    /** Per-hop router+link latency (cycles). Also the conservative
     *  lookahead islands rely on: a cross-island packet launched at
     *  cycle t cannot arrive before t + kHopLatency + 1. */
    static constexpr Cycles kHopLatency = 3;
    /** Link width: 64 bit per direction per cycle. */
    static constexpr unsigned kBytesPerCycle = 8;
    /** Header overhead added to every packet's serialization. */
    static constexpr unsigned kHeaderBytes = 8;

    TorusNoc(unsigned xdim, unsigned ydim, StatGroup *parent = nullptr);

    unsigned numNodes() const { return xdim_ * ydim_; }
    unsigned nodeX(unsigned n) const { return n % xdim_; }
    unsigned nodeY(unsigned n) const { return n / xdim_; }
    unsigned nodeAt(unsigned x, unsigned y) const { return y * xdim_ + x; }

    /** Minimal hop count between two nodes on the torus. */
    unsigned hopCount(unsigned src, unsigned dst) const;

    /** Inject a packet at its source node at cycle @p now. In island
     *  mode, must be called from the source node's island thread. */
    void send(Packet pkt, Cycles now);

    /** Deliver every packet whose arrival time has been reached.
     *  Entry point for a standalone, unpartitioned network. */
    void tick(Cycles now);

    bool idle() const;

    /** Packets delivered so far (merged counter plus any island
     *  tallies not yet flushed). */
    std::uint64_t delivered() const;

    /** Packets currently in flight (injected, not yet delivered). */
    std::size_t inFlight() const;

    /**
     * Attach a fault injector: each packet reaching its ejection port
     * rolls for loss/corruption and, on a hit, is retransmitted from
     * its source injection link (link-level retry). Null detaches.
     */
    void setFaultInjector(FaultInjector *f) { injector_ = f; }

    /** Distribution of packet latencies (cycles). */
    const Histogram &latencyHistogram() const { return latencyHist_; }

    double
    avgLatency() const
    {
        const auto n = delivered();
        const auto lat = statLatency_.value() + talliedLatency();
        return n == 0 ? 0.0
                      : static_cast<double>(lat) /
                            static_cast<double>(n);
    }

    /** Star lanes per node: four PEs plus the vault controller. */
    static constexpr unsigned kLanes = 5;

    /** Canonical, placement-independent packet identity:
     *  (source lane id << 32) | per-lane sequence number. */
    std::uint64_t
    laneKeyOf(const Packet &pkt) const
    {
        return (static_cast<std::uint64_t>(pkt.src * kLanes +
                                           pkt.srcLane)
                << 32) |
               pkt.seq;
    }

    // ---- Island partition API (see file comment) -------------------

    /**
     * Split the network into islands: @p island_of_node maps every
     * node to its island in [0, islands). Must be called before any
     * traffic. islands == 1 (the construction default) is a single
     * shard that counts straight into the shared statistics.
     */
    void setPartition(const std::vector<unsigned> &island_of_node,
                      unsigned islands);

    unsigned islands() const
    {
        return static_cast<unsigned>(shards_.size());
    }

    /** Deliver island-local events due by @p now. Island-mode analogue
     *  of tick(); call only from @p island's thread. */
    void tickIsland(unsigned island, Cycles now);

    /** Earliest event queued on @p island's nodes (mailboxes are the
     *  scheduler's job: undrained mail is not visible here). */
    Cycles islandNextEventAt(unsigned island, Cycles now) const;

    /** No events pending on @p island's nodes and nothing waiting in
     *  its outboxes. */
    bool islandIdle(unsigned island) const;

    /**
     * Move every packet mailed to @p island into its event queue
     * (quantum-boundary handover; the island barrier provides the
     * cross-thread ordering). Returns true if anything arrived.
     */
    bool drainInboxes(unsigned island);

    /** Packets delivered so far by @p island alone (thread-confined:
     *  the island's own progress report). With one island, every
     *  packet the network delivered. */
    std::uint64_t islandDelivered(unsigned island) const;

    /**
     * Fold every island's deferred stat tallies into the shared
     * counters, in fixed island order (0, 1, ...). Called once per
     * run, from one thread, after the islands have joined. A single
     * shard updates the counters directly and leaves nothing to fold.
     */
    void flushIslandStats();

  private:
    /** Link classes out of a router: four torus directions, then
     *  kLanes ejection and kLanes injection star links. */
    enum Port : unsigned
    {
        XPlus = 0,
        XMinus,
        YPlus,
        YMinus,
        EjectBase,                      // kLanes links
        InjectBase = EjectBase + kLanes, // kLanes links
        NumPorts = InjectBase + kLanes,
    };

    struct Event
    {
        Cycles at;
        std::size_t packetIndex;
        unsigned node;
        std::uint64_t key;  ///< laneKeyOf() — canonical tie-break

        /** Canonical total order (min-heap via std::greater): cycle,
         *  then node, then packet identity. Identical for any island
         *  count — the determinism linchpin. */
        bool
        operator>(const Event &o) const
        {
            if (at != o.at)
                return at > o.at;
            if (node != o.node)
                return node > o.node;
            return key > o.key;
        }
    };

    /**
     * One unit of cross-island handover, exchanged at quantum
     * boundaries. Plain data, written by exactly one producer island
     * during a quantum and consumed by exactly one receiver island
     * after the barrier — an SPSC mailbox whose synchronization is the
     * barrier itself, so the hot path needs no locks or atomics.
     * vip-lint knows this type is cross-thread by design; it is the
     * sanctioned way to move simulation state between islands.
     */
    struct Mail
    {
        Cycles at;      ///< when the event resumes at @c node
        unsigned node;  ///< node (in the receiving island) to resume at
        /** Retransmission handover: re-occupy @c node's injection lane
         *  from @c at instead of resuming a routed hop. */
        bool reinject;
        Packet pkt;
    };

    /** Everything one island owns: slot table, event heap, deferred
     *  stat tallies, and one outbox per destination island. */
    struct Shard
    {
        std::vector<Packet> packets;
        std::vector<std::size_t> freeSlots;
        std::priority_queue<Event, std::vector<Event>, std::greater<>>
            events;

        /** Deferred stats (multi-island mode only): merged into the
         *  shared counters by flushIslandStats() in island order. */
        std::uint64_t delivered = 0;
        std::uint64_t bytes = 0;
        std::uint64_t latencyTotal = 0;
        std::uint64_t hops = 0;
        Histogram hist;

        std::vector<std::vector<Mail>> outbox;  ///< one per island
    };

    std::size_t linkId(unsigned node, Port port) const
    {
        return node * NumPorts + port;
    }

    /** Next hop (node, port) toward dst using dimension-order routing. */
    std::pair<unsigned, Port> route(unsigned node, unsigned dst) const;

    /**
     * Occupy @p link from @p ready: returns the cycle the transfer
     * starts (>= ready) and bumps the link's next-free time.
     */
    Cycles occupy(std::size_t link, Cycles ready, unsigned bytes);

    std::size_t allocSlot(Shard &sh, Packet pkt);

    void advance(unsigned island, std::size_t packet_index,
                 unsigned node, Cycles now);

    unsigned xdim_;
    unsigned ydim_;

    /**
     * Per-link next-free cycles, indexed node * NumPorts + port. One
     * flat vector even in island mode: an event at node n only ever
     * occupies links *out of* n, and n belongs to exactly one island,
     * so the entries are naturally partitioned by island (disjoint
     * index ranges, no sharing).
     */
    std::vector<Cycles> linkFreeAt_;

    /** Per-source-lane sequence counters (node * kLanes + lane); each
     *  lane injects from one island only, so these partition the same
     *  way linkFreeAt_ does. */
    std::vector<std::uint32_t> laneSeq_;

    std::vector<unsigned> islandOf_;  ///< node -> owning island
    std::vector<Shard> shards_;       ///< size 1 = unpartitioned

    FaultInjector *injector_ = nullptr;

    std::uint64_t talliedLatency() const;

    StatGroup statGroup_;
    Counter statDelivered_;
    Counter statBytes_;
    Counter statLatency_;
    Counter statHops_;
    Histogram latencyHist_;
};

} // namespace vip

#endif // VIP_NOC_TORUS_HH
