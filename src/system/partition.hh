/**
 * @file
 * The partition layer of island-partitioned execution: how the machine
 * (PEs + torus routers + vaults) is cut into islands that can tick on
 * separate host threads (see system/run_loop.cc for the run loop and
 * docs/INTERNALS.md "Island partitioning & conservative quanta").
 *
 * Islands are contiguous bands of NoC X columns: island i owns columns
 * [i * nocX/islands, (i+1) * nocX/islands), every router in them, the
 * vault behind each router, and the PEs on each router's star lanes.
 * Column bands keep each island's footprint contiguous in the address
 * map (vault-major interleaving) and make the partition a pure
 * function of the node coordinate — no placement state to serialize.
 *
 * `islands` must divide nocX so island boundaries fall on column cuts;
 * anything else (including 0) is a ConfigError, caught by
 * validateSystemConfig() before the machine is built.
 */

#ifndef VIP_SYSTEM_PARTITION_HH
#define VIP_SYSTEM_PARTITION_HH

#include <vector>

namespace vip {

/** A concrete cut of the machine into islands (see file comment). */
struct IslandPartition
{
    unsigned islands = 1;

    /** NoC node (== vault id) -> owning island. */
    std::vector<unsigned> islandOfNode;

    /** Island -> its nodes, ascending. Fixed order: merge layers walk
     *  this to combine per-island state deterministically. */
    std::vector<std::vector<unsigned>> nodesOf;

    unsigned
    islandOf(unsigned node) const
    {
        return islandOfNode[node];
    }

    /**
     * Build the column-band partition of an @p noc_x by @p noc_y
     * torus. Requires validateIslandCount(@p islands, @p noc_x) to
     * have passed.
     */
    static IslandPartition make(unsigned islands, unsigned noc_x,
                                unsigned noc_y);
};

/**
 * Reject island counts the column-band partition cannot honor: 0, or
 * any count that does not divide the NoC X dimension. Throws
 * ConfigError with the dotted config path ("islands = ...").
 */
void validateIslandCount(unsigned islands, unsigned noc_x);

} // namespace vip

#endif // VIP_SYSTEM_PARTITION_HH
