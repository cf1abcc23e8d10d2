/**
 * @file
 * The simulator's time model: the clocked-component contract and the
 * event-horizon fast-forward contract.
 *
 * Every tickable unit of the machine (PE, NoC, vault controller)
 * provides `tick(now)` plus `nextEventAt(now)`: the earliest future
 * cycle at which the component, left alone, could change
 * architectural or statistical state. This is a contract, not a base
 * class: the one run loop (VipSystem's island round protocol,
 * system/run_loop.cc) calls the concrete types directly. The scheduler
 * owns time and each component only reports when it next acts: one
 * walk over an island ticks its components in a fixed order and, from
 * the same walk, reports for the next cycle whether all of them are
 * idle and the horizon `min(nextEventAt)` over them (a vault with
 * parked ingress requests adds its next completion, when a queue slot
 * frees). When the horizon lies beyond the current cycle the island
 * warps simulated time directly to it — skipping cycles that would
 * have been no-op ticks for every component. That per-island warp is
 * the run loop's only one.
 *
 * The contract that keeps warping *exact* rather than approximate:
 *
 *  - `nextEventAt` may be conservative (early). Reporting a cycle at
 *    which the component turns out to do nothing merely shrinks the
 *    warp; the component is ticked there and re-reports.
 *  - `nextEventAt` must never be late. If the component would have
 *    changed any observable state (including statistics) at cycle t,
 *    it must report a value <= t. A busy or unknown component reports
 *    `now` (equivalently `now + 1` relative to the cycle it just
 *    ticked), which disables warping entirely.
 *  - External wake-ups need not be reported. A component waiting on
 *    another component's event (a PE waiting on a DRAM response that
 *    arrives through the NoC) may report `kIdleForever`; the event is
 *    already in the queue of the component that will deliver it, and
 *    that component's `nextEventAt` bounds the horizon.
 *  - Components whose per-cycle behaviour is observable even when
 *    "nothing happens" (the PE's per-cycle stall counters) implement
 *    `fastForward(from, to)` to account for the skipped cycles
 *    [from, to) exactly as the per-cycle ticks would have.
 *
 * Wake gating: the warp only skips cycles that are dead for a whole
 * island. Between warps, the PE and the vault controller also skip
 * their own dead cycles inside `tick()`:
 *
 *  - A gated tick must equal `fastForward(now, now + 1)`. A PE stalled
 *    with a known wake cycle > now only charges its stall counter; a
 *    vault before its cached earliest command cycle only retires
 *    completed data (completions are not gated).
 *  - Every input edge that can move a component's wake earlier must
 *    re-arm it, and the edge's owner does so:
 *      - the PE's DRAM response callback (`completeTransferPiece`:
 *        an LSQ slot frees, a fence may drain, an ld.reg valid bit is
 *        set, an ARC entry clears) clears the PE's wake cycle;
 *      - the host's `Pe::setReg` does the same (a register the stall
 *        waits on may have become valid); `loadProgram` resets the
 *        stall outright;
 *      - `VaultController::enqueue` drops the vault's cached command
 *        cycle. The vault's own commands and refreshes (in `tick` or
 *        `catchUpRefreshes`) happen only at or after the cached
 *        cycle, so they leave it <= now, which forces a re-scan.
 *    State the component changes itself is not an edge: it changes
 *    only on ticks that were not gated.
 *  - The gates are active only with `SystemConfig::fastForward`;
 *    `--no-fast-forward` ticks every component every cycle and stays
 *    the oracle the gated runs are compared against.
 */

#ifndef VIP_SIM_CLOCKED_HH
#define VIP_SIM_CLOCKED_HH

#include <limits>

#include "sim/types.hh"

namespace vip {

/** "No self-generated future event": the component is externally
 *  driven or fully idle. */
inline constexpr Cycles kIdleForever = std::numeric_limits<Cycles>::max();

/** What the event-horizon fast-forward did during a run. */
struct FastForwardStats
{
    Cycles skippedCycles = 0;  ///< dead cycles warped over
    std::uint64_t warps = 0;   ///< number of time warps taken
};

} // namespace vip

#endif // VIP_SIM_CLOCKED_HH
