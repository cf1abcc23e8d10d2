/**
 * @file
 * The island scheduler: the simulator's one run loop. It runs N
 * partition islands of one machine on N host threads in conservative
 * quanta, deterministically; a single-threaded run is the same
 * scheduler with one island (no thread is spawned, the barrier has one
 * party, and a round has no quantum bound).
 *
 * ## The protocol
 *
 * Every island gets its own thread and tick cursor. Time advances in
 * rounds of at most `quantum` cycles (the system uses the minimum
 * cross-island NoC link latency plus one: a flit leaving an island at
 * cycle t cannot arrive at a neighbor before t + hopLatency +
 * serialization, so within one quantum no island can affect another).
 * A round also ends at the deadline, at the watchdog's next look and
 * at the next cancel poll, so each of those is checked at the same
 * cycle for any island count. Each round:
 *
 *   phase A  every island ticks its own components from the round
 *            start to the round end, thread-confined and lock-free,
 *            warping over its own dead cycles (the run loop's one warp
 *            site);
 *   barrier
 *   phase B  every island drains the mailboxes its neighbors filled
 *            during phase A, then reports (idle? next event? progress);
 *   barrier  the last thread to arrive runs the round decision: stop
 *            (all idle / deadline / cancel / watchdog-deadlock), or
 *            start the next round where this one ended. When every
 *            island's next event lies beyond that, no island can send
 *            mail before the earliest of them, so the quantum counts
 *            from there and each island warps over the dead head of
 *            the round itself.
 *
 * The two barriers make each phase's writes visible to all threads
 * before anyone reads them, so the per-link mailboxes and the shared
 * round state need no locks of their own. Determinism comes from the
 * client's hooks (canonical event order inside each island, exchange
 * only at boundaries), not from this file; the scheduler only
 * guarantees the same sequence of round boundaries for a given
 * (hooks, options, deadline) regardless of thread interleaving.
 *
 * Exceptions thrown by hooks are captured per island; the scheduler
 * aborts the run at the next barrier and rethrows the lowest-island
 * exception on the caller's thread, so a DeadlockError or ConfigError
 * surfaces exactly once no matter which island hit it.
 */

#ifndef VIP_SIM_ISLAND_HH
#define VIP_SIM_ISLAND_HH

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <vector>

#include "sim/clocked.hh"
#include "sim/types.hh"

namespace vip {

class CancelToken;

/**
 * A reusable spin barrier with a completion callback: the last thread
 * to arrive runs the callback while the others wait, then everyone is
 * released. Spinning (with yields) instead of a mutex/condvar because
 * island quanta are a few cycles of simulated work — microseconds —
 * and a futex round trip per quantum would dominate.
 *
 * Memory ordering: arrivals are acq_rel RMWs on one atomic, so every
 * thread's pre-barrier writes happen-before the completion callback,
 * and the generation bump (release, after the callback) happens-before
 * every waiter's acquire-observation of it — all-to-all visibility per
 * crossing, which is what lets the mailboxes and round state stay
 * plain data.
 */
class SpinBarrier
{
  public:
    explicit SpinBarrier(unsigned parties) : parties_(parties) {}

    /** Block until all parties arrive; the last one runs @p completion
     *  (may be empty) before releasing the rest. */
    void arriveAndWait(const std::function<void()> &completion = {});

  private:
    const unsigned parties_;
    std::atomic<unsigned> arrived_{0};
    std::atomic<std::uint64_t> generation_{0};
};

/**
 * How the scheduler drives the client's islands. All hooks take the
 * island index and are called on that island's thread only, except
 * where noted. Mandatory: tick, idle, nextEventAt, drainInboxes,
 * progress. Optional (may be null): fastForward, catchUp.
 */
struct IslandHooks
{
    /** Advance island @p i through cycle @p now (thread-confined). */
    std::function<void(unsigned i, Cycles now)> tick;

    /** Island @p i has no pending work of its own (undrained inbound
     *  mail does not count; the scheduler accounts for it). */
    std::function<bool(unsigned i)> idle;

    /** Earliest cycle >= @p now at which island @p i could change
     *  state on its own (kIdleForever when externally driven). */
    std::function<Cycles(unsigned i, Cycles now)> nextEventAt;

    /** Move mail addressed to island @p i into its queues; return
     *  true if anything arrived (a reactivation). Called between the
     *  barriers, when all producers have quiesced. */
    std::function<bool(unsigned i)> drainInboxes;

    /** Monotonic work counter for island @p i (deadlock watchdog). */
    std::function<std::uint64_t(unsigned i)> progress;

    /** Cycles [@p from, @p to) are being skipped for island @p i:
     *  replicate per-cycle observable behaviour (stall counters). */
    std::function<void(unsigned i, Cycles from, Cycles to)> fastForward;

    /**
     * Island @p i's cursor is moving to @p until, a round start,
     * possibly without having ticked the cycles in between (it was
     * idle): replay any timer-driven events with deadlines strictly
     * before @p until at their exact deadlines (DRAM refresh). Also
     * called once with the final cycle when the run stops.
     */
    std::function<void(unsigned i, Cycles until)> catchUp;
};

/** Drives one partitioned machine to completion. Single-use. */
class IslandScheduler
{
  public:
    struct Options
    {
        /** Longest round in cycles; must not exceed the minimum
         *  cross-island event latency the hooks guarantee. One island
         *  has no cross-island events: kIdleForever lifts the bound. */
        Cycles quantum = 4;

        /** Declare deadlock when no island makes progress for this
         *  many cycles (checked every watchdogCycles cycles exactly:
         *  rounds end there). */
        Cycles watchdogCycles = 2'000'000;

        /** Allow islands to warp over their own dead cycles. */
        bool fastForward = true;

        /**
         * Cooperative stop signal, polled by the round decision every
         * kCancelPollCycles simulated cycles (rounds end there).
         * Null = never stops early.
         */
        const CancelToken *cancel = nullptr;
    };

    struct Outcome
    {
        /** First cycle at which the whole machine was idle, or the
         *  deadline / deadlock cycle. */
        Cycles finalCycle = 0;

        /** The watchdog fired: no progress for watchdogCycles. */
        bool deadlocked = false;

        /** The run stopped because Options::cancel tripped; the
         *  caller turns this into CancelledError/TimeoutError. */
        bool cancelStopped = false;
    };

    IslandScheduler(unsigned islands, IslandHooks hooks, Options opt);

    /**
     * Run all islands from cycle @p start until the machine drains or
     * @p deadline is reached. Spawns islands - 1 threads (none for one
     * island); the calling thread drives island 0. Rethrows the first
     * (lowest-island) exception any hook raised.
     */
    Outcome run(Cycles start, Cycles deadline);

  private:
    /** Per-island report, written by its own thread in phase B and
     *  read by the round decision under barrier ordering. */
    struct Slot
    {
        Cycles next = 0;          ///< next event (kIdleForever if idle)
        Cycles idleSince = 0;     ///< cursor when the island went idle
        std::uint64_t progress = 0;
        bool idle = false;
        /** Pad to a cache line: slots are written per-round by
         *  different threads; keep them from false-sharing. */
        char pad[64 - 2 * sizeof(Cycles) - sizeof(std::uint64_t) -
                 sizeof(bool)];
    };

    /** The current round, written only by the barrier-2 completion
     *  callback (one thread, all others parked in the barrier). */
    struct Round
    {
        Cycles begin = 0;     ///< first cycle of the round
        Cycles end = 0;       ///< one past the last cycle
        bool stop = false;
        bool deadlocked = false;
        bool cancelStopped = false;
        Cycles final = 0;
    };

    void islandMain(unsigned i);
    void decideNextRound();

    /** Where the next round ends: the first of the quantum end
     *  (counted from @p quiet_from, the earliest cycle at which any
     *  island could act), the deadline, the watchdog's next look and
     *  the next cancel poll. */
    Cycles roundEnd(Cycles quiet_from) const;

    const unsigned islands_;
    const IslandHooks hooks_;
    const Options opt_;

    SpinBarrier barrier_;
    std::vector<Slot> slots_;
    Round round_;
    Cycles deadline_ = 0;

    /** Watchdog state (touched only by the decision callback). */
    Cycles lastCheck_ = 0;
    std::uint64_t lastProgress_ = ~std::uint64_t{0};

    /** Cycle of the next cancel poll (touched only by the decision
     *  callback). */
    Cycles nextCancelPoll_ = 0;

    /** A hook threw somewhere: finish the round and stop. */
    std::atomic<bool> abort_{false};
    std::vector<std::exception_ptr> errors_;
};

} // namespace vip

#endif // VIP_SIM_ISLAND_HH
