/**
 * @file
 * VipSystem's run loop: the machine's island round protocol. It runs
 * the partition islands of one machine (system/partition.hh) on
 * cfg.islands host threads in conservative quanta, deterministically;
 * a single-threaded run is the same loop with one island (no thread is
 * spawned, the barrier has one party, and a round has no quantum
 * bound).
 *
 * ## The protocol
 *
 * Every island gets its own thread and tick cursor. Time advances in
 * rounds of at most one quantum (the minimum cross-island NoC link
 * latency plus one: a flit leaving an island at cycle t cannot arrive
 * at a neighbor before t + hopLatency + serialization, so within one
 * quantum no island can affect another). A round also ends at the
 * deadline, at the watchdog's next look and at the next cancel poll,
 * so each of those is checked at the same cycle for any island count.
 * Each round:
 *
 *   phase A  every island ticks its own components from the round
 *            start to the round end, thread-confined and lock-free,
 *            warping over its own dead cycles (the run loop's one warp
 *            site). Each tick returns the island's report for the next
 *            cycle (idle? next event?), so one machine call per ticked
 *            cycle both advances and reports;
 *   barrier
 *   phase B  every island drains the mailboxes its neighbors filled
 *            during phase A (re-reporting only if mail arrived), and
 *            publishes its progress;
 *   barrier  the last thread to arrive runs the round decision: stop
 *            (a failure / all idle / deadline / cancel / watchdog
 *            deadlock), or start the next round where this one ended.
 *            When every island's next event lies beyond that, no
 *            island can send mail before the earliest of them, so the
 *            quantum counts from there and each island warps over the
 *            dead head of the round itself.
 *
 * The two barriers make each phase's writes visible to all threads
 * before anyone reads them, so the per-link mailboxes and the shared
 * round state need no locks of their own. Determinism comes from the
 * machine (canonical event order inside each island, exchange only at
 * boundaries); the loop only guarantees the same sequence of round
 * boundaries for a given machine and deadline regardless of thread
 * interleaving.
 *
 * An exception raised inside an island (a ProgramError from a PE) is
 * captured with the cycle it was raised at; the other islands finish
 * the round, the decision stops the run, and the caller's thread
 * rethrows the failure the serial machine would have hit first: the
 * smallest (cycle, PE id), the tick order within a cycle, with ties
 * broken by island. A run therefore raises the same error for any
 * island count.
 */

#include "system/system.hh"

#include <algorithm>
#include <exception>
#include <thread>
#include <tuple>

#include "sim/cancel.hh"
#include "sim/error.hh"
#include "sim/island.hh"
#include "sim/logging.hh"

namespace vip {

namespace {

/** a + b, saturating at kIdleForever (an unbounded quantum or a huge
 *  watchdog window must not wrap the round end). */
Cycles
satAdd(Cycles a, Cycles b)
{
    return b > kIdleForever - a ? kIdleForever : a + b;
}

} // namespace

/** One run() call's rounds. Single-use; only VipSystem::run builds
 *  one. */
class VipSystem::RunLoop
{
  public:
    /** The current round, written only by the barrier-2 completion
     *  callback (one thread, all others parked in the barrier). */
    struct Round
    {
        Cycles begin = 0;     ///< first cycle of the round
        Cycles end = 0;       ///< one past the last cycle
        /** The first of the deadline and the watchdog's next look
         *  (>= end): no fast-path chain may charge cycles past it. */
        Cycles horizon = 0;
        bool stop = false;
        bool failed = false;  ///< an island threw; run() rethrows
        bool deadlocked = false;
        bool cancelStopped = false;
        /** First cycle at which the whole machine was idle, or the
         *  deadline / deadlock / cancel cycle. */
        Cycles final = 0;
    };

    RunLoop(VipSystem &sys, Cycles deadline, const CancelToken *cancel);

    /** The island threads hold `this`. */
    RunLoop(const RunLoop &) = delete;
    RunLoop &operator=(const RunLoop &) = delete;

    /**
     * Run every island from sys.now() until the machine drains or the
     * deadline is reached. Spawns islands - 1 threads (none for one
     * island); the calling thread drives island 0. Rethrows the
     * earliest failure any island raised.
     */
    const Round &run();

  private:
    /** Per-island state, written by its own thread in phases A and
     *  B and read by the round decision under barrier ordering.
     *  Cache-line aligned: different threads write neighbouring slots
     *  every round. */
    struct alignas(64) Slot
    {
        /** The island's report for its tick cursor. */
        IslandReport report;
        Cycles idleSince = 0;     ///< cursor when the island went idle
        std::uint64_t progress = 0;
        FastForwardStats ff;      ///< merged after the join
    };

    /** What an island threw, and where in the serial tick order. */
    struct Failure
    {
        std::exception_ptr error;
        Cycles at = 0;      ///< the cycle being simulated
        unsigned pe = ~0u;  ///< the faulting PE; no PE sorts last
    };

    void islandMain(unsigned i);
    void decideNextRound();

    /** Record the exception in flight as island @p i's failure at
     *  cycle @p at. Call from a catch block only. */
    void fail(unsigned i, Cycles at);

    /** Set the round's horizon and its end: the first of the
     *  horizon, the quantum end (counted from @p quiet_from, the
     *  earliest cycle at which any island could act) and the next
     *  cancel poll. */
    void bound(Cycles quiet_from);

    VipSystem &sys_;
    const unsigned islands_;

    /** Longest round in cycles. A cross-island packet sent at cycle t
     *  is next visible at t + kHopLatency + serialization (>= 1 cycle
     *  for the 8-byte header), so within kHopLatency + 1 cycles no
     *  island can affect another and quantum-boundary mail exchange
     *  loses nothing. One island has no cross-island packets. */
    const Cycles quantum_;
    const Cycles deadline_;

    /** Polled by the round decision every kCancelPollCycles simulated
     *  cycles (rounds end there); null = never stops early. */
    const CancelToken *const cancel_;

    SpinBarrier barrier_;
    std::vector<Slot> slots_;
    std::vector<Failure> failures_;
    Round round_;

    /** Watchdog state (touched only by the decision callback). */
    Cycles lastCheck_;
    std::uint64_t lastProgress_ = ~std::uint64_t{0};

    /** Cycle of the next cancel poll (touched only by the decision
     *  callback). */
    Cycles nextCancelPoll_;
};

VipSystem::RunLoop::RunLoop(VipSystem &sys, Cycles deadline,
                            const CancelToken *cancel)
    : sys_(sys), islands_(sys.cfg_.islands),
      quantum_(islands_ > 1 ? TorusNoc::kHopLatency + 1 : kIdleForever),
      deadline_(deadline), cancel_(cancel), barrier_(islands_),
      slots_(islands_), failures_(islands_), lastCheck_(sys.now_),
      nextCancelPoll_(satAdd(sys.now_, kCancelPollCycles))
{
    vip_assert(sys.now_ < deadline, "nothing to run");
    round_.begin = sys.now_;
    bound(sys.now_);
    for (Slot &s : slots_)
        s.idleSince = sys.now_;
}

const VipSystem::RunLoop::Round &
VipSystem::RunLoop::run()
{
    std::vector<std::thread> threads;
    threads.reserve(islands_ - 1);
    for (unsigned i = 1; i < islands_; ++i)
        threads.emplace_back([this, i] { islandMain(i); });
    islandMain(0);
    for (std::thread &t : threads)
        t.join();

    for (const Slot &s : slots_) {
        sys_.ff_.skippedCycles += s.ff.skippedCycles;
        sys_.ff_.warps += s.ff.warps;
    }

    // Rethrow what the serial machine would have: the earliest failure
    // in tick order, regardless of which thread hit a wall first.
    const Failure *first = nullptr;
    for (const Failure &f : failures_) {
        if (f.error && (!first || std::tie(f.at, f.pe) <
                                      std::tie(first->at, first->pe)))
            first = &f;
    }
    if (first)
        std::rethrow_exception(first->error);
    return round_;
}

void
VipSystem::RunLoop::fail(unsigned i, Cycles at)
{
    Failure &f = failures_[i];
    f.error = std::current_exception();
    f.at = at;
    try {
        throw;
    } catch (const ProgramError &e) {
        f.pe = e.pe();
    } catch (...) {
    }
}

void
VipSystem::RunLoop::islandMain(unsigned i)
{
    Slot &slot = slots_[i];
    slot.report = sys_.islandReport(i, round_.begin);
    for (;;) {
        // ---- Phase A: tick own components through the round,
        // thread-confined (reads of round_ are ordered by the
        // previous round's barrier-2 crossing). slot.report always
        // describes cycle c.
        Cycles c = round_.begin;
        try {
            sys_.catchUpIsland(i, c);
            // An island that went idle stops at its idle cycle; it
            // does not warp to the round end.
            while (c < round_.end && !slot.report.idle) {
                if (sys_.cfg_.fastForward) {
                    // The one warp site: skip the island's own dead
                    // cycles (its report clamps to refresh deadlines,
                    // so none are jumped).
                    const Cycles to =
                        std::min(slot.report.next, round_.end);
                    if (to > c) {
                        sys_.fastForwardIsland(i, c, to);
                        slot.ff.skippedCycles += to - c;
                        slot.ff.warps += 1;
                        c = to;
                        if (c == round_.end)
                            break;
                    }
                }
                slot.report = sys_.tickIsland(i, c, round_.horizon);
                ++c;
                if (slot.report.idle)
                    slot.idleSince = c;
            }
        } catch (...) {
            fail(i, c);
        }

        barrier_.arriveAndWait([] {});

        // ---- Phase B: all producers quiesced; drain the mail they
        // addressed to this island and publish the round report. Only
        // the island's own heap and inbox are read: its outboxes are
        // being drained by the neighbours right now. An island that
        // failed is left as it stopped.
        if (!failures_[i].error) {
            try {
                if (sys_.noc_.drainInboxes(i))
                    slot.report = sys_.islandReport(i, round_.end);
                slot.progress = sys_.islandProgress(i);
            } catch (...) {
                fail(i, round_.end);
            }
        }

        barrier_.arriveAndWait([this] { decideNextRound(); });

        if (round_.stop) {
            if (!round_.failed) {
                // The machine stops at round_.final; timers with
                // deadlines strictly before it (DRAM refresh on
                // workload-idle islands) still owe their firings.
                try {
                    sys_.catchUpIsland(i, round_.final);
                } catch (...) {
                    fail(i, round_.final);
                }
            }
            return;
        }
    }
}

void
VipSystem::RunLoop::decideNextRound()
{
    for (const Failure &f : failures_) {
        if (f.error) {
            round_.stop = true;
            round_.failed = true;
            round_.final = round_.end;
            return;
        }
    }

    bool all_idle = true;
    Cycles latest_idle = 0;
    Cycles global_next = kIdleForever;
    for (const Slot &s : slots_) {
        if (s.report.idle) {
            latest_idle = std::max(latest_idle, s.idleSince);
        } else {
            all_idle = false;
            global_next = std::min(global_next, s.report.next);
        }
    }

    if (all_idle) {
        // Every outbox was drained this round (phase B), so idleness
        // is global, and the machine's true halt cycle is when the
        // last island went idle, whatever the island count.
        round_.stop = true;
        round_.final = latest_idle;
        return;
    }
    if (round_.end >= deadline_) {
        round_.stop = true;
        round_.final = deadline_;
        return;
    }

    // Cooperative stop, after the natural-completion checks so a run
    // that drains this very round reports its real result. Rounds end
    // at the poll mark, so the token is read once every
    // kCancelPollCycles simulated cycles, for any island count.
    if (cancel_ && round_.end >= nextCancelPoll_) {
        nextCancelPoll_ = satAdd(round_.end, kCancelPollCycles);
        if (cancel_->shouldStop()) {
            round_.stop = true;
            round_.cancelStopped = true;
            round_.final = round_.end;
            return;
        }
    }

    // Deadlock watchdog. Rounds end at lastCheck_ + watchdogCycles,
    // so it looks at exactly the same cycles for any island count and
    // fast-forward setting.
    if (round_.end - lastCheck_ >= sys_.cfg_.watchdogCycles) {
        std::uint64_t p = 0;
        for (const Slot &s : slots_)
            p += s.progress;
        if (p == lastProgress_) {
            round_.stop = true;
            round_.deadlocked = true;
            round_.final = round_.end;
            return;
        }
        lastProgress_ = p;
        lastCheck_ = round_.end;
    }

    // The next round starts where this one ended. No island has an
    // event before global_next and all mail is drained, so no island
    // can send anything before it either: the quantum counts from
    // there, and each island warps over the dead head of the round in
    // phase A. Without fast-forward the oracle never consults the
    // horizon.
    round_.begin = round_.end;
    bound(sys_.cfg_.fastForward ? std::max(round_.begin, global_next)
                                : round_.begin);
}

void
VipSystem::RunLoop::bound(Cycles quiet_from)
{
    round_.horizon = std::min(
        deadline_, satAdd(lastCheck_, sys_.cfg_.watchdogCycles));
    round_.end =
        std::min(round_.horizon, satAdd(quiet_from, quantum_));
    if (cancel_)
        round_.end = std::min(round_.end, nextCancelPoll_);
}

Cycles
VipSystem::run(Cycles max_cycles, const CancelToken *cancel)
{
    vip_assert(!running_.exchange(true, std::memory_order_acquire),
               "VipSystem::run() entered concurrently; a system must "
               "be confined to one caller at a time (one system per "
               "sweep job)");
    const Cycles deadline = max_cycles == 0 ? ~Cycles{0}
                                            : now_ + max_cycles;
    for (unsigned i = 0; i < cfg_.islands; ++i)
        islandNow_[i].v = now_;

    RunLoop loop(*this, deadline, cancel);
    RunLoop::Round out;
    try {
        out = loop.run();
    } catch (...) {
        noc_.flushIslandStats();
        running_.store(false, std::memory_order_release);
        throw;
    }

    now_ = out.final;
    noc_.flushIslandStats();

    if (out.deadlocked) {
        // Diagnose rather than die: a sweep harness marks this one
        // point failed (carrying the report) and the rest of the
        // campaign completes.
        const std::string diagnosis = deadlockDiagnosis();
        running_.store(false, std::memory_order_release);
        throw DeadlockError("system deadlocked at cycle " +
                                std::to_string(now_),
                            diagnosis);
    }
    if (out.cancelStopped) {
        running_.store(false, std::memory_order_release);
        vip_assert(cancel, "the run loop stopped on a token it was "
                           "never given");
        cancel->check();
        // check() is throw-by-trigger; both triggers are sticky
        // (cancelled is a flag, the clock only moves forward), so
        // this line is unreachable — but keep control flow total.
        throw CancelledError("run cancelled");
    }
    running_.store(false, std::memory_order_release);
    return now_;
}

VipSystem::IslandReport
VipSystem::tickIsland(unsigned island, Cycles now, Cycles horizon)
{
    // The machine's tick order, restricted to one island's nodes:
    // network deliveries first (they may complete PE transactions and
    // park requests at full vaults), then the vault controllers, then
    // the ingress drains (a completion this cycle frees a slot this
    // cycle), then the PE front ends. A PE tick touches only its own
    // state and the NoC, so each node's report is final once its PEs
    // have ticked. The NoC is reported first, so a due packet ends the
    // walk early, and again after the PE ticks, which can only add
    // packets to it.
    islandNow_[island].v = now;
    noc_.tickIsland(island, now);
    const std::vector<unsigned> &nodes = partition_.nodesOf[island];
    for (const unsigned v : nodes)
        hmc_.vault(v).tick(now);
    for (const unsigned v : nodes)
        drainIngress(v);
    IslandReport r;
    reportNoc(island, now + 1, r);
    for (const unsigned v : nodes) {
        const unsigned base = v * cfg_.pesPerVault;
        for (unsigned k = 0; k < cfg_.pesPerVault; ++k)
            pes_[base + k]->tick(now, horizon);
        reportNode(v, now + 1, r);
    }
    reportNoc(island, now + 1, r);
    return r;
}

VipSystem::IslandReport
VipSystem::islandReport(unsigned island, Cycles now) const
{
    IslandReport r;
    reportNoc(island, now, r);
    for (const unsigned v : partition_.nodesOf[island])
        reportNode(v, now, r);
    return r;
}

void
VipSystem::reportNoc(unsigned island, Cycles now, IslandReport &r) const
{
    const Cycles next = noc_.nextEventAt(island, now);
    r.idle = r.idle && next == kIdleForever;
    r.next = std::min(r.next, next);
}

void
VipSystem::reportNode(unsigned v, Cycles now, IslandReport &r) const
{
    if (!r.idle && r.next <= now)
        return;  // busy now: nothing further can change the report
    const VaultController &vault = hmc_.vault(v);
    r.idle = r.idle && ingress_[v].empty() && vault.idle();
    // Vault nextEventAt includes its refresh deadline, which is what
    // clamps island-local warps so refreshes fire on time.
    r.next = std::min(r.next, vault.nextEventAt(now));
    // A parked request drains when its vault frees a slot, and slots
    // free only when a transaction completes.
    if (!ingress_[v].empty())
        r.next = std::min(r.next, std::max(vault.nextCompletionAt(), now));
    const unsigned base = v * cfg_.pesPerVault;
    for (unsigned k = 0; k < cfg_.pesPerVault; ++k) {
        const Pe &pe = *pes_[base + k];
        r.idle = r.idle && pe.idle();
        r.next = std::min(r.next, pe.nextEventAt(now));
    }
}

std::uint64_t
VipSystem::islandProgress(unsigned island) const
{
    std::uint64_t p = noc_.islandDelivered(island);
    for (const unsigned v : partition_.nodesOf[island]) {
        const unsigned base = v * cfg_.pesPerVault;
        for (unsigned k = 0; k < cfg_.pesPerVault; ++k)
            p += pes_[base + k]->stats().instructions.value();
    }
    return p;
}

void
VipSystem::fastForwardIsland(unsigned island, Cycles from, Cycles to)
{
    for (const unsigned v : partition_.nodesOf[island]) {
        const unsigned base = v * cfg_.pesPerVault;
        for (unsigned k = 0; k < cfg_.pesPerVault; ++k)
            pes_[base + k]->fastForward(from, to);
    }
    islandNow_[island].v = to;
}

void
VipSystem::catchUpIsland(unsigned island, Cycles until)
{
    if (islandNow_[island].v < until)
        islandNow_[island].v = until;
    for (const unsigned v : partition_.nodesOf[island])
        hmc_.vault(v).catchUpRefreshes(until);
}

} // namespace vip
