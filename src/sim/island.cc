#include "sim/island.hh"

#include <algorithm>
#include <thread>

#include "sim/cancel.hh"
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

void
SpinBarrier::arriveAndWait(const std::function<void()> &completion)
{
    const std::uint64_t gen = generation_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        parties_) {
        // Last arriver: every other thread's phase writes are visible
        // here (the acq_rel RMW chain on arrived_), so the completion
        // callback may read and rewrite the shared round state.
        if (completion)
            completion();
        arrived_.store(0, std::memory_order_relaxed);
        generation_.store(gen + 1, std::memory_order_release);
        return;
    }
    unsigned spins = 0;
    while (generation_.load(std::memory_order_acquire) == gen) {
        // Quanta are microseconds of host work; spin, but let an
        // oversubscribed host make progress.
        if ((++spins & 1023u) == 0)
            std::this_thread::yield();
    }
}

IslandScheduler::IslandScheduler(unsigned islands, IslandHooks hooks,
                                 Options opt)
    : islands_(islands), hooks_(std::move(hooks)), opt_(opt),
      barrier_(islands), slots_(islands), errors_(islands)
{
    vip_assert(islands_ >= 1, "need at least one island");
    vip_assert(opt_.quantum >= 1, "degenerate quantum");
    vip_assert(hooks_.tick && hooks_.idle && hooks_.nextEventAt &&
                   hooks_.drainInboxes && hooks_.progress,
               "missing a mandatory island hook");
}

IslandScheduler::Outcome
IslandScheduler::run(Cycles start, Cycles deadline)
{
    vip_assert(start < deadline, "nothing to run");
    deadline_ = deadline;
    lastCheck_ = start;
    lastProgress_ = ~std::uint64_t{0};
    nextCancelPoll_ = satAdd(start, kCancelPollCycles);
    round_ = Round{};
    round_.begin = start;
    round_.end = roundEnd(start);
    for (Slot &s : slots_) {
        s = Slot{};
        s.idleSince = start;
    }

    std::vector<std::thread> threads;
    threads.reserve(islands_ - 1);
    for (unsigned i = 1; i < islands_; ++i)
        threads.emplace_back([this, i] { islandMain(i); });
    islandMain(0);
    for (std::thread &t : threads)
        t.join();

    // Rethrow deterministically: the lowest island's failure wins,
    // regardless of which thread hit a wall first.
    for (unsigned i = 0; i < islands_; ++i)
        if (errors_[i])
            std::rethrow_exception(errors_[i]);

    return {round_.final, round_.deadlocked, round_.cancelStopped};
}

void
IslandScheduler::islandMain(unsigned i)
{
    Slot &slot = slots_[i];
    for (;;) {
        // ---- Phase A: tick own components through the round,
        // thread-confined (reads of round_ are ordered by the
        // previous round's barrier-2 crossing).
        try {
            if (!abort_.load(std::memory_order_relaxed)) {
                if (hooks_.catchUp)
                    hooks_.catchUp(i, round_.begin);
                // One idle check per tick. It comes before the warp:
                // an island that just went idle must stop at its idle
                // cycle, not warp to the round end.
                Cycles c = round_.begin;
                while (c < round_.end && !hooks_.idle(i)) {
                    if (opt_.fastForward) {
                        // The one warp site: skip the island's own dead
                        // cycles (its nextEventAt clamps to refresh
                        // deadlines, so none are jumped). At the round
                        // start, phase B already computed it: an island
                        // active here was active there, and nothing
                        // has touched it since.
                        const Cycles next = c == round_.begin
                                                ? slot.next
                                                : hooks_.nextEventAt(i, c);
                        const Cycles to = std::min(next, round_.end);
                        if (to > c) {
                            if (hooks_.fastForward)
                                hooks_.fastForward(i, c, to);
                            c = to;
                            if (c == round_.end)
                                break;
                        }
                    }
                    hooks_.tick(i, c);
                    ++c;
                }
                if (hooks_.idle(i)) {
                    if (!slot.idle) {
                        slot.idle = true;
                        slot.idleSince = c;
                    }
                } else {
                    slot.idle = false;
                }
            }
        } catch (...) {
            if (!errors_[i])
                errors_[i] = std::current_exception();
            abort_.store(true, std::memory_order_relaxed);
        }

        barrier_.arriveAndWait();

        // ---- Phase B: all producers quiesced; drain the mail they
        // addressed to this island and publish the round report.
        try {
            if (!abort_.load(std::memory_order_relaxed)) {
                if (hooks_.drainInboxes(i))
                    slot.idle = false;  // reactivated by inbound mail
                slot.next = slot.idle ? kIdleForever
                                      : hooks_.nextEventAt(i, round_.end);
                slot.progress = hooks_.progress(i);
            }
        } catch (...) {
            if (!errors_[i])
                errors_[i] = std::current_exception();
            abort_.store(true, std::memory_order_relaxed);
        }

        barrier_.arriveAndWait([this] { decideNextRound(); });

        if (round_.stop) {
            if (!abort_.load(std::memory_order_relaxed) &&
                hooks_.catchUp) {
                // The machine stops at round_.final; timers with
                // deadlines strictly before it (DRAM refresh on
                // workload-idle islands) still owe their firings.
                try {
                    hooks_.catchUp(i, round_.final);
                } catch (...) {
                    if (!errors_[i])
                        errors_[i] = std::current_exception();
                    abort_.store(true, std::memory_order_relaxed);
                }
            }
            return;
        }
    }
}

void
IslandScheduler::decideNextRound()
{
    if (abort_.load(std::memory_order_relaxed)) {
        round_.stop = true;
        round_.final = round_.end;
        return;
    }

    bool all_idle = true;
    Cycles latest_idle = 0;
    Cycles global_next = kIdleForever;
    for (const Slot &s : slots_) {
        if (s.idle) {
            latest_idle = std::max(latest_idle, s.idleSince);
        } else {
            all_idle = false;
            global_next = std::min(global_next, s.next);
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
    if (opt_.cancel && round_.end >= nextCancelPoll_) {
        nextCancelPoll_ = satAdd(round_.end, kCancelPollCycles);
        if (opt_.cancel->shouldStop()) {
            round_.stop = true;
            round_.cancelStopped = true;
            round_.final = round_.end;
            return;
        }
    }

    // Deadlock watchdog. Rounds end at lastCheck_ + watchdogCycles,
    // so it looks at exactly the same cycles for any island count and
    // fast-forward setting.
    if (round_.end - lastCheck_ >= opt_.watchdogCycles) {
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
    round_.end = roundEnd(opt_.fastForward
                              ? std::max(round_.begin, global_next)
                              : round_.begin);
}

Cycles
IslandScheduler::roundEnd(Cycles quiet_from) const
{
    Cycles end = std::min(deadline_, satAdd(quiet_from, opt_.quantum));
    end = std::min(end, satAdd(lastCheck_, opt_.watchdogCycles));
    if (opt_.cancel)
        end = std::min(end, nextCancelPoll_);
    return end;
}

} // namespace vip
