/**
 * @file
 * The barrier the island run loop (system/run_loop.cc) meets at twice
 * per round.
 */

#ifndef VIP_SIM_ISLAND_HH
#define VIP_SIM_ISLAND_HH

#include <atomic>
#include <cstdint>
#include <thread>

namespace vip {

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
     *  before releasing the rest. */
    template <typename Completion>
    void
    arriveAndWait(Completion &&completion)
    {
        const std::uint64_t gen =
            generation_.load(std::memory_order_acquire);
        if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            parties_) {
            // Last arriver: every other thread's phase writes are
            // visible here (the acq_rel RMW chain on arrived_), so the
            // completion callback may read and rewrite the shared
            // round state.
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

  private:
    const unsigned parties_;
    std::atomic<unsigned> arrived_{0};
    std::atomic<std::uint64_t> generation_{0};
};

} // namespace vip

#endif // VIP_SIM_ISLAND_HH
