/**
 * @file
 * The run-loop watchdog and the ingress backpressure path under
 * event-horizon fast-forward.
 *
 * Rounds of the run loop end where the watchdog next looks, so warps
 * stop short of it (see VipSystem::RunLoop::roundEnd in
 * system/run_loop.cc), and a machine that stops making progress throws
 * DeadlockError at the same cycle for any island count and whether or
 * not dead cycles are being skipped — warped cycles count toward the
 * no-progress window. The
 * error carries a human-readable diagnosis of the stuck machine state
 * and leaves the system object intact.
 */

#include <gtest/gtest.h>

#include <string>

#include "isa/builder.hh"
#include "sim/error.hh"
#include "sim/json.hh"
#include "system/simulation.hh"

namespace vip {
namespace {

/**
 * A program whose PE issues nothing for far longer than the watchdog
 * window: a full-scratchpad vector op occupies the pipe for ~512
 * cycles, and the next vector op stalls on it. With watchdogCycles
 * well below the stall, two consecutive checks see identical progress.
 */
std::vector<Instruction>
stalledProgram()
{
    AsmBuilder b;
    b.movImm(1, 2048);  // vl: 2048 halfwords = the whole scratchpad
    b.setVl(1);
    b.movImm(2, 0);
    b.vv(VecOp::Add, 2, 2, 2);
    b.vv(VecOp::Add, 2, 2, 2);  // stalls ~512 cycles on the pipe
    b.halt();
    return b.finish();
}

TEST(Watchdog, FiresUnderFastForward)
{
    SystemConfig cfg = makeSystemConfig(1, 1);
    cfg.fastForward = true;
    cfg.watchdogCycles = 100;
    VipSystem sys(cfg);
    sys.pe(0).loadProgram(stalledProgram());
    try {
        sys.run(1'000'000);
        FAIL() << "watchdog did not fire";
    } catch (const DeadlockError &e) {
        EXPECT_EQ(e.kind(), "deadlock");
        EXPECT_NE(e.message().find("deadlocked"), std::string::npos);
        // The diagnosis names the stuck PE with its PC, stall reason,
        // and LSQ occupancy.
        const std::string &d = e.detail();
        EXPECT_NE(d.find("pe0"), std::string::npos) << d;
        EXPECT_NE(d.find("stall="), std::string::npos) << d;
        EXPECT_NE(d.find("lsq="), std::string::npos) << d;
    }
}

TEST(Watchdog, FiresWithoutFastForward)
{
    SystemConfig cfg = makeSystemConfig(1, 1);
    cfg.fastForward = false;
    cfg.watchdogCycles = 100;
    VipSystem sys(cfg);
    sys.pe(0).loadProgram(stalledProgram());
    EXPECT_THROW(sys.run(1'000'000), DeadlockError);
}

TEST(Watchdog, SameDeadlockCycleForAnyIslandCount)
{
    // The oracle is one island without fast-forward; a second island
    // and the warps must not move the cycle the deadlock is reported
    // at.
    auto deadlock_message = [](unsigned islands, bool ff) {
        SystemConfig cfg = makeSystemConfig(4, 1);
        cfg.islands = islands;
        cfg.fastForward = ff;
        cfg.watchdogCycles = 100;
        VipSystem sys(cfg);
        sys.pe(0).loadProgram(stalledProgram());
        try {
            sys.run(1'000'000);
        } catch (const DeadlockError &e) {
            return e.message();
        }
        ADD_FAILURE() << "watchdog did not fire: islands=" << islands
                      << " ff=" << ff;
        return std::string{};
    };

    const std::string oracle = deadlock_message(1, false);
    EXPECT_NE(oracle.find("cycle"), std::string::npos) << oracle;
    for (const unsigned islands : {1u, 2u}) {
        for (const bool ff : {true, false}) {
            EXPECT_EQ(deadlock_message(islands, ff), oracle)
                << "islands=" << islands << " ff=" << ff;
        }
    }
}

TEST(Watchdog, SystemSurvivesTheThrow)
{
    // The watchdog reports instead of killing the process; the system
    // object stays usable, so a caller with a bigger budget (or a
    // sweep harness moving to the next point) can carry on.
    SystemConfig cfg = makeSystemConfig(1, 1);
    cfg.watchdogCycles = 100;
    VipSystem sys(cfg);
    sys.pe(0).loadProgram(stalledProgram());
    EXPECT_THROW(sys.run(1'000'000), DeadlockError);
    // Same machine, same stall — a follow-up run() must throw again
    // (not trip the one-thread-per-system assert on a stale flag).
    EXPECT_THROW(sys.run(1'000'000), DeadlockError);
}

TEST(Watchdog, GenerousWindowLetsTheStallResolve)
{
    // The same stall with a normal watchdog budget completes fine —
    // the panic above is the watchdog, not a real wedge.
    SystemConfig cfg = makeSystemConfig(1, 1);
    VipSystem sys(cfg);
    sys.pe(0).loadProgram(stalledProgram());
    sys.run(1'000'000);
    EXPECT_TRUE(sys.allIdle());
}

TEST(IngressBackpressure, DrainOrderSurvivesWarps)
{
    // A depth-1 transaction queue forces arrivals to park in the
    // system's per-vault ingress queue. Four PEs hammering one vault
    // must produce the identical cycle count and statistics with and
    // without fast-forward — i.e. a warp never jumps over a drain
    // opportunity and never reorders parked requests.
    auto run = [](bool ff) {
        SystemConfig cfg = makeSystemConfig(1, 4);
        cfg.fastForward = ff;
        cfg.mem.transQueueDepth = 1;
        Simulation sim(cfg);
        for (unsigned pe = 0; pe < 4; ++pe) {
            AsmBuilder b;
            const Addr base = sim.vaultBase(0) + pe * (1ull << 20);
            b.movImm(1, 0);
            b.movImm(2, 16);    // chunks
            b.movImm(3, static_cast<std::int64_t>(base));
            b.movImm(5, 512);   // stride
            b.movImm(6, 256);   // elements per chunk
            b.movImm(7, 0);
            const auto loop = b.newLabel();
            b.bind(loop);
            b.ldSram(7, 3, 6);
            b.stSram(7, 3, 6);
            b.scalar(ScalarOp::Add, 3, 3, 5);
            b.addImm(1, 1, 1);
            b.branch(BranchCond::Lt, 1, 2, loop);
            b.memfence();
            b.halt();
            sim.loadProgram(pe, b.finish());
        }
        const RunResult r = sim.run(50'000'000);
        EXPECT_TRUE(r.haltedCleanly);
        return std::make_pair(r.cycles, r.toJson().str());
    };

    const auto [ff_cycles, ff_stats] = run(true);
    const auto [slow_cycles, slow_stats] = run(false);
    EXPECT_EQ(ff_cycles, slow_cycles);
    EXPECT_EQ(ff_stats, slow_stats);
}

} // namespace
} // namespace vip
