/**
 * @file
 * Island equivalence harness: sharding a run across host threads
 * (cfg.islands > 1, system/partition.hh) must be invisible in every
 * deterministic observable — final cycle count, the complete dumped
 * statistics tree, and the DRAM fingerprint — for any island count,
 * with and without fast-forward, and under an island-local fault
 * campaign. Each scenario drives the same machine serially and with
 * 2 and 4 islands and requires bit-identical results.
 *
 * Scenario limits (the documented divergences, system/partition.hh):
 * no scenario combines NoC faults with cross-island traffic, and the
 * fault campaign keeps every PE inside its own vault — those are the
 * two cases outside the bit-identity contract.
 */

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>

#include "isa/builder.hh"
#include "kernels/bp_kernel.hh"
#include "kernels/layout.hh"
#include "kernels/runner.hh"
#include "sim/fault.hh"
#include "sim/rng.hh"
#include "system/partition.hh"
#include "workloads/mrf.hh"

namespace vip {
namespace {

/** Everything an island cut must not perturb. */
struct Observed
{
    Cycles cycles = 0;
    std::string statsJson;
    std::uint64_t dramDigest = 0;
    FaultStats faults;
};

Observed
observe(SystemConfig cfg, unsigned islands, bool ff,
        const std::function<void(VipSystem &)> &drive)
{
    cfg.islands = islands;
    cfg.fastForward = ff;
    VipSystem sys(cfg);
    drive(sys);
    EXPECT_TRUE(sys.allIdle());
    Observed o;
    o.cycles = sys.now();
    std::ostringstream os;
    sys.stats().dumpJson(os);
    o.statsJson = os.str();
    o.dramDigest = sys.dram().fingerprint();
    if (const FaultInjector *inj = sys.faultInjector())
        o.faults = inj->stats();
    return o;
}

/**
 * The core assertion: for each fast-forward setting, runs at 1, 2,
 * and 4 islands are indistinguishable. The config must be a 16-vault
 * (4x4 torus) machine so 4 divides nocX.
 */
void
expectIslandEquivalent(const SystemConfig &cfg,
                       const std::function<void(VipSystem &)> &drive)
{
    // Fast-forward (and the wake gates riding on it) must be invisible
    // too: the serial runs with it on and off agree.
    const Observed oracle = observe(cfg, 1, false, drive);
    for (const bool ff : {true, false}) {
        const Observed serial = observe(cfg, 1, ff, drive);
        EXPECT_EQ(oracle.cycles, serial.cycles) << "ff=" << ff;
        EXPECT_EQ(oracle.statsJson, serial.statsJson) << "ff=" << ff;
        EXPECT_EQ(oracle.dramDigest, serial.dramDigest) << "ff=" << ff;
        for (const unsigned islands : {2u, 4u}) {
            const Observed cut = observe(cfg, islands, ff, drive);
            EXPECT_EQ(serial.cycles, cut.cycles)
                << "islands=" << islands << " ff=" << ff;
            EXPECT_EQ(serial.statsJson, cut.statsJson)
                << "islands=" << islands << " ff=" << ff;
            EXPECT_EQ(serial.dramDigest, cut.dramDigest)
                << "islands=" << islands << " ff=" << ff;
            EXPECT_EQ(serial.faults.dramBitFlips, cut.faults.dramBitFlips);
            EXPECT_EQ(serial.faults.retentionErrors,
                      cut.faults.retentionErrors);
            EXPECT_EQ(serial.faults.eccCorrected, cut.faults.eccCorrected);
            EXPECT_EQ(serial.faults.eccSilent, cut.faults.eccSilent);
            EXPECT_EQ(serial.faults.spBitFlips, cut.faults.spBitFlips);
        }
    }
}

MrfProblem
makeProblem(unsigned w, unsigned h, unsigned labels, std::uint64_t seed)
{
    Rng rng(seed);
    MrfProblem p;
    p.width = w;
    p.height = h;
    p.labels = labels;
    p.smoothCost = truncatedLinearSmoothness(labels, 3, 12);
    p.dataCost.resize(static_cast<std::size_t>(w) * h * labels);
    for (auto &c : p.dataCost)
        c = static_cast<Fx16>(rng.nextBelow(25));
    return p;
}

/** Spin @p iterations of a two-cycle counting loop on r1/r2. */
void
emitSpin(AsmBuilder &b, std::int64_t iterations)
{
    b.movImm(1, 0);
    b.movImm(2, iterations);
    const auto loop = b.newLabel();
    b.bind(loop);
    b.addImm(1, 1, 1);
    b.branch(BranchCond::Lt, 1, 2, loop);
}

/** A small fenced DRAM copy from @p src into @p dst, optionally
 *  behind a spin of @p spin loop iterations. */
std::vector<Instruction>
copyProgram(Addr src, Addr dst, unsigned chunks, std::int64_t spin = 0)
{
    AsmBuilder b;
    if (spin > 0)
        emitSpin(b, spin);
    b.movImm(1, 0);
    b.movImm(2, chunks);
    b.movImm(3, static_cast<std::int64_t>(src));
    b.movImm(4, static_cast<std::int64_t>(dst));
    b.movImm(5, 1024);  // chunk stride (bytes)
    b.movImm(6, 512);   // elements per chunk
    b.movImm(7, 0);     // scratchpad buffer
    const auto loop = b.newLabel();
    b.bind(loop);
    b.ldSram(7, 3, 6);
    b.stSram(7, 4, 6);
    b.memfence();
    b.scalar(ScalarOp::Add, 3, 3, 5);
    b.scalar(ScalarOp::Add, 4, 4, 5);
    b.addImm(1, 1, 1);
    b.branch(BranchCond::Lt, 1, 2, loop);
    b.halt();
    return b.finish();
}

TEST(IslandEquivalence, ReplicatedBpAcrossVaults)
{
    // Every vault of a 16-vault machine runs the same 4-PE BP sweep
    // on its own copy of the tile: dense island-local compute on all
    // four columns at once.
    const unsigned W = 12, H = 8, L = 8;
    const MrfProblem problem = makeProblem(W, H, L, 42);
    SystemConfig cfg = makeSystemConfig(16, 4);
    cfg.pe.strictHazards = true;

    auto drive = [&](VipSystem &sys) {
        for (unsigned v = 0; v < 16; ++v) {
            MrfDramLayout layout(sys.vaultBase(v), W, H, L);
            layout.upload(problem, sys.dram());
            const unsigned per = H / 4;
            for (unsigned pe = 0; pe < 4; ++pe) {
                sys.pe(v * 4 + pe).loadProgram(genBpSweep(
                    layout, BpVariant{},
                    BpSweepJob{SweepDir::Right, pe * per,
                               (pe + 1) * per}));
            }
        }
        sys.run(50'000'000);
    };
    expectIslandEquivalent(cfg, drive);

    // Anchor to the serial seed golden: every vault runs the exact
    // scenario hotpath_equivalence_test pins at 2048 cycles on a
    // 1-vault machine, and identical vaults finish together — so the
    // island path is transitively pinned to the same golden.
    EXPECT_EQ(observe(cfg, 4, true, drive).cycles, 2048u);
}

TEST(IslandEquivalence, CrossIslandTraffic)
{
    // Each vault's PE streams a copy out of the vault two torus
    // columns away, so every transfer crosses at least one island
    // boundary at 2 and 4 islands — the mailbox exchange path, not
    // just the local tick loop. Fault-free: cross-island timing with
    // NoC faults is a documented divergence.
    SystemConfig cfg = makeSystemConfig(16, 1);

    expectIslandEquivalent(cfg, [](VipSystem &sys) {
        Rng rng(7);
        for (unsigned v = 0; v < 16; ++v) {
            std::vector<std::int16_t> data(2048);
            for (auto &d : data)
                d = static_cast<std::int16_t>(rng.nextRange(-99, 99));
            sys.dram().write(sys.vaultBase(v), data.data(),
                             data.size() * 2);
        }
        for (unsigned v = 0; v < 16; ++v) {
            const unsigned remote = (v + 8) % 16;
            sys.pe(v).loadProgram(
                copyProgram(sys.vaultBase(remote),
                            sys.vaultBase(v) + (4ull << 20), 4));
        }
        sys.run(50'000'000);
    });
}

TEST(IslandEquivalence, IslandLocalFaultCampaign)
{
    // A vault-tiled copy under a fault campaign whose draws are all
    // keyed by island-local identity (each PE touches only its own
    // vault): the merged fault counters and the scrubbed DRAM image
    // must not depend on the island cut.
    SystemConfig cfg = makeSystemConfig(16, 1);
    cfg.faults = FaultPlan::parse(
        "seed=7,dram-read=1e-3,retention=1e-4,sp-flip=1e-4,ecc=on");

    expectIslandEquivalent(cfg, [](VipSystem &sys) {
        Rng rng(11);
        for (unsigned v = 0; v < 16; ++v) {
            std::vector<std::int16_t> data(4096);
            for (auto &d : data)
                d = static_cast<std::int16_t>(rng.nextRange(-99, 99));
            sys.dram().write(sys.vaultBase(v), data.data(),
                             data.size() * 2);
            sys.pe(v).loadProgram(
                copyProgram(sys.vaultBase(v),
                            sys.vaultBase(v) + (4ull << 20), 8));
        }
        sys.run(50'000'000);
    });

    // The campaign must actually fire for the equivalence above to
    // mean anything.
    Observed o = observe(cfg, 4, true, [](VipSystem &sys) {
        Rng rng(11);
        for (unsigned v = 0; v < 16; ++v) {
            std::vector<std::int16_t> data(4096);
            for (auto &d : data)
                d = static_cast<std::int16_t>(rng.nextRange(-99, 99));
            sys.dram().write(sys.vaultBase(v), data.data(),
                             data.size() * 2);
            sys.pe(v).loadProgram(
                copyProgram(sys.vaultBase(v),
                            sys.vaultBase(v) + (4ull << 20), 8));
        }
        sys.run(50'000'000);
    });
    EXPECT_GT(o.faults.dramBitFlips + o.faults.retentionErrors +
                  o.faults.spBitFlips,
              0u);
}

TEST(IslandEquivalence, WakeGateCatchUpRefreshes)
{
    // Wake gating under islands (sim/clocked.hh). Vault 2 serves a
    // short copy for its own PE early, caching its next command cycle;
    // then its island goes idle, so the scheduler stops ticking it and
    // replays its refreshes through catchUpRefreshes. Later PE 0, two
    // columns away, streams from it: the first enqueue lands on a
    // vault whose cache predates refreshes it was never ticked through.
    SystemConfig cfg = makeSystemConfig(16, 1);

    expectIslandEquivalent(cfg, [](VipSystem &sys) {
        const DramTiming t = sys.config().mem.timing;
        sys.pe(2).loadProgram(copyProgram(
            sys.vaultBase(2), sys.vaultBase(2) + (4ull << 20), 2));
        sys.pe(0).loadProgram(copyProgram(
            sys.vaultBase(2), sys.vaultBase(0) + (4ull << 20), 2,
            static_cast<std::int64_t>(3 * t.tREFI + 40) / 2));
        sys.run(50'000'000);
        const Counter *refreshes =
            sys.stats().findCounterByPath("hmc.vault2.refreshes");
        ASSERT_NE(refreshes, nullptr);
        EXPECT_GE(refreshes->value(), 3u);
    });
}

TEST(IslandEquivalence, BudgetCutThenResume)
{
    // A run stopped at its cycle budget and resumed must land where one
    // uncut run does, for any island count and fast-forward setting:
    // the deadline stop, the fast path's budget chunking and the fresh
    // watchdog and poll marks of the resumed run are all invisible.
    // PE 0 and PE 31 sit in the outer columns of the 4x4 torus and
    // stream through vaults two columns away, so their traffic
    // crosses islands at 2 and 4 islands.
    const SystemConfig cfg = makeSystemConfig(16, 2);
    auto load = [](VipSystem &sys) {
        Rng rng(5);
        for (const unsigned v : {2u, 13u}) {
            std::vector<std::int16_t> data(2048);
            for (auto &d : data)
                d = static_cast<std::int16_t>(rng.nextRange(-99, 99));
            sys.dram().write(sys.vaultBase(v), data.data(),
                             data.size() * 2);
        }
        sys.pe(0).loadProgram(copyProgram(
            sys.vaultBase(2), sys.vaultBase(1) + (4ull << 20), 4));
        sys.pe(31).loadProgram(copyProgram(
            sys.vaultBase(13), sys.vaultBase(14) + (4ull << 20), 4));
    };

    const Observed uncut = observe(cfg, 1, false, [&](VipSystem &sys) {
        load(sys);
        sys.run();
    });
    for (const Cycles k : {Cycles{7}, Cycles{333}, Cycles{1000}}) {
        ASSERT_LT(k, uncut.cycles) << "the cut must land mid-run";
        for (const unsigned islands : {1u, 2u, 4u}) {
            for (const bool ff : {true, false}) {
                const Observed cut =
                    observe(cfg, islands, ff, [&](VipSystem &sys) {
                        load(sys);
                        EXPECT_EQ(sys.run(k), k);
                        sys.run();
                    });
                EXPECT_EQ(uncut.cycles, cut.cycles)
                    << "k=" << k << " islands=" << islands
                    << " ff=" << ff;
                EXPECT_EQ(uncut.statsJson, cut.statsJson)
                    << "k=" << k << " islands=" << islands
                    << " ff=" << ff;
            }
        }
    }
}

TEST(IslandEquivalence, IslandCountValidation)
{
    // The column-band partition rejects impossible cuts with the
    // dotted config path in the message, both through the helper and
    // through system construction.
    EXPECT_THROW(validateIslandCount(0, 4), ConfigError);
    EXPECT_THROW(validateIslandCount(3, 4), ConfigError);
    EXPECT_THROW(validateIslandCount(8, 4), ConfigError);
    validateIslandCount(1, 4);
    validateIslandCount(2, 4);
    validateIslandCount(4, 4);

    try {
        validateIslandCount(3, 4);
        FAIL() << "islands = 3 on a 4-wide torus must throw";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("islands"),
                  std::string::npos);
    }

    SystemConfig cfg = makeSystemConfig(16, 1);
    cfg.islands = 3;
    EXPECT_THROW(VipSystem{cfg}, ConfigError);
}

TEST(IslandEquivalence, PartitionShape)
{
    // 4x4 torus, 2 islands: columns {0,1} and {2,3}, row-major node
    // ids (node = y * nocX + x).
    const IslandPartition p = IslandPartition::make(2, 4, 4);
    ASSERT_EQ(p.islands, 2u);
    ASSERT_EQ(p.islandOfNode.size(), 16u);
    for (unsigned n = 0; n < 16; ++n)
        EXPECT_EQ(p.islandOf(n), (n % 4) / 2) << "node " << n;
    ASSERT_EQ(p.nodesOf.size(), 2u);
    EXPECT_EQ(p.nodesOf[0].size() + p.nodesOf[1].size(), 16u);
    // nodesOf is ascending — the fixed merge order.
    for (const auto &nodes : p.nodesOf) {
        for (std::size_t i = 1; i < nodes.size(); ++i)
            EXPECT_LT(nodes[i - 1], nodes[i]);
    }
}

} // namespace
} // namespace vip
