/**
 * @file
 * The equivalence matrix: every host optimisation — event-horizon
 * fast-forward with the wake gates (sim/clocked.hh) and the
 * decoded-µop fast path (pe/decode.hh) that ride on it, and island
 * sharding (system/run_loop.cc) — must leave every deterministic
 * observable bit-identical to the oracle, the interpreter run without
 * fast-forward on one island. Each row of the table below is one
 * workload; it runs at every valid combination of fastForward x
 * islands {1, 2, 4} (equivalence.hh) and each combination is compared
 * against the oracle. The golden column pins the oracle itself, so
 * all the strategies cannot drift together unnoticed.
 *
 * Row limits (the documented divergences, system/partition.hh): no
 * row combines NoC faults with cross-island traffic, and the fault
 * campaigns keep every PE inside its own vault — those are the two
 * cases outside the bit-identity contract.
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "equivalence.hh"
#include "isa/builder.hh"
#include "kernels/bp_kernel.hh"
#include "kernels/conv_kernel.hh"
#include "kernels/fc_kernel.hh"
#include "kernels/layout.hh"
#include "kernels/pool_kernel.hh"
#include "kernels/runner.hh"
#include "sim/fault.hh"
#include "sim/rng.hh"
#include "system/partition.hh"
#include "workloads/mrf.hh"
#include "workloads/nn.hh"

namespace vip {
namespace {

constexpr Cycles kBudget = 50'000'000;

/** One workload of the matrix. */
struct Row
{
    SystemConfig cfg;
    Drive drive;
    /** Extra assertion at every combination (may be empty). */
    Check check;
    /** Memory latency dominates: fast-forward on must warp. */
    bool expectWarps = false;
};

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

/** A fenced DRAM copy of @p chunks 1 KiB-strided chunks of 512
 *  elements from @p src into @p dst, optionally behind a spin of
 *  @p spin loop iterations. */
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

/** The 4-PE BP sweep over @p problem (12x8, 8 labels) on vault @p v. */
void
loadBpSweep(Simulation &sim, const MrfProblem &problem, unsigned v)
{
    MrfDramLayout layout(sim.vaultBase(v), problem.width, problem.height,
                         problem.labels);
    layout.upload(problem, sim.system().dram());
    const unsigned per = problem.height / 4;
    for (unsigned pe = 0; pe < 4; ++pe) {
        sim.loadProgram(v * 4 + pe,
                        genBpSweep(layout, BpVariant{},
                                   BpSweepJob{SweepDir::Right, pe * per,
                                              (pe + 1) * per}));
    }
}

/** PE i < @p n copies 4096 random words (Rng 11) from src(i) to
 *  src(i) + 4 MiB in 8 chunks, all inside one vault: the fault
 *  campaigns' workload. */
void
loadLocalCopies(Simulation &sim, unsigned n,
                const std::function<Addr(unsigned)> &src)
{
    Rng rng(11);
    for (unsigned i = 0; i < n; ++i) {
        std::vector<std::int16_t> data(4096);
        for (auto &d : data)
            d = static_cast<std::int16_t>(rng.nextRange(-99, 99));
        sim.system().dram().write(src(i), data.data(), data.size() * 2);
        sim.loadProgram(i, copyProgram(src(i), src(i) + (4ull << 20), 8));
    }
}

/** The statistic at dotted @p path ("system.hmc.vault0.refreshes"). */
std::uint64_t
counterAt(Simulation &sim, const std::string &path)
{
    std::optional<std::uint64_t> found;
    sim.system().stats().visit({
        [&](const std::string &p, std::uint64_t value,
            const std::string &) {
            if (p == path)
                found = value;
        },
        nullptr,
    });
    EXPECT_TRUE(found.has_value()) << path;
    return found.value_or(0);
}

void
expectFaultsFired(Simulation &, const Observed &o)
{
    // The campaign must actually fire for the equivalence to mean
    // anything.
    EXPECT_GT(o.faults.dramBitFlips + o.faults.retentionErrors +
                  o.faults.spBitFlips,
              0u);
}

SystemConfig
strict(SystemConfig cfg)
{
    cfg.pe.strictHazards = true;
    return cfg;
}

const char *const kFaultPlan =
    "seed=7,dram-read=1e-3,retention=1e-4,sp-flip=1e-4,ecc=on";

// --- Kernels -----------------------------------------------------------

Row
scalarLoop()
{
    // The fast path's best case (BM_PeScalarLoop's program): the loop
    // body is one eligible block, so nearly every µop retires through
    // block replay.
    return {makeSystemConfig(1, 1),
            [](Simulation &sim) {
                AsmBuilder b;
                emitSpin(b, 10000);
                b.halt();
                sim.loadProgram(0, b.finish());
            },
            [](Simulation &, const Observed &o) {
                if (!o.knobs.fastForward)
                    return;
                EXPECT_GT(o.blockRuns, 0u);
                // 20000 loop µops plus prologue.
                EXPECT_GT(o.fastUops, 15000u);
            }};
}

Row
bpSweepFourPes()
{
    return {strict(makeSystemConfig(1, 4)),
            [problem = makeProblem(12, 8, 8, 42)](Simulation &sim) {
                loadBpSweep(sim, problem, 0);
            },
            {}, true};
}

Row
convSingleShard()
{
    const unsigned C = 8, H = 10, W = 12, OC = 4, K = 3;
    Rng rng(11);
    FeatureMap in(C, H, W);
    for (auto &v : in.data)
        v = static_cast<Fx16>(rng.nextRange(-10, 10));
    const auto filters = randomWeights(
        static_cast<std::size_t>(OC) * C * K * K, rng, 3);
    const auto bias = randomWeights(OC, rng, 20);

    return {strict(makeSystemConfig(1, 1)),
            [=](Simulation &sim) {
                VipSystem &sys = sim.system();
                FmapDramLayout in_lay(sim.vaultBase(0), C, H, W, 1);
                FmapDramLayout out_lay(in_lay.end() + 64, OC, H, W, 0);
                const Addr filt_addr = out_lay.end() + 64;
                const auto blob = packFilters(filters, C, K, 0, OC, 0, C);
                sys.dram().write(filt_addr, blob.data(), blob.size() * 2);
                const Addr bias_addr = filt_addr + blob.size() * 2 + 64;
                sys.dram().write(bias_addr, bias.data(), bias.size() * 2);
                in_lay.upload(in, sys.dram());

                ConvJob job;
                job.in = &in_lay;
                job.out = &out_lay;
                job.filterBlob = filt_addr;
                job.biasBlob = bias_addr;
                job.zShard = C;
                job.filters = OC;
                job.rowBegin = 0;
                job.rowEnd = H;
                job.width = W;
                sim.loadProgram(0, genConvPass(job));
            },
            {}, true};
}

Row
poolLayer()
{
    const unsigned C = 16, H = 8, W = 12;
    Rng rng(14);
    FeatureMap in(C, H, W);
    for (auto &v : in.data)
        v = static_cast<Fx16>(rng.nextRange(-1000, 1000));

    return {strict(makeSystemConfig(1, 1)), [=](Simulation &sim) {
                FmapDramLayout in_lay(sim.vaultBase(0), C, H, W, 0);
                FmapDramLayout out_lay(in_lay.end() + 64, C, H / 2, W / 2,
                                       0);
                in_lay.upload(in, sim.system().dram());

                PoolJob job;
                job.in = &in_lay;
                job.out = &out_lay;
                job.rowBegin = 0;
                job.rowEnd = H / 2;
                job.width = W / 2;
                job.chunk = C;
                sim.loadProgram(0, genPool(job));
            },
            {}};
}

Row
fcPartialThenAccum()
{
    const unsigned IN = 128, OUT = 64, SEGS = 4;
    Rng rng(16);
    const auto input = randomWeights(IN, rng, 30);
    const auto weights = randomWeights(
        static_cast<std::size_t>(OUT) * IN, rng, 5);
    const auto bias = randomWeights(OUT, rng, 50);

    // Two run() phases: the warp bookkeeping and the µop cache must
    // survive a drained machine being reloaded and run again.
    return {strict(makeSystemConfig(1, 4)),
            [=](Simulation &sim) {
                VipSystem &sys = sim.system();
                const Addr w_addr = sim.vaultBase(0);
                const Addr in_addr = w_addr + weights.size() * 2 + 64;
                const Addr bias_addr = in_addr + input.size() * 2 + 64;
                const Addr out_addr = bias_addr + bias.size() * 2 + 64;
                const Addr part_base = out_addr + OUT * 2 + 64;
                const std::uint64_t part_stride = OUT * 2 + 64;
                sys.dram().write(w_addr, weights.data(),
                                 weights.size() * 2);
                sys.dram().write(in_addr, input.data(), input.size() * 2);
                sys.dram().write(bias_addr, bias.data(), bias.size() * 2);

                for (unsigned s = 0; s < SEGS; ++s) {
                    FcPartialJob job;
                    job.weightBase = w_addr;
                    job.inputBase = in_addr;
                    job.outBase = part_base + s * part_stride;
                    job.inputs = IN;
                    job.segOffset = s * (IN / SEGS);
                    job.segLen = IN / SEGS;
                    job.rowBegin = 0;
                    job.rowEnd = OUT;
                    job.outBlock = 32;
                    sim.loadProgram(s, genFcPartial(job));
                }
                sim.run(kBudget);

                FcAccumJob acc;
                acc.partialBase0 = part_base;
                acc.strideOuter = part_stride;
                acc.countOuter = SEGS;
                acc.strideInner = 0;
                acc.countInner = 1;
                acc.outBase = out_addr;
                acc.biasBase = bias_addr;
                acc.outBegin = 0;
                acc.outEnd = OUT;
                acc.chunk = 32;
                sim.loadProgram(0, genFcAccum(acc));
            },
            {}, true};
}

Row
memoryBoundCopy()
{
    // A fenced DRAM copy is dominated by round-trip latency; the warp
    // should skip the bulk of the simulated cycles.
    return {makeSystemConfig(1, 1),
            [](Simulation &sim) {
                const Addr src = sim.vaultBase(0);
                sim.loadProgram(0, copyProgram(src, src + (1ull << 20), 32));
            },
            [](Simulation &, const Observed &o) {
                if (o.knobs.fastForward) {
                    EXPECT_GT(o.skipped, o.cycles / 2)
                        << "memory-bound copy should be mostly dead cycles";
                }
            },
            true};
}

Row
fastPathFaultCampaign()
{
    // Scratchpad flips are keyed by (peId, committed-instruction
    // ordinal): block replay must charge the exact same ordinals the
    // interpreter does, or flips land on different instructions.
    SystemConfig cfg = makeSystemConfig(1, 4);
    cfg.faults = FaultPlan::parse(kFaultPlan);
    return {cfg,
            [](Simulation &sim) {
                loadLocalCopies(sim, 4, [&sim](unsigned pe) {
                    return sim.vaultBase(0) + pe * (16ull << 20);
                });
            },
            expectFaultsFired};
}

Row
tinyWatchdogSelfLoop()
{
    // A self-loop of about 10^5 cycles under a 64-cycle watchdog, cut
    // mid-loop by a budget and then resumed. A block chain must stop at
    // the watchdog's next look (Pe::tick's horizon): one that charged
    // past it would leave a whole watchdog window without progress,
    // and the run would end in a DeadlockError.
    SystemConfig cfg = makeSystemConfig(16, 1);
    cfg.watchdogCycles = 64;
    return {cfg,
            [](Simulation &sim) {
                AsmBuilder b;
                emitSpin(b, 50000);
                b.halt();
                sim.loadProgram(0, b.finish());
                const RunResult cut = sim.run(33'333);
                EXPECT_FALSE(cut.haltedCleanly);
            },
            [](Simulation &, const Observed &o) {
                EXPECT_EQ(o.error, "");
                if (o.knobs.fastForward) {
                    EXPECT_GT(o.blockRuns, 0u);
                }
            }};
}

// --- Islands -----------------------------------------------------------

Row
replicatedBp()
{
    // Every vault of a 16-vault machine runs the same 4-PE BP sweep on
    // its own copy of the tile: dense island-local compute on all four
    // columns at once. Identical vaults finish together, so the oracle
    // lands on the single-vault BP golden cycle count.
    return {strict(makeSystemConfig(16, 4)),
            [problem = makeProblem(12, 8, 8, 42)](Simulation &sim) {
                for (unsigned v = 0; v < 16; ++v)
                    loadBpSweep(sim, problem, v);
            },
            {}};
}

Row
crossIslandTraffic()
{
    // Each vault's PE streams a copy out of the vault two torus columns
    // away, so every transfer crosses at least one island boundary at
    // 2 and 4 islands — the mailbox exchange path, not just the local
    // tick loop. Fault-free: cross-island timing with NoC faults is a
    // documented divergence.
    return {makeSystemConfig(16, 1), [](Simulation &sim) {
                Rng rng(7);
                for (unsigned v = 0; v < 16; ++v) {
                    std::vector<std::int16_t> data(2048);
                    for (auto &d : data)
                        d = static_cast<std::int16_t>(rng.nextRange(-99, 99));
                    sim.system().dram().write(sim.vaultBase(v), data.data(),
                                              data.size() * 2);
                }
                for (unsigned v = 0; v < 16; ++v) {
                    sim.loadProgram(v, copyProgram(
                                           sim.vaultBase((v + 8) % 16),
                                           sim.vaultBase(v) + (4ull << 20),
                                           4));
                }
            },
            {}};
}

Row
islandLocalFaultCampaign()
{
    // A vault-tiled copy under a fault campaign whose draws are all
    // keyed by island-local identity (each PE touches only its own
    // vault): the merged fault counters and the scrubbed DRAM image
    // must not depend on the island cut.
    SystemConfig cfg = makeSystemConfig(16, 1);
    cfg.faults = FaultPlan::parse(kFaultPlan);
    return {cfg,
            [](Simulation &sim) {
                loadLocalCopies(sim, 16, [&sim](unsigned v) {
                    return sim.vaultBase(v);
                });
            },
            expectFaultsFired};
}

// --- Wake-gate input edges (sim/clocked.hh) -----------------------------
// Runs whose stalls end on an input edge, or whose stall reason changes
// inside one stall window, and vaults gated across refreshes. Each row
// also checks that it hit the edge it is named for.

Row
lsqFullThenResponse()
{
    // Twelve back-to-back ld.reg into a 2-entry LSQ: each stalls on
    // LSQ capacity until a response frees a slot.
    SystemConfig cfg = makeSystemConfig(1, 1);
    cfg.pe.lsqEntries = 2;
    return {cfg,
            [](Simulation &sim) {
                const Addr base = sim.vaultBase(0);
                for (unsigned i = 0; i < 12; ++i)
                    sim.system().dram().store<std::int64_t>(base + i * 4096,
                                                            i + 1);
                AsmBuilder b;
                for (unsigned i = 0; i < 12; ++i) {
                    b.movImm(3, static_cast<std::int64_t>(base + i * 4096));
                    b.ldReg(10 + i, 3);
                }
                b.scalar(ScalarOp::Add, 30, 10, 21);
                b.movImm(3, static_cast<std::int64_t>(base + (1 << 20)));
                b.stReg(30, 3);
                b.memfence();
                b.halt();
                sim.loadProgram(0, b.finish());
            },
            [](Simulation &sim, const Observed &) {
                VipSystem &sys = sim.system();
                EXPECT_GT(sys.pe(0).stats().stallLsq.value(), 0u);
                EXPECT_EQ(sys.dram().load<std::int64_t>(sim.vaultBase(0) +
                                                        (1 << 20)),
                          13);
            },
            true};
}

Row
fenceWithStoresOutstanding()
{
    // A fence behind stores to several banks plus a streamed st.sram:
    // it drains only as the write responses come back.
    return {makeSystemConfig(1, 1),
            [](Simulation &sim) {
                const Addr base = sim.vaultBase(0);
                AsmBuilder b;
                for (unsigned i = 0; i < 4; ++i) {
                    b.movImm(3, static_cast<std::int64_t>(base + i * 8192));
                    b.movImm(4, 100 + i);
                    b.stReg(4, 3);
                }
                b.movImm(5, 0);
                b.movImm(6, 256);
                b.movImm(3, static_cast<std::int64_t>(base + 65536));
                b.stSram(5, 3, 6);
                b.memfence();
                b.movImm(3, static_cast<std::int64_t>(base + 8192));
                b.ldReg(7, 3);
                b.memfence();
                b.halt();
                sim.loadProgram(0, b.finish());
            },
            [](Simulation &sim, const Observed &) {
                EXPECT_GT(sim.system().pe(0).stats().stallFence.value(), 0u);
                EXPECT_EQ(sim.system().pe(0).reg(7), 101u);
            },
            true};
}

Row
ldRegThenVectorBusy()
{
    // v.v waits on an ld.reg'd address register (no known wake cycle),
    // the response re-arms the PE, and the same v.v then waits on the
    // vector unit still busy with a long m.v — two stall reasons
    // inside one stall window.
    return {makeSystemConfig(1, 1),
            [](Simulation &sim) {
                const Addr ptr = sim.vaultBase(0) + 4096;
                sim.system().dram().store<std::int64_t>(ptr, 3584);
                AsmBuilder b;
                b.movImm(1, 128);  // VL: 256 bytes, 32 cycles per row
                b.setVl(1);
                b.movImm(2, 12);   // MR: 12 rows, 384 cycles of occupancy
                b.setMr(2);
                b.movImm(3, 0);     // matrix
                b.movImm(4, 3072);  // vector
                b.movImm(5, 3328);  // m.v results
                b.movImm(8, static_cast<std::int64_t>(ptr));
                b.ldReg(6, 8);
                b.mv(VecOp::Mul, RedOp::Add, 5, 3, 4);
                b.vv(VecOp::Add, 6, 4, 4);
                b.vdrain();
                b.halt();
                sim.loadProgram(0, b.finish());
            },
            [](Simulation &sim, const Observed &) {
                const auto &st = sim.system().pe(0).stats();
                EXPECT_GT(st.stallScalar.value(), 0u);
                EXPECT_GT(st.stallVectorBusy.value(), 0u);
            },
            true};
}

Row
vaultThroughRefreshThenEnqueued()
{
    // The vault sits idle and gated (cached cycle: its refresh
    // deadline) while four PEs spin; their first accesses arrive
    // staggered around the end of the first refresh interval — before,
    // inside and after the refresh window — and a second round around
    // the next one.
    return {makeSystemConfig(1, 4),
            [](Simulation &sim) {
                const DramTiming t = sim.system().config().mem.timing;
                const Addr base = sim.vaultBase(0);
                for (unsigned pe = 0; pe < 4; ++pe) {
                    AsmBuilder b;
                    b.movImm(3, static_cast<std::int64_t>(base + pe * 8192));
                    b.movImm(6, 64);
                    b.movImm(7, pe * 256);
                    for (unsigned round = 0; round < 2; ++round) {
                        const auto at = static_cast<std::int64_t>(
                            t.tREFI - 60 + pe * t.tRFC / 2);
                        emitSpin(b, (round == 0 ? at : t.tREFI - 200) / 2);
                        b.ldSram(7, 3, 6);
                        b.memfence();
                    }
                    b.halt();
                    sim.loadProgram(pe, b.finish());
                }
            },
            [](Simulation &sim, const Observed &) {
                EXPECT_GE(counterAt(sim, "system.hmc.vault0.refreshes"), 2u);
            },
            true};
}

Row
hostSetRegMidStall()
{
    // Host edge: the run budget cuts the PE mid-stall on an ld.reg'd
    // register, the host supplies the register, and the next run must
    // issue the waiting add at once.
    return {makeSystemConfig(1, 1),
            [](Simulation &sim) {
                const Addr base = sim.vaultBase(0);
                sim.system().dram().store<std::int64_t>(base, 5);
                AsmBuilder b;
                b.movImm(3, static_cast<std::int64_t>(base));
                b.ldReg(6, 3);
                b.scalar(ScalarOp::Add, 7, 6, 6);
                b.movImm(3, static_cast<std::int64_t>(base + 64));
                b.stReg(7, 3);
                b.memfence();
                b.halt();
                sim.loadProgram(0, b.finish());
                sim.run(6);
                EXPECT_EQ(sim.system().pe(0).stallReason(), "stall_scalar");
                sim.setReg(0, 6, 21);
            },
            [](Simulation &sim, const Observed &) {
                EXPECT_EQ(sim.system().dram().load<std::int64_t>(
                              sim.vaultBase(0) + 64),
                          42);
            },
            true};
}

Row
catchUpRefreshes()
{
    // Vault 2 serves a short copy for its own PE early, caching its
    // next command cycle; then its island goes idle, so the scheduler
    // stops ticking it and replays its refreshes through
    // catchUpRefreshes. Later PE 0, two columns away, streams from it:
    // the first enqueue lands on a vault whose cache predates
    // refreshes it was never ticked through.
    return {makeSystemConfig(16, 1),
            [](Simulation &sim) {
                const DramTiming t = sim.system().config().mem.timing;
                sim.loadProgram(2, copyProgram(sim.vaultBase(2),
                                               sim.vaultBase(2) + (4ull << 20),
                                               2));
                sim.loadProgram(0, copyProgram(
                                       sim.vaultBase(2),
                                       sim.vaultBase(0) + (4ull << 20), 2,
                                       static_cast<std::int64_t>(
                                           3 * t.tREFI + 40) /
                                           2));
            },
            [](Simulation &sim, const Observed &) {
                EXPECT_GE(counterAt(sim, "system.hmc.vault2.refreshes"), 3u);
            }};
}

Row
faultsOnTwoIslands()
{
    // PE 3 (column 3) faults at cycle 1 and PE 0 (column 0) at cycle
    // 3: inside one quantum and, at islands {2, 4}, on different
    // islands. The oracle raises PE 3's fault, the first in simulated
    // time, and so must every combination: whichever island's thread
    // gets there first, and whether or not the fast path runs PE 0's
    // straight-line prologue as one block.
    return {makeSystemConfig(16, 1),
            [](Simulation &sim) {
                auto faulting = [](unsigned nops) {
                    AsmBuilder b;
                    for (unsigned i = 0; i < nops; ++i)
                        b.nop();
                    b.movImm(1, 0);
                    b.setVl(1);  // a vector length of 0 is illegal
                    b.halt();
                    return b.finish();
                };
                sim.loadProgram(0, faulting(2));
                sim.loadProgram(3, faulting(0));
            },
            {}};
}

template <Cycles kCut>
Row
budgetCutThenResume()
{
    // A run stopped at its cycle budget and resumed must land where one
    // uncut run does, for every knob combination: the deadline stop,
    // the fast path's budget chunking and the fresh watchdog and poll
    // marks of the resumed run are all invisible. PE 0 and PE 31 sit
    // in the outer columns of the 4x4 torus and stream through vaults
    // two columns away, so their traffic crosses islands.
    const SystemConfig cfg = makeSystemConfig(16, 2);
    auto load = [](Simulation &sim) {
        Rng rng(5);
        for (const unsigned v : {2u, 13u}) {
            std::vector<std::int16_t> data(2048);
            for (auto &d : data)
                d = static_cast<std::int16_t>(rng.nextRange(-99, 99));
            sim.system().dram().write(sim.vaultBase(v), data.data(),
                                      data.size() * 2);
        }
        sim.loadProgram(0, copyProgram(sim.vaultBase(2),
                                       sim.vaultBase(1) + (4ull << 20), 4));
        sim.loadProgram(31, copyProgram(sim.vaultBase(13),
                                        sim.vaultBase(14) + (4ull << 20), 4));
    };
    const Observed uncut = observe(cfg, Knobs{}, load, kBudget);
    EXPECT_LT(kCut, uncut.cycles) << "the cut must land mid-run";
    return {cfg,
            [load](Simulation &sim) {
                load(sim);
                EXPECT_EQ(sim.run(kCut).cycles, kCut);
            },
            [uncut](Simulation &, const Observed &o) {
                EXPECT_EQ(o.cycles, uncut.cycles);
                EXPECT_EQ(o.resultJson, uncut.resultJson);
            }};
}

// --- The table ---------------------------------------------------------

/** The oracle's observables, captured from the seed implementation;
 *  a zero field is not pinned. */
struct Golden
{
    Cycles cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t dramDigest = 0;
    /** The oracle's Observed::error; null pins a run without one. */
    const char *error = nullptr;
};

// BP cycles re-pinned (2043 -> 2048) and FC cycles (3676 -> 3667) when
// NoC events gained the canonical (cycle, node, lane key) total order
// for island determinism: same-cycle deliveries at one router tie-break
// by packet identity instead of heap happenstance, which shifts
// link-contention timing slightly. Instructions and the DRAM digests
// are order-invariant and did not move.
constexpr Golden kBpGolden{2048, 3064, 8335395983873963827ull};

struct Entry
{
    const char *name;
    Row (*make)();
    Golden golden;
};

// The table is cut into four shards, one instantiation each, so a
// ctest entry can run one shard (tests/CMakeLists.txt): the golden
// workloads, the fast-forward and wake-gate edges, the fast-path
// workloads and the multi-vault island workloads. Every row sits in
// exactly one shard; the four filters together run the whole matrix.

/** The four kernel workloads whose oracle the golden column pins. */
const Entry kGoldenRows[] = {
    {"BpSweepFourPes", bpSweepFourPes, kBpGolden},
    {"ConvSingleShard", convSingleShard,
     {14448, 7337, 17936303181918984730ull}},
    {"PoolLayer", poolLayer, {1834, 563, 8116046076812699434ull}},
    {"FcPartialThenAccum", fcPartialThenAccum,
     {3667, 3592, 2280018211753887088ull}},
};

/** Memory-latency warps and the edges that re-arm a wake gate. */
const Entry kFastForwardRows[] = {
    {"MemoryBoundCopy", memoryBoundCopy, {}},
    {"WakeGateLsqFullThenResponse", lsqFullThenResponse, {}},
    {"WakeGateFenceWithStoresOutstanding", fenceWithStoresOutstanding, {}},
    {"WakeGateLdRegThenVectorBusy", ldRegThenVectorBusy, {}},
    {"WakeGateVaultThroughRefreshThenEnqueued",
     vaultThroughRefreshThenEnqueued, {}},
    {"WakeGateHostSetRegMidStall", hostSetRegMidStall, {}},
};

/** Block replay over straight-line code and under fault injection. */
const Entry kFastPathRows[] = {
    {"ScalarLoop", scalarLoop, {}},
    {"FastPathFaultCampaign", fastPathFaultCampaign, {}},
    {"TinyWatchdogSelfLoop", tinyWatchdogSelfLoop, {}},
};

/** Sixteen-vault machines, where islands {2, 4} are valid cuts. */
const Entry kIslandRows[] = {
    {"ReplicatedBp16Vaults", replicatedBp, {kBpGolden.cycles, 0, 0}},
    {"CrossIslandTraffic", crossIslandTraffic, {}},
    {"IslandLocalFaultCampaign", islandLocalFaultCampaign, {}},
    {"WakeGateCatchUpRefreshes", catchUpRefreshes, {}},
    {"FaultsOnTwoIslands", faultsOnTwoIslands,
     {0, 0, 0, "program: pe3 pc 1: set.vl with illegal length 0"}},
    {"BudgetCutAt7ThenResume", budgetCutThenResume<7>, {}},
    {"BudgetCutAt333ThenResume", budgetCutThenResume<333>, {}},
    {"BudgetCutAt1000ThenResume", budgetCutThenResume<1000>, {}},
};

void
PrintTo(const Entry &e, std::ostream *os)
{
    *os << e.name;
}

class Equivalence : public ::testing::TestWithParam<Entry>
{
};

TEST_P(Equivalence, EveryKnobCombinationMatchesTheOracle)
{
    const Entry &e = GetParam();
    const Row row = e.make();
    const Observed oracle = expectMatchesOracle(
        row.cfg, row.drive, kBudget,
        [&row](Simulation &sim, const Observed &o) {
            if (row.expectWarps && o.knobs.fastForward) {
                EXPECT_GT(o.skipped, 0u);
                EXPECT_GT(o.warps, 0u);
            }
            if (row.check)
                row.check(sim, o);
        });
    if (e.golden.cycles) {
        EXPECT_EQ(oracle.cycles, e.golden.cycles);
    }
    if (e.golden.instructions) {
        EXPECT_EQ(oracle.instructions, e.golden.instructions);
    }
    if (e.golden.dramDigest) {
        EXPECT_EQ(oracle.dramDigest, e.golden.dramDigest);
    }
    EXPECT_EQ(oracle.error, e.golden.error ? e.golden.error : "");
}

std::string
rowName(const ::testing::TestParamInfo<Entry> &info)
{
    return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(Goldens, Equivalence,
                         ::testing::ValuesIn(kGoldenRows), rowName);
INSTANTIATE_TEST_SUITE_P(FastForward, Equivalence,
                         ::testing::ValuesIn(kFastForwardRows), rowName);
INSTANTIATE_TEST_SUITE_P(FastPath, Equivalence,
                         ::testing::ValuesIn(kFastPathRows), rowName);
INSTANTIATE_TEST_SUITE_P(Islands, Equivalence,
                         ::testing::ValuesIn(kIslandRows), rowName);

// --- Island partition shape ---------------------------------------------

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
