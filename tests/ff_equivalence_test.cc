/**
 * @file
 * Fast-forward equivalence harness: the event-horizon warp in
 * VipSystem::run() (sim/clocked.hh) must be invisible in every
 * observable — final cycle count, the complete dumped statistics tree
 * (JSON, stable key order), and DRAM contents — across representative
 * kernels. Each scenario drives the same program on two machines, one
 * warping and one ticking every cycle, and requires bit-identical
 * results. The warping machine also wake-gates its PEs and vaults, so
 * the same comparison covers the gates' input edges (WakeGate*).
 */

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>

#include "isa/builder.hh"
#include "kernels/bp_kernel.hh"
#include "kernels/conv_kernel.hh"
#include "kernels/fc_kernel.hh"
#include "kernels/layout.hh"
#include "kernels/runner.hh"
#include "sim/rng.hh"
#include "workloads/mrf.hh"
#include "workloads/nn.hh"

namespace vip {
namespace {

/** Everything the warp must not perturb, plus what it skipped. */
struct Observed
{
    Cycles cycles = 0;
    std::string statsJson;
    std::uint64_t dramDigest = 0;
    Cycles skipped = 0;
    std::uint64_t warps = 0;
};

/**
 * Build a system from @p cfg with fast-forward set to @p ff, hand it
 * to @p drive (which stages DRAM, loads programs, and runs — possibly
 * in several phases), then record the observables.
 */
Observed
observe(SystemConfig cfg, bool ff,
        const std::function<void(VipSystem &)> &drive)
{
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
    o.skipped = sys.fastForwardStats().skippedCycles;
    o.warps = sys.fastForwardStats().warps;
    return o;
}

/**
 * The core assertion: warped and unwarped runs are indistinguishable.
 * @p expect_skips additionally requires the warped run to actually
 * exercise the fast path (memory-bound scenarios always do).
 */
void
expectEquivalent(const SystemConfig &cfg,
                 const std::function<void(VipSystem &)> &drive,
                 bool expect_skips = true)
{
    const Observed warped = observe(cfg, true, drive);
    const Observed ticked = observe(cfg, false, drive);

    EXPECT_EQ(warped.cycles, ticked.cycles);
    EXPECT_EQ(warped.statsJson, ticked.statsJson);
    EXPECT_EQ(warped.dramDigest, ticked.dramDigest);

    EXPECT_EQ(ticked.skipped, 0u);
    EXPECT_EQ(ticked.warps, 0u);
    if (expect_skips) {
        EXPECT_GT(warped.skipped, 0u);
        EXPECT_GT(warped.warps, 0u);
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

TEST(FfEquivalence, BpSweepFourPes)
{
    const unsigned W = 12, H = 8, L = 8;
    const MrfProblem problem = makeProblem(W, H, L, 42);
    SystemConfig cfg = makeSystemConfig(1, 4);
    cfg.pe.strictHazards = true;

    expectEquivalent(cfg, [&](VipSystem &sys) {
        MrfDramLayout layout(sys.vaultBase(0), W, H, L);
        layout.upload(problem, sys.dram());
        const unsigned per = H / 4;
        for (unsigned pe = 0; pe < 4; ++pe) {
            sys.pe(pe).loadProgram(genBpSweep(
                layout, BpVariant{},
                BpSweepJob{SweepDir::Right, pe * per, (pe + 1) * per}));
        }
        sys.run(50'000'000);
    });
}

TEST(FfEquivalence, ConvSingleShard)
{
    const unsigned C = 8, H = 10, W = 12, OC = 4, K = 3;
    Rng rng(11);
    FeatureMap in(C, H, W);
    for (auto &v : in.data)
        v = static_cast<Fx16>(rng.nextRange(-10, 10));
    const auto filters = randomWeights(
        static_cast<std::size_t>(OC) * C * K * K, rng, 3);
    const auto bias = randomWeights(OC, rng, 20);

    SystemConfig cfg = makeSystemConfig(1, 1);
    cfg.pe.strictHazards = true;

    expectEquivalent(cfg, [&](VipSystem &sys) {
        const Addr base = sys.vaultBase(0);
        FmapDramLayout in_lay(base, C, H, W, 1);
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
        sys.pe(0).loadProgram(genConvPass(job));
        sys.run(50'000'000);
    });
}

TEST(FfEquivalence, FcPartialThenAccum)
{
    const unsigned IN = 128, OUT = 64, SEGS = 4;
    Rng rng(16);
    const auto input = randomWeights(IN, rng, 30);
    const auto weights = randomWeights(
        static_cast<std::size_t>(OUT) * IN, rng, 5);
    const auto bias = randomWeights(OUT, rng, 50);

    SystemConfig cfg = makeSystemConfig(1, 4);
    cfg.pe.strictHazards = true;

    // Two run() phases: the warp bookkeeping must survive a drained
    // machine being reloaded and run again.
    expectEquivalent(cfg, [&](VipSystem &sys) {
        const Addr base = sys.vaultBase(0);
        const Addr w_addr = base;
        const Addr in_addr = w_addr + weights.size() * 2 + 64;
        const Addr bias_addr = in_addr + input.size() * 2 + 64;
        const Addr out_addr = bias_addr + bias.size() * 2 + 64;
        const Addr part_base = out_addr + OUT * 2 + 64;
        const std::uint64_t part_stride = OUT * 2 + 64;
        sys.dram().write(w_addr, weights.data(), weights.size() * 2);
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
            sys.pe(s).loadProgram(genFcPartial(job));
        }
        sys.run(50'000'000);

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
        sys.pe(0).loadProgram(genFcAccum(acc));
        sys.run(50'000'000);
    });
}

TEST(FfEquivalence, MemoryBoundCopySkipsMostCycles)
{
    // A fenced DRAM copy is dominated by round-trip latency; the warp
    // should skip the bulk of the simulated cycles.
    SystemConfig cfg = makeSystemConfig(1, 1);

    auto drive = [](VipSystem &sys) {
        AsmBuilder b;
        const Addr src = sys.vaultBase(0);
        const Addr dst = src + (1ull << 20);
        b.movImm(1, 0);
        b.movImm(2, 32);     // chunks
        b.movImm(3, static_cast<std::int64_t>(src));
        b.movImm(4, static_cast<std::int64_t>(dst));
        b.movImm(5, 1024);   // stride
        b.movImm(6, 512);    // elements per chunk
        b.movImm(7, 0);      // scratchpad buffer
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
        sys.pe(0).loadProgram(b.finish());
        sys.run(50'000'000);
    };
    expectEquivalent(cfg, drive);

    const Observed warped = observe(cfg, true, drive);
    EXPECT_GT(warped.skipped, warped.cycles / 2)
        << "memory-bound copy should be mostly dead cycles";
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

// Wake-gate input edges (sim/clocked.hh): runs whose stalls end on an
// input edge, or whose stall reason changes inside one stall window,
// and a vault gated across a refresh. Each drive also checks that it
// hit the edge it is named for.

TEST(FfEquivalence, WakeGateLsqFullThenResponse)
{
    // Twelve back-to-back ld.reg into a 2-entry LSQ: each stalls on
    // LSQ capacity until a response frees a slot.
    SystemConfig cfg = makeSystemConfig(1, 1);
    cfg.pe.lsqEntries = 2;
    expectEquivalent(cfg, [](VipSystem &sys) {
        const Addr base = sys.vaultBase(0);
        for (unsigned i = 0; i < 12; ++i)
            sys.dram().store<std::int64_t>(base + i * 4096, i + 1);
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
        sys.pe(0).loadProgram(b.finish());
        sys.run(50'000'000);
        EXPECT_GT(sys.pe(0).stats().stallLsq.value(), 0u);
        EXPECT_EQ(sys.dram().load<std::int64_t>(base + (1 << 20)), 13);
    });
}

TEST(FfEquivalence, WakeGateFenceWithStoresOutstanding)
{
    // A fence behind stores to several banks plus a streamed st.sram:
    // it drains only as the write responses come back.
    expectEquivalent(makeSystemConfig(1, 1), [](VipSystem &sys) {
        const Addr base = sys.vaultBase(0);
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
        sys.pe(0).loadProgram(b.finish());
        sys.run(50'000'000);
        EXPECT_GT(sys.pe(0).stats().stallFence.value(), 0u);
        EXPECT_EQ(sys.pe(0).reg(7), 101u);
    });
}

TEST(FfEquivalence, WakeGateLdRegThenVectorBusy)
{
    // v.v waits on an ld.reg'd address register (no known wake cycle),
    // the response re-arms the PE, and the same v.v then waits on the
    // vector unit still busy with a long m.v — two stall reasons
    // inside one stall window.
    expectEquivalent(makeSystemConfig(1, 1), [](VipSystem &sys) {
        const Addr ptr = sys.vaultBase(0) + 4096;
        sys.dram().store<std::int64_t>(ptr, 3584);
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
        sys.pe(0).loadProgram(b.finish());
        sys.run(50'000'000);
        EXPECT_GT(sys.pe(0).stats().stallScalar.value(), 0u);
        EXPECT_GT(sys.pe(0).stats().stallVectorBusy.value(), 0u);
    });
}

TEST(FfEquivalence, WakeGateVaultThroughRefreshThenEnqueued)
{
    // The vault sits idle and gated (cached cycle: its refresh
    // deadline) while four PEs spin; their first accesses arrive
    // staggered around the end of the first refresh interval — before,
    // inside and after the refresh window — and a second round around
    // the next one.
    expectEquivalent(makeSystemConfig(1, 4), [](VipSystem &sys) {
        const DramTiming t = sys.config().mem.timing;
        const Addr base = sys.vaultBase(0);
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
            sys.pe(pe).loadProgram(b.finish());
        }
        sys.run(50'000'000);
        const Counter *refreshes =
            sys.stats().findCounterByPath("hmc.vault0.refreshes");
        ASSERT_NE(refreshes, nullptr);
        EXPECT_GE(refreshes->value(), 2u);
    });
}

TEST(FfEquivalence, WakeGateHostSetRegMidStall)
{
    // Host edge: the run budget cuts the PE mid-stall on an ld.reg'd
    // register, the host supplies the register, and the next run must
    // issue the waiting add at once.
    expectEquivalent(makeSystemConfig(1, 1), [](VipSystem &sys) {
        const Addr base = sys.vaultBase(0);
        sys.dram().store<std::int64_t>(base, 5);
        AsmBuilder b;
        b.movImm(3, static_cast<std::int64_t>(base));
        b.ldReg(6, 3);
        b.scalar(ScalarOp::Add, 7, 6, 6);
        b.movImm(3, static_cast<std::int64_t>(base + 64));
        b.stReg(7, 3);
        b.memfence();
        b.halt();
        sys.pe(0).loadProgram(b.finish());
        sys.run(6);
        EXPECT_EQ(sys.pe(0).stallReason(), "stall_scalar");
        sys.pe(0).setReg(6, 21);
        sys.run(50'000'000);
        EXPECT_EQ(sys.dram().load<std::int64_t>(base + 64), 42);
    });
}

} // namespace
} // namespace vip
