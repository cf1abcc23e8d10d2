/**
 * @file
 * The campaign workloads: vgg_tiles and bp_memsweep.
 *
 * Each sweep point is built here from the library's public calls —
 * Simulation construction, layout upload / pokeDram, the kernel
 * generators, loadProgram, run — with a span around every call, so
 * each layer is timed from outside the program. The machine, kernel
 * jobs and addresses mirror the bench/common run* helpers, except
 * where a helper has no faithful form (see PointDef::helperGap); only
 * the staged data differs (seeded, where the helpers leave DRAM zero),
 * which the simulator's data-independent timing must not see. Before
 * the timed passes every point also runs through its run* helper, and
 * the simulated cycles and DRAM bytes must agree.
 */

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hh"
#include "harness.hh"
#include "kernels/bp_kernel.hh"
#include "kernels/conv_kernel.hh"
#include "kernels/fc_kernel.hh"
#include "kernels/hier_kernel.hh"
#include "kernels/layout.hh"
#include "kernels/pool_kernel.hh"
#include "sim/rng.hh"
#include "sim/sweep.hh"
#include "workloads/mrf.hh"
#include "workloads/nn.hh"

namespace perfbench {

using namespace vip;

namespace {

/** Simulated row fraction of every vgg_tiles layer. */
constexpr double kVggFraction = 0.02;

/** BP-M iterations per tile phase in bp_memsweep. */
constexpr unsigned kBpIterations = 4;

/**
 * Island count of the traced vgg_tiles run's speedup passes: its FC
 * points (the 32-vault machine) re-run at this many islands against
 * one. Timed passes always run one island: on a shared host the island
 * barriers spread run-to-run timing too far for an end-to-end bound.
 */
constexpr unsigned kSpeedupIslands = 2;

/** A running point: the tracer and the seeded data source. */
struct Ctx
{
    Tracer &t;
    std::uint64_t seed;
    unsigned islands = 1;
    std::uint64_t stagedBytes = 0;
};

SystemConfig
machine(unsigned vaults, const MemKnobs &knobs, unsigned islands)
{
    SystemConfig cfg = makeSystemConfig(vaults, 4);
    cfg.islands = islands;
    applyKnobs(cfg.mem, knobs);
    return cfg;
}

std::unique_ptr<Simulation>
build(Ctx &c, const SystemConfig &cfg)
{
    Span s(c.t, "system.build");
    return std::make_unique<Simulation>(cfg);
}

template <typename Gen>
std::vector<Instruction>
gen(Ctx &c, Gen &&g)
{
    Span s(c.t, "kernels.gen");
    return g();
}

void
load(Ctx &c, Simulation &sim, unsigned pe, std::vector<Instruction> prog)
{
    Span s(c.t, "pe.load");
    sim.loadProgram(pe, std::move(prog));
}

void
poke(Ctx &c, Simulation &sim, Addr addr, const std::vector<Fx16> &values)
{
    Span s(c.t, "mem.stage");
    sim.pokeDram(addr, values);
    c.stagedBytes += 2 * values.size();
}

/** Simulation::run; its span's self time is the stats collection. */
RunResult
run(Ctx &c, Simulation &sim, double *run_seconds)
{
    Span s(c.t, "simulation.run");
    RunResult r = sim.run();
    c.t.addChild("system.run", r.hostSeconds);
    *run_seconds += r.hostSeconds;
    if (!r.haltedCleanly)
        throw std::runtime_error("run stopped before the machine drained");
    return r;
}

Rng
rngFor(const Ctx &c, const std::string &what)
{
    return Rng(c.seed * 0x9e3779b97f4a7c15ull ^ fnv1a(what));
}

/** What one point function hands back. */
struct PointOut
{
    RunResult last;  ///< the final run (counters are cumulative)
    std::uint64_t dramBytes = 0;
    std::uint64_t workItems = 0;
    double runSeconds = 0;
};

PointOut
finish(const Simulation &sim, RunResult last, std::uint64_t work,
       double run_seconds)
{
    PointOut o;
    o.dramBytes = sim.system().hmc().totalBytesMoved();
    o.last = std::move(last);
    o.workItems = work;
    o.runSeconds = run_seconds;
    return o;
}

// ---- points (mirror bench/common.cc) --------------------------------

PointOut
convPoint(Ctx &c, const LayerDesc &layer, unsigned vaults_active,
          double row_fraction, const MemKnobs &knobs)
{
    const unsigned in_c = layer.inChannels;
    const unsigned out_c = layer.outChannels;
    const unsigned shards = (in_c + 63) / 64;
    const unsigned zc = in_c / shards;
    const unsigned xy_tiles = vaults_active / shards;
    unsigned tx = 1, ty = 1;
    while (tx * ty < xy_tiles) {
        if (ty <= tx)
            ty *= 2;
        else
            tx *= 2;
    }
    const unsigned tile_w = layer.inWidth / tx;
    const unsigned tile_h = layer.inHeight / ty;
    const unsigned F = std::min(convFiltersResident(zc), out_c);
    const unsigned groups = out_c / F;
    const unsigned pes = 4;
    const unsigned rows_per_pe = std::max(
        1u, static_cast<unsigned>(tile_h * row_fraction / pes));

    auto sim = build(c, machine(1, knobs, 1));
    const Addr base = sim->vaultBase();
    FmapDramLayout in_lay(base, zc, tile_h, tile_w, 1, true);
    FmapDramLayout out_lay(in_lay.end() + 4096, out_c, tile_h, tile_w,
                           1, true);
    const std::uint64_t blob_elems =
        static_cast<std::uint64_t>(F) * 3 * 3 * zc;
    const Addr filt_base = out_lay.end() + 4096;
    const Addr bias_base = filt_base + groups * blob_elems * 2 + 4096;

    // Seeded input tile, filter blobs and bias.
    Rng rng = rngFor(c, "conv." + layer.name);
    FeatureMap fmap(zc, tile_h, tile_w);
    fmap.data = randomWeights(fmap.data.size(), rng, 60);
    {
        Span s(c.t, "mem.stage");
        in_lay.upload(fmap, sim->system().dram());
        c.stagedBytes += 2 * fmap.data.size();
    }
    poke(c, *sim, filt_base, randomWeights(groups * blob_elems, rng, 5));
    poke(c, *sim, bias_base, randomWeights(out_c, rng, 50));

    for (unsigned pe = 0; pe < pes; ++pe) {
        ConvJob job;
        job.in = &in_lay;
        job.out = &out_lay;
        job.filterBlob = filt_base;
        job.biasBlob = bias_base;
        job.zShard = zc;
        job.filters = F;
        job.filterOffset = 0;
        job.groups = groups;
        job.rowBegin = pe * rows_per_pe;
        job.rowEnd = (pe + 1) * rows_per_pe;
        job.width = tile_w;
        job.finalize = shards == 1;
        load(c, *sim, pe, gen(c, [&] { return genConvPass(job); }));
    }
    double run_s = 0;
    RunResult r = run(c, *sim, &run_s);
    const std::uint64_t macs = static_cast<std::uint64_t>(groups) * F *
                               pes * rows_per_pe * tile_w * 9 * zc;

    if (shards > 1) {
        const unsigned acc_rows = std::max(
            1u, static_cast<unsigned>(tile_h * row_fraction / shards));
        ConvAccumJob acc;
        acc.partials.assign(shards, &out_lay);
        acc.out = &out_lay;
        acc.biasRowBlob = bias_base + 4096;
        acc.rowBegin = 0;
        acc.rowEnd = acc_rows;
        acc.chunkElems = out_c;
        acc.chunksPerRow = tile_w;
        load(c, *sim, 0, gen(c, [&] { return genConvAccum(acc); }));
        r = run(c, *sim, &run_s);
    }
    return finish(*sim, std::move(r), macs, run_s);
}

PointOut
poolPoint(Ctx &c, const LayerDesc &layer, unsigned vaults_active,
          double row_fraction)
{
    auto sim = build(c, machine(1, {}, 1));
    const unsigned C = layer.inChannels;
    const unsigned out_h = layer.outHeight();
    const unsigned out_w = layer.outWidth();
    const unsigned rows_total = std::max(
        1u, static_cast<unsigned>(out_h * row_fraction *
                                  (out_h >= vaults_active
                                       ? 1.0 / vaults_active
                                       : 1.0)));
    const unsigned pes = 4;
    const unsigned rows_per_pe = std::max(1u, rows_total / pes);

    FmapDramLayout in_lay(sim->vaultBase(), C, 2 * pes * rows_per_pe,
                          layer.inWidth, 0);
    FmapDramLayout out_lay(in_lay.end() + 4096, C, pes * rows_per_pe,
                           out_w, 0);
    Rng rng = rngFor(c, "pool." + layer.name);
    FeatureMap fmap(C, 2 * pes * rows_per_pe, layer.inWidth);
    fmap.data = randomWeights(fmap.data.size(), rng, 100);
    {
        Span s(c.t, "mem.stage");
        in_lay.upload(fmap, sim->system().dram());
        c.stagedBytes += 2 * fmap.data.size();
    }
    for (unsigned pe = 0; pe < pes; ++pe) {
        PoolJob job;
        job.in = &in_lay;
        job.out = &out_lay;
        job.rowBegin = pe * rows_per_pe;
        job.rowEnd = (pe + 1) * rows_per_pe;
        job.width = out_w;
        job.chunk = std::min(C, 256u);
        load(c, *sim, pe, gen(c, [&] { return genPool(job); }));
    }
    double run_s = 0;
    RunResult r = run(c, *sim, &run_s);
    // Correctness: every pooled output against the host reference.
    const FeatureMap want = maxPool(fmap, 2);
    const FeatureMap got = out_lay.download(sim->system().dram());
    for (unsigned y = 0; y < got.height; ++y) {
        for (unsigned x = 0; x < got.width; ++x) {
            for (unsigned ch = 0; ch < C; ++ch) {
                if (got.at(ch, y, x) != want.at(ch, y, x))
                    throw std::runtime_error("wrong pooled output");
            }
        }
    }
    return finish(*sim, std::move(r),
                  static_cast<std::uint64_t>(pes) * rows_per_pe * out_w *
                      C * 4,
                  run_s);
}

/** Output rows an FC point simulates (runFcLayer's arithmetic). */
unsigned
fcRows(unsigned outputs, double row_fraction)
{
    unsigned out_block = 64;
    while (outputs % out_block)
        out_block /= 2;
    const unsigned rows = static_cast<unsigned>(outputs * row_fraction);
    return std::max(out_block, rows - rows % out_block);
}

unsigned
fcAccumulators(unsigned rows)
{
    unsigned acc_pes = 32;
    while (rows % acc_pes)
        acc_pes /= 2;
    return acc_pes;
}

/** runFcLayer's PE for accumulator @p a (valid for a < 16). */
unsigned
helperAccumulatorPe(unsigned a)
{
    const unsigned vault = (a % 8) * 4 / 8 * 8 + (a / 8) * 8 % 32;
    return (vault % 32) * 4 + (a % 4);
}

/**
 * The PE running accumulator @p a: runFcLayer's placement on the
 * left-column vaults for the first 16, the next column over for the
 * rest. runFcLayer itself maps accumulators 16..31 back onto PEs that
 * already hold one, so each such load replaces an earlier program and
 * half the output chunks are never accumulated; the benchmark checks
 * the outputs, so it needs a distinct PE per accumulator.
 */
unsigned
accumulatorPe(unsigned a)
{
    return a < 16 ? helperAccumulatorPe(a) : helperAccumulatorPe(a - 16) + 4;
}

/** True when runFcLayer's accumulator placement reuses a PE. */
bool
helperDropsAccumulators(unsigned rows)
{
    std::vector<bool> used(128, false);
    for (unsigned a = 0; a < fcAccumulators(rows); ++a) {
        const unsigned pe = helperAccumulatorPe(a) % 128;
        if (used[pe])
            return true;
        used[pe] = true;
    }
    return false;
}

/** Seeded FC operands and the reference output for one layer. */
struct FcData
{
    std::vector<Fx16> input, weights, bias;  ///< weights: rows x inputs
};

PointOut
fcPoint(Ctx &c, unsigned inputs, unsigned outputs, double row_fraction)
{
    auto sim = build(c, machine(32, {}, c.islands));
    VipSystem &sys = sim->system();
    const unsigned vaults = 32, pes_per_vault = 4;
    const unsigned seg = inputs / (vaults * pes_per_vault);
    unsigned out_block = 64;
    while (outputs % out_block)
        out_block /= 2;
    const unsigned rows = fcRows(outputs, row_fraction);

    const Addr in_addr = sys.vaultBase(0);
    const Addr bias_addr = in_addr + 2ull * inputs + 4096;
    const Addr out_addr = bias_addr + 2ull * outputs + 4096;
    const std::uint64_t local_off = 1ull << 22;
    const std::uint64_t part_off = local_off / 2;
    const std::uint64_t part_stride = 2ull * outputs + 256;

    Rng rng = rngFor(c, "fc." + std::to_string(inputs) + "x" +
                            std::to_string(outputs));
    FcData d;
    d.input = randomWeights(inputs, rng, 30);
    d.weights = randomWeights(static_cast<std::size_t>(rows) * inputs,
                              rng, 5);
    d.bias = randomWeights(rows, rng, 50);
    poke(c, *sim, in_addr, d.input);
    poke(c, *sim, bias_addr, d.bias);

    std::uint64_t macs = 0;
    std::vector<Fx16> tile(static_cast<std::size_t>(rows) * seg);
    for (unsigned v = 0; v < vaults; ++v) {
        for (unsigned p = 0; p < pes_per_vault; ++p) {
            const unsigned s = v * pes_per_vault + p;
            FcPartialJob job;
            job.weightBase = sys.vaultBase(v) + local_off +
                             p * (2ull * outputs * seg + 256);
            job.inputBase = in_addr + 2ull * seg * s;
            job.outBase = sys.vaultBase(v) + part_off + p * part_stride;
            job.inputs = seg;
            job.segOffset = 0;
            job.segLen = seg;
            job.rowBegin = 0;
            job.rowEnd = rows;
            job.outBlock = out_block;
            // This PE's [rows x seg] weight tile, row stride seg.
            for (unsigned r = 0; r < rows; ++r) {
                std::copy_n(d.weights.begin() +
                                static_cast<std::ptrdiff_t>(r) * inputs +
                                static_cast<std::ptrdiff_t>(s) * seg,
                            seg,
                            tile.begin() +
                                static_cast<std::ptrdiff_t>(r) * seg);
            }
            poke(c, *sim, job.weightBase, tile);
            load(c, *sim, s, gen(c, [&] { return genFcPartial(job); }));
            macs += static_cast<std::uint64_t>(rows) * seg;
        }
    }
    double run_s = 0;
    run(c, *sim, &run_s);

    const unsigned acc_pes = fcAccumulators(rows);
    const unsigned chunk_total = rows / acc_pes;
    unsigned chunk = chunk_total;
    while (chunk > 512)
        chunk /= 2;
    if (chunk_total % chunk)
        chunk = chunk_total;
    for (unsigned a = 0; a < acc_pes; ++a) {
        FcAccumJob acc;
        acc.partialBase0 = sys.vaultBase(0) + part_off;
        acc.strideOuter = sys.config().mem.geom.bytesPerVault();
        acc.countOuter = vaults;
        acc.strideInner = part_stride;
        acc.countInner = pes_per_vault;
        acc.outBase = out_addr;
        acc.biasBase = bias_addr;
        acc.outBegin = a * chunk_total;
        acc.outEnd = (a + 1) * chunk_total;
        acc.chunk = chunk;
        load(c, *sim, accumulatorPe(a),
             gen(c, [&] { return genFcAccum(acc); }));
    }
    RunResult r = run(c, *sim, &run_s);

    const std::vector<Fx16> want = fcLayerSegmented(
        d.input, d.weights, d.bias, rows, vaults * pes_per_vault);
    if (sim->peekDram(out_addr, rows) != want)
        throw std::runtime_error("wrong fully-connected output");
    return finish(*sim, std::move(r), macs, run_s);
}

MrfProblem
seededMrf(Ctx &c, const std::string &what, unsigned w, unsigned h,
          unsigned labels)
{
    Rng rng = rngFor(c, what);
    MrfProblem prob;
    prob.width = w;
    prob.height = h;
    prob.labels = labels;
    prob.smoothCost = truncatedLinearSmoothness(labels, 3, 12);
    prob.dataCost.resize(static_cast<std::size_t>(w) * h * labels);
    for (auto &v : prob.dataCost)
        v = static_cast<Fx16>(rng.nextBelow(25));
    return prob;
}

void
uploadMrf(Ctx &c, Simulation &sim, const MrfDramLayout &layout,
          const MrfProblem &prob)
{
    Span s(c.t, "mem.stage");
    layout.upload(prob, sim.system().dram());
    c.stagedBytes += 2 * (prob.dataCost.size() + prob.smoothCost.size());
}

PointOut
bpTilePoint(Ctx &c, unsigned tile_w, unsigned tile_h, unsigned labels,
            unsigned iterations, const MemKnobs &knobs)
{
    auto sim = build(c, machine(1, knobs, 1));
    MrfDramLayout layout(sim->vaultBase(), tile_w, tile_h, labels);
    uploadMrf(c, *sim, layout,
              seededMrf(c, "bp.tile", tile_w, tile_h, labels));
    const Addr flag_base = layout.end() + 64;
    const unsigned num_pes = 4;
    for (unsigned pe = 0; pe < num_pes; ++pe) {
        auto slice = [&](unsigned lanes) {
            const unsigned per = (lanes + num_pes - 1) / num_pes;
            const unsigned begin = std::min(lanes, pe * per);
            return std::make_pair(begin, std::min(lanes, begin + per));
        };
        const auto [hb, he] = slice(tile_h);
        const auto [vb, ve] = slice(tile_w);
        BpSweepJob jobs[4] = {{SweepDir::Right, hb, he},
                              {SweepDir::Left, hb, he},
                              {SweepDir::Down, vb, ve},
                              {SweepDir::Up, vb, ve}};
        load(c, *sim, pe, gen(c, [&] {
            return genBpIterations(layout, BpVariant{}, jobs, iterations,
                                   flag_base, pe, num_pes);
        }));
    }
    double run_s = 0;
    RunResult r = run(c, *sim, &run_s);
    return finish(*sim, std::move(r),
                  4ull * tile_w * tile_h * iterations, run_s);
}

PointOut
constructPoint(Ctx &c, unsigned fine_w, unsigned fine_h, unsigned labels,
               unsigned coarse_rows, const MemKnobs &knobs)
{
    auto sim = build(c, machine(1, knobs, 1));
    MrfDramLayout fine(sim->vaultBase(), fine_w, fine_h, labels);
    MrfDramLayout coarse(fine.end() + 64, fine_w / 2, fine_h / 2, labels);
    uploadMrf(c, *sim, fine,
              seededMrf(c, "bp.fine", fine_w, fine_h, labels));
    const unsigned pes = 4;
    const unsigned per = std::max(1u, coarse_rows / pes);
    for (unsigned pe = 0; pe < pes; ++pe) {
        ConstructJob job;
        job.fine = &fine;
        job.coarse = &coarse;
        job.rowBegin = pe * per;
        job.rowEnd = (pe + 1) * per;
        load(c, *sim, pe, gen(c, [&] { return genConstruct(job); }));
    }
    double run_s = 0;
    RunResult r = run(c, *sim, &run_s);
    return finish(*sim, std::move(r),
                  static_cast<std::uint64_t>(pes) * per * (fine_w / 2),
                  run_s);
}

PointOut
copyPoint(Ctx &c, unsigned fine_w, unsigned fine_h, unsigned labels,
          unsigned fine_rows, const MemKnobs &knobs)
{
    auto sim = build(c, machine(1, knobs, 1));
    MrfDramLayout fine(sim->vaultBase(), fine_w, fine_h, labels);
    MrfDramLayout coarse(fine.end() + 64, fine_w / 2, fine_h / 2, labels);
    uploadMrf(c, *sim, coarse,
              seededMrf(c, "bp.coarse", fine_w / 2, fine_h / 2, labels));
    const unsigned pes = 4;
    const unsigned per = std::max(2u, fine_rows / pes) & ~1u;
    for (unsigned pe = 0; pe < pes; ++pe) {
        CopyJob job;
        job.coarse = &coarse;
        job.fine = &fine;
        job.rowBegin = pe * per;
        job.rowEnd = (pe + 1) * per;
        load(c, *sim, pe, gen(c, [&] { return genCopyMessages(job); }));
    }
    double run_s = 0;
    RunResult r = run(c, *sim, &run_s);
    return finish(*sim, std::move(r),
                  static_cast<std::uint64_t>(pes) * per * fine_w, run_s);
}

// ---- workloads -------------------------------------------------------

struct PointDef
{
    std::string name;
    std::function<PointOut(Ctx &)> run;

    /** The bench/common helper for the same point; empty when there
     *  is no faithful one, with the reason in helperGap. */
    std::function<SliceResult()> helper;
    std::string helperGap;

    /** This point's share of the headline time in ms, from its
     *  simulated ms and work items; empty when not in the headline. */
    std::function<double(double ms, double work)> headline;

    /** A fully-connected layer on the 32-vault machine. */
    bool fc = false;
};

const char *const kFcGap =
    "runFcLayer loads two accumulators onto one PE at this row count";
const char *const kKnobGap =
    "runConstructPhase/runCopyPhase take no memory knobs";

struct Workload
{
    std::vector<PointDef> points;
    double paperMs = 0;        ///< the paper's headline time
    std::string headline;      ///< what the headline is

    /** Passes every run makes at least, whatever --seconds says, so
     *  the point-latency tail always has its sample count (see
     *  perfbench/benchlib.py, TAIL_PERCENTILE). */
    unsigned minPasses = 3;
};

/** ms of the full layer per simulated ms (table4_cnn's arithmetic). */
double
layerScale(const LayerDesc &l, double work_items)
{
    const double vaults = l.kind == LayerDesc::Kind::Conv
                              ? (l.inWidth <= 14 ? 16.0 : 32.0)
                              : 32.0;
    if (l.kind == LayerDesc::Kind::Fc)
        return static_cast<double>(l.macs()) / work_items;
    return static_cast<double>(l.macs()) / vaults / work_items;
}

void
addNetwork(Workload &w, const std::string &net,
           const std::vector<LayerDesc> &layers, double frac,
           bool headline)
{
    for (const LayerDesc &l : layers) {
        PointDef p;
        p.name = net + "." + l.name;
        if (headline) {
            p.headline = [l](double ms, double work) {
                return ms * layerScale(l, work);
            };
        }
        switch (l.kind) {
          case LayerDesc::Kind::Conv: {
            const unsigned vaults = l.inWidth <= 14 ? 16 : 32;
            p.run = [l, vaults, frac](Ctx &c) {
                return convPoint(c, l, vaults, frac, {});
            };
            p.helper = [l, vaults, frac] {
                return runConvShare(l, vaults, frac);
            };
            break;
          }
          case LayerDesc::Kind::Pool:
            p.run = [l, frac](Ctx &c) { return poolPoint(c, l, 32, frac); };
            p.helper = [l, frac] { return runPoolShare(l, 32, frac); };
            break;
          case LayerDesc::Kind::Fc:
            p.fc = true;
            p.run = [l, frac](Ctx &c) {
                return fcPoint(c, l.inputs, l.outputs, frac);
            };
            if (!helperDropsAccumulators(fcRows(l.outputs, frac))) {
                p.helper = [l, frac] {
                    return runFcLayer(l.inputs, l.outputs, frac);
                };
            } else {
                p.helperGap = kFcGap;
            }
            break;
        }
        w.points.push_back(std::move(p));
    }
}

struct Knob
{
    const char *name;
    MemKnobs knobs;
};

const std::vector<Knob> &
fig5Knobs()
{
    static const std::vector<Knob> list = {
        {"open_page", {}},
        {"closed_page", {.closedPage = true}},
        {"narrow_row", {.rowScale = -1}},
        {"wide_row", {.rowScale = +1}},
        {"fewer_ranks", {.rankScale = -1}},
        {"more_ranks", {.rankScale = +1}},
        {"refresh_2x", {.refreshScale = 2}},
        {"refresh_1x", {.refreshScale = 4}},
    };
    return list;
}

Workload
makeWorkload(const std::string &name)
{
    Workload w;
    if (name == "vgg_tiles") {
        addNetwork(w, "vgg16", vgg16Layers(), kVggFraction, true);
        addNetwork(w, "vgg19", vgg19Layers(), kVggFraction, false);
        w.paperMs = 32.3;
        w.headline = "VGG-16 full network, batch 1 (ms)";
    } else if (name == "bp_memsweep") {
        for (const Knob &k : fig5Knobs()) {
            const MemKnobs knobs = k.knobs;
            const bool dflt = std::string(k.name) == "open_page";
            PointDef bp;
            bp.name = std::string(k.name) + ".bp_tile";
            bp.run = [knobs](Ctx &c) {
                return bpTilePoint(c, 60, 34, 16, kBpIterations, knobs);
            };
            bp.helper = [knobs] {
                return runBpTilePhase(60, 34, 16, kBpIterations, knobs);
            };
            // One full-HD iteration = 32 tile phases per vault.
            if (dflt) {
                bp.headline = [](double ms, double) {
                    return ms * 32.0 / kBpIterations;
                };
            }
            w.points.push_back(std::move(bp));

            PointDef cons;
            cons.name = std::string(k.name) + ".construct";
            cons.run = [knobs](Ctx &c) {
                return constructPoint(c, 512, 256, 16, 8, knobs);
            };
            if (dflt) {
                cons.helper = [] {
                    return runConstructPhase(512, 256, 16, 8);
                };
            } else {
                cons.helperGap = kKnobGap;
            }
            w.points.push_back(std::move(cons));

            PointDef copy;
            copy.name = std::string(k.name) + ".copy";
            copy.run = [knobs](Ctx &c) {
                return copyPoint(c, 512, 256, 16, 8, knobs);
            };
            if (dflt) {
                copy.helper = [] { return runCopyPhase(512, 256, 16, 8); };
            } else {
                copy.helperGap = kKnobGap;
            }
            w.points.push_back(std::move(copy));
        }
        w.minPasses = 5;
        w.paperMs = 5.2;
        w.headline = "full-HD BP-M iteration, open page (ms)";
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return w;
}

/** One timed pass over every point. */
struct Pass
{
    std::vector<PointRecord> points;
    std::vector<SpanRecord> spans;
    std::map<std::string, double> totals;
    double wall = 0;
    double runSeconds = 0;
    std::uint64_t simCycles = 0;
    bool traced = false;
};

Pass
runPass(const Workload &w, Tracer &t, std::uint64_t seed,
        unsigned islands)
{
    Pass pass;
    pass.traced = t.recording();
    const double t0 = t.now();
    {
        Span rep(t, "rep");
        for (const PointDef &def : w.points) {
            Ctx c{t, seed, islands};
            PointRecord rec;
            rec.name = def.name;
            const double p0 = t.now();
            try {
                Span s(t, "point");
                PointOut o = def.run(c);
                rec.cycles = o.last.cycles;
                rec.dramBytes = o.dramBytes;
                rec.workItems = o.workItems;
                addRunCounts(rec.counts, o.last);
                rec.counts["mem.staged_bytes"] += c.stagedBytes;
                pass.runSeconds += o.runSeconds;
                pass.simCycles += o.last.cycles;
            } catch (const std::exception &e) {
                rec.ok = false;
                rec.error = e.what();
            }
            rec.latency = t.now() - p0;
            pass.points.push_back(std::move(rec));
        }
    }
    pass.wall = t.now() - t0;
    pass.totals = t.totals();
    pass.spans = t.take();
    return pass;
}

vip::Json
passJson(const Pass &p, bool with_counts)
{
    vip::Json j = vip::Json::object();
    j.set("wall_s", p.wall);
    j.set("run_s", p.runSeconds);
    j.set("sim_cycles", p.simCycles);
    j.set("traced", p.traced);
    vip::Json totals = vip::Json::object();
    for (const auto &[k, v] : p.totals)
        totals.set(k, v);
    j.set("span_totals", std::move(totals));
    vip::Json pts = vip::Json::array();
    for (const PointRecord &r : p.points) {
        if (with_counts) {
            pts.push(toJson(r));
        } else {
            vip::Json s = vip::Json::object();
            s.set("name", r.name);
            s.set("ok", r.ok);
            if (!r.ok)
                s.set("error", r.error);
            s.set("cycles", r.cycles);
            s.set("dram_bytes", r.dramBytes);
            s.set("latency_s", r.latency);
            pts.push(std::move(s));
        }
    }
    j.set("points", std::move(pts));
    if (p.traced)
        j.set("spans", toJson(p.spans));
    return j;
}

} // namespace

vip::Json
runCampaign(const Options &opts)
{
    const Workload w = makeWorkload(opts.workload);
    Workload fc;
    for (const PointDef &def : w.points) {
        if (def.fc && opts.trace)
            fc.points.push_back(def);
    }
    // One sweep job throughout; islands only in the speedup passes.
    const unsigned islands = fc.points.empty() ? 1 : kSpeedupIslands;
    bool oversubscribed = false;
    const unsigned threads = hostThreadBudget(1, islands, &oversubscribed);
    if (oversubscribed) {
        throw std::runtime_error(
            "thread budget: jobs x islands = " + std::to_string(threads) +
            " exceeds the host's " +
            std::to_string(SweepEngine::hardwareJobs()) + " threads");
    }

    vip::Json report = vip::Json::object();
    vip::Json th = vip::Json::object();
    th.set("jobs", 1);
    th.set("islands", islands);
    th.set("total", threads);
    report.set("threads", std::move(th));

    // Cross-check first: every point through its bench/common helper.
    // It also warms the allocator and page tables before timing.
    vip::Json helpers = vip::Json::object();
    vip::Json gaps = vip::Json::object();
    for (const PointDef &def : w.points) {
        if (!def.helper) {
            gaps.set(def.name, def.helperGap);
            continue;
        }
        vip::Json h = vip::Json::object();
        try {
            const SliceResult s = def.helper();
            h.set("cycles", static_cast<std::uint64_t>(s.cycles));
            h.set("dram_bytes", s.dramBytes);
            h.set("work_items", s.workItems);
        } catch (const std::exception &e) {
            h.set("error", std::string(e.what()));
        }
        helpers.set(def.name, std::move(h));
    }
    report.set("helpers", std::move(helpers));
    report.set("helper_gaps", std::move(gaps));

    // Timed passes. A traced run alternates recorded and unrecorded
    // passes so the report carries its own tracing overhead.
    Tracer t(opts.trace);
    vip::Json passes = vip::Json::array();
    std::vector<PointRecord> first;
    const double start = t.now();
    unsigned n = 0;
    while (n < w.minPasses || t.now() - start < opts.seconds) {
        Tracer pt(opts.trace && n % 2 == 0);
        Pass p = runPass(w, pt, opts.seed, 1);
        passes.push(passJson(p, n == 0));
        if (n == 0)
            first = std::move(p.points);
        ++n;
    }
    report.set("passes", std::move(passes));

    // Headline: the headline points' simulated ms, scaled (pass 0;
    // every pass simulates the same).
    double headline_ms = 0;
    for (std::size_t i = 0; i < w.points.size(); ++i) {
        if (w.points[i].headline) {
            headline_ms += w.points[i].headline(
                cyclesToMs(first[i].cycles),
                static_cast<double>(first[i].workItems));
        }
    }
    vip::Json hl = vip::Json::object();
    hl.set("what", w.headline);
    hl.set("simulated_ms", headline_ms);
    hl.set("paper_ms", w.paperMs);
    report.set("headline", std::move(hl));

    // Island speedup (traced runs): the FC points at kSpeedupIslands
    // and at one island, alternating so drift hits both alike.
    if (!fc.points.empty()) {
        vip::Json multi = vip::Json::array();
        vip::Json serial = vip::Json::array();
        for (unsigned k = 0; k < 3; ++k) {
            Tracer mt(false);
            multi.push(passJson(runPass(fc, mt, opts.seed, islands), false));
            Tracer st(false);
            serial.push(passJson(runPass(fc, st, opts.seed, 1), false));
        }
        report.set("island_passes", std::move(multi));
        report.set("serial_passes", std::move(serial));
    }

    report.set("peak_rss_kb", selfPeakRssKb());
    return report;
}

} // namespace perfbench
