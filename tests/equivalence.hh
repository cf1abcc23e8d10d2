/**
 * @file
 * The knob matrix: run one workload at every valid combination of the
 * host-execution knobs — fastForward x islands {1, 2, 4} — and
 * require each to match the oracle (fast-forward off, which also
 * interprets every instruction, on one island) in every deterministic
 * observable: the final cycle count, the full RunResult JSON (the
 * complete stats tree and, under a fault plan, the fault counters) and
 * the DRAM fingerprint — or, for a run that raises a SimError, the
 * error's kind and message. Shared by equivalence_test (the workload
 * table) and property_test (the differential fuzzer over random
 * programs).
 */

#ifndef VIP_TESTS_EQUIVALENCE_HH
#define VIP_TESTS_EQUIVALENCE_HH

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "sim/error.hh"
#include "sim/json.hh"
#include "system/simulation.hh"

namespace vip {

/** One combination of the host-execution knobs. */
struct Knobs
{
    bool fastForward = false;
    unsigned islands = 1;
};

inline std::string
describe(const Knobs &k)
{
    return std::string("fastForward=") + (k.fastForward ? "on" : "off") +
           " islands=" + std::to_string(k.islands);
}

/** What one run at one knob combination left behind. */
struct Observed
{
    Knobs knobs;
    /** "<kind>: <message>" of the SimError the final run raised, else
     *  empty. A failed run records nothing else: its islands stop at
     *  different cycles, so only the error itself is deterministic. */
    std::string error;
    Cycles cycles = 0;
    std::string resultJson;  ///< RunResult::toJson of the final run
    std::uint64_t dramDigest = 0;
    FaultStats faults;
    bool halted = false;
    std::uint64_t instructions = 0;  ///< committed, summed over PEs
    // Host-side counters: how the result was computed, not what it is.
    Cycles skipped = 0;
    std::uint64_t warps = 0;
    std::uint64_t blockRuns = 0;
    std::uint64_t fastUops = 0;
};

/** Stages DRAM, loads programs and may run earlier phases; the matrix
 *  runs the final phase. Called once per knob combination. */
using Drive = std::function<void(Simulation &)>;

/** A row's own assertion on one combination's finished machine. */
using Check = std::function<void(Simulation &, const Observed &)>;

/** Build @p cfg at knobs @p k, run @p drive and then the final phase
 *  under @p budget, and record what the run left; @p check (if any)
 *  sees the finished machine. */
inline Observed
observe(SystemConfig cfg, const Knobs &k, const Drive &drive,
        Cycles budget, const Check &check = {})
{
    cfg.fastForward = k.fastForward;
    cfg.islands = k.islands;
    Simulation sim(cfg);
    drive(sim);
    Observed o;
    o.knobs = k;
    RunResult r;
    try {
        r = sim.run(budget);
    } catch (const SimError &e) {
        o.error = e.kind() + ": " + e.message();
        if (check)
            check(sim, o);
        return o;
    }
    o.cycles = r.cycles;
    o.resultJson = r.toJson().str();
    o.dramDigest = sim.system().dram().fingerprint();
    o.faults = r.faults;
    o.halted = r.haltedCleanly;
    for (unsigned pe = 0; pe < sim.system().numPes(); ++pe)
        o.instructions += sim.system().pe(pe).stats().instructions.value();
    o.skipped = sim.system().fastForwardStats().skippedCycles;
    o.warps = sim.system().fastForwardStats().warps;
    auto fastpath = [&r](const char *name) -> std::uint64_t {
        const auto it = r.fastpath.find(name);
        return it == r.fastpath.end() ? 0 : it->second;
    };
    o.blockRuns = fastpath("block_runs");
    o.fastUops = fastpath("fast_uops");
    if (check)
        check(sim, o);
    return o;
}

/** Every valid knob combination for @p cfg, the oracle first. An
 *  island count must divide the torus width (system/partition.hh). */
inline std::vector<Knobs>
knobProduct(const SystemConfig &cfg)
{
    std::vector<Knobs> out;
    for (const unsigned islands : {1u, 2u, 4u}) {
        if (cfg.nocX % islands != 0)
            continue;
        for (const bool ff : {false, true})
            out.push_back({ff, islands});
    }
    return out;
}

/**
 * Run @p drive at every combination of knobProduct(@p cfg) and require
 * each to halt (or raise an error) and match the oracle. Also holds
 * the per-knob invariant: fast-forward off never warps and never
 * replays decoded µops. Runs @p check at every combination; returns
 * the oracle.
 */
inline Observed
expectMatchesOracle(const SystemConfig &cfg, const Drive &drive,
                    Cycles budget, const Check &check = {})
{
    Observed oracle;
    bool first = true;
    for (const Knobs &k : knobProduct(cfg)) {
        SCOPED_TRACE(describe(k));
        const Observed o = observe(cfg, k, drive, budget, check);
        EXPECT_TRUE(o.halted || !o.error.empty());
        if (!k.fastForward) {
            EXPECT_EQ(o.skipped, 0u);
            EXPECT_EQ(o.warps, 0u);
            EXPECT_EQ(o.blockRuns, 0u);
            EXPECT_EQ(o.fastUops, 0u);
        }
        if (first) {
            oracle = o;
            first = false;
            continue;
        }
        EXPECT_EQ(o.error, oracle.error);
        EXPECT_EQ(o.cycles, oracle.cycles);
        EXPECT_EQ(o.resultJson, oracle.resultJson);
        EXPECT_EQ(o.dramDigest, oracle.dramDigest);
    }
    return oracle;
}

} // namespace vip

#endif // VIP_TESTS_EQUIVALENCE_HH
