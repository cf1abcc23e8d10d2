/**
 * @file
 * VipSystem: the complete simulated machine (Fig. 1).
 *
 * 32 HMC vaults in an 8x4 grid connected by a 2D torus, four PEs per
 * vault attached to the vault router in a star, and a global 1.25 GHz
 * clock. The system owns the request/response plumbing: a PE's memory
 * transaction travels to its home vault over the NoC (injection port,
 * torus hops if remote, ejection port), queues at the vault, is
 * serviced by the DRAM model, and a response travels back before the
 * PE observes completion.
 *
 * Every run goes through the island scheduler (sim/island.hh). With
 * cfg.islands > 1 it shards across host threads: the machine is cut
 * into islands of NoC columns (system/partition.hh), each island's
 * components tick on their own thread in conservative quanta, and
 * per-island state merges in fixed island order after the join —
 * producing bit-identical results to islands == 1, which is the same
 * scheduler with one island on the calling thread (see
 * docs/INTERNALS.md "Island partitioning & conservative quanta").
 */

#ifndef VIP_SYSTEM_SYSTEM_HH
#define VIP_SYSTEM_SYSTEM_HH

#include <atomic>
#include <deque>
#include <memory>
#include <vector>

#include "mem/hmc.hh"
#include "noc/torus.hh"
#include "pe/pe.hh"
#include "sim/clocked.hh"
#include "sim/fault.hh"
#include "sim/stats.hh"
#include "system/partition.hh"

namespace vip {

class CancelToken;
class Json;

/** Full-machine configuration (defaults = the paper's system). */
struct SystemConfig
{
    MemConfig mem;
    unsigned pesPerVault = 4;
    unsigned nocX = 8;
    unsigned nocY = 4;

    /** Template for every PE (id/vault fields are filled per PE). */
    PeConfig pe;

    /** Give up if the machine makes no progress for this many cycles. */
    Cycles watchdogCycles = 2'000'000;

    /**
     * Warp over cycles in which no component can change state (see
     * sim/clocked.hh). Exact by construction — every statistic and
     * every byte of architectural state matches a cycle-by-cycle run —
     * but can be disabled (--no-fast-forward) to test exactly that.
     */
    bool fastForward = true;

    /**
     * Host threads one run may use: the machine is cut into this many
     * islands of NoC columns that tick concurrently (see file
     * comment). Must divide nocX. 1 (the default) runs on the calling
     * thread and is byte-identical to every other value — islands
     * changes host time, never the simulation — so it is a host knob
     * like fastForward, not part of the machine being modelled.
     */
    unsigned islands = 1;

    /**
     * Replay each PE's decoded-µop stream and execute stall-free basic
     * blocks functionally in bulk (pe/decode.hh). Bit-identical to the
     * per-cycle interpreter — a host knob like fastForward and islands
     * — and false (--no-fast-path) keeps the interpreter as the
     * oracle. Omitted from the JSON wire form when true, so existing
     * RunSpec fingerprints are unchanged.
     */
    bool fastPath = true;

    /** Fault-injection campaign; disabled (and costless) by default. */
    FaultPlan faults;

    /**
     * The wire form: every knob above as a JSON object (nested
     * "mem"/"pe" sections mirroring the struct layout; the fault
     * plan as its canonical spec string under "faults", omitted when
     * injection is disabled; "islands" likewise omitted when 1, so
     * pre-island RunSpec fingerprints are unchanged).
     * fromJson(toJson(cfg)) reproduces the config exactly.
     */
    Json toJson() const;

    /**
     * Decode a config, starting from defaults: absent keys keep their
     * default, so a request only has to name what it changes. When
     * "mem.geom.vaults" is given without "nocX"/"nocY" the NoC grid
     * is derived with nocDimsFor(). Unknown keys anywhere in the
     * object throw ConfigError naming the offending key — a typo'd
     * knob must not silently fall back to the default. Does not
     * validate the result; VipSystem's constructor does.
     */
    static SystemConfig fromJson(const Json &j);
};

/**
 * Reject configurations that would wedge, corrupt, or UB downstream,
 * with messages naming the offending parameter. Throws ConfigError.
 * VipSystem's constructor calls this before building anything.
 */
void validateSystemConfig(const SystemConfig &cfg);

class VipSystem
{
  public:
    explicit VipSystem(const SystemConfig &cfg);

    unsigned numPes() const { return static_cast<unsigned>(pes_.size()); }
    Pe &pe(unsigned id) { return *pes_.at(id); }
    const Pe &pe(unsigned id) const { return *pes_.at(id); }

    /** The vault a PE sits in. */
    unsigned
    vaultOf(unsigned pe_id) const
    {
        return pe_id / cfg_.pesPerVault;
    }

    HmcStack &hmc() { return hmc_; }
    const HmcStack &hmc() const { return hmc_; }
    DramStorage &dram() { return hmc_.storage(); }
    const DramStorage &dram() const { return hmc_.storage(); }
    TorusNoc &noc() { return noc_; }
    const SystemConfig &config() const { return cfg_; }

    /** The machine's island cut (islands == 1: one island, all nodes). */
    const IslandPartition &partition() const { return partition_; }

    /** Start address of vault @p v's local DRAM region. */
    Addr
    vaultBase(unsigned v) const
    {
        return hmc_.mapper().vaultBase(v);
    }

    /**
     * Run until every PE is idle (halted, no outstanding memory) and
     * the memory system has drained, or @p max_cycles elapse.
     * @return total cycles simulated so far.
     *
     * There is one run loop, the island scheduler, for any island
     * count. With cfg.islands == 1 it runs one island on the calling
     * host thread: nothing in the machine is synchronized, so
     * concurrent run() calls on the same instance are a caller bug
     * (parallel sweeps must build one system per job — see
     * sim/sweep.hh). run() asserts this. With islands > 1 the run
     * *internally* spawns islands - 1 worker threads, but the
     * confinement contract for callers is unchanged: one run() at a
     * time, and the per-island state is thread-confined to each
     * island's thread between barriers.
     *
     * The watchdog (no progress for cfg.watchdogCycles) throws
     * DeadlockError at the same cycle for any island count and
     * fast-forward setting. @p cancel, when given, is polled
     * cooperatively every kCancelPollCycles simulated cycles: a
     * tripped token stops the run at that boundary and throws
     * CancelledError / TimeoutError (sim/cancel.hh). The machine is
     * left mid-flight but destructible; the run's partial results are
     * discarded.
     */
    Cycles run(Cycles max_cycles = 0,
               const CancelToken *cancel = nullptr);

    Cycles now() const { return now_; }

    bool allIdle() const;

    /**
     * What the event-horizon fast-forward skipped so far. With
     * islands > 1 the numbers aggregate per-island horizons (an island
     * warping 100 cycles counts 100 regardless of what the others
     * did), so they measure work saved, not wall-clock cycles.
     */
    const FastForwardStats &fastForwardStats() const { return ff_; }

    StatGroup &stats() { return statGroup_; }

    /** The fault injector, or null when injection is disabled. */
    FaultInjector *faultInjector() { return injector_.get(); }
    const FaultInjector *faultInjector() const { return injector_.get(); }

    /**
     * Snapshot of the machine's stuck state, formatted for humans: the
     * non-idle PEs (PC, current instruction, stall reason, LSQ
     * occupancy), backed-up vaults (queued transactions, parked
     * ingress requests, next completion), and NoC in-flight count.
     * run() attaches this to the DeadlockError its watchdog throws.
     */
    std::string deadlockDiagnosis() const;

    /** Total vector ALU operations across all PEs. */
    std::uint64_t totalVectorOps() const;

    /** Achieved compute throughput in GOp/s over the interval. */
    double achievedGops() const;

    /** Achieved DRAM bandwidth in GB/s over the interval. */
    double achievedBandwidthGBs() const;

  private:
    void routeRequest(std::unique_ptr<MemRequest> req, unsigned src_vault);
    void deliverToVault(unsigned vault, std::unique_ptr<MemRequest> req);
    void onVaultComplete(unsigned vault, std::unique_ptr<MemRequest> req);

    /** Drain vault @p v's parked ingress queue into freed slots. */
    void drainIngress(unsigned v);

    // ---- the run loop's island hooks (sim/island.hh) ----------------
    void tickIsland(unsigned island, Cycles now);
    bool islandIdle(unsigned island) const;
    Cycles islandNextEventAt(unsigned island, Cycles now) const;
    std::uint64_t islandProgress(unsigned island) const;
    void fastForwardIsland(unsigned island, Cycles from, Cycles to);
    void catchUpIsland(unsigned island, Cycles until);

    /**
     * The current cycle as seen by @p vault's island: the per-island
     * tick cursor. Request/response routing runs on island threads
     * and must timestamp packets with *its* island's time.
     */
    Cycles
    localNow(unsigned vault) const
    {
        return islandNow_[partition_.islandOf(vault)].v;
    }

    SystemConfig cfg_;
    StatGroup statGroup_;
    HmcStack hmc_;
    TorusNoc noc_;
    std::vector<std::unique_ptr<Pe>> pes_;
    std::unique_ptr<FaultInjector> injector_;

    /** The island cut (a single all-nodes island when islands == 1). */
    IslandPartition partition_;

    /** Requests that reached their vault but found its queue full.
     *  Per-vault, hence island-confined like the vaults themselves. */
    std::vector<std::deque<std::unique_ptr<MemRequest>>> ingress_;

    FastForwardStats ff_;

    /** Per-island fast-forward tallies, merged into ff_ (in island
     *  order) after the threads join. */
    std::vector<FastForwardStats> ffIsland_;

    /** Per-island tick cursors for localNow(); cache-line padded —
     *  each island's thread rewrites its own entry every tick. */
    struct alignas(64) PaddedCycles
    {
        Cycles v = 0;
    };
    std::vector<PaddedCycles> islandNow_;

    Cycles now_ = 0;

    /** Runtime check of the one-run-at-a-time invariant (see run()):
     *  the machine's state is confined (per thread, or per island
     *  between barriers), not synchronized, so concurrent entry is a
     *  caller bug, caught here instead of as a silent race. TSan
     *  builds (-DVIP_SANITIZE=thread) verify the confinement holds in
     *  the sweep, serve, and island paths. */
    std::atomic<bool> running_{false};
};

} // namespace vip

#endif // VIP_SYSTEM_SYSTEM_HH
