#include "system/system.hh"

#include <sstream>

#include "sim/cancel.hh"
#include "sim/error.hh"
#include "sim/island.hh"
#include "sim/logging.hh"

namespace vip {

namespace {

void
require(bool ok, const std::string &message)
{
    if (!ok)
        throw ConfigError(message);
}

bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Validation gate for the constructor's init list: members (the NoC,
 *  the vaults) must never see a bad config, even transiently. */
const SystemConfig &
validated(const SystemConfig &cfg)
{
    validateSystemConfig(cfg);
    return cfg;
}

/**
 * Park a request inside the packet that carries it: the packet — not
 * a side table indexed by a slot captured in onArrive — owns the
 * descriptor while it is in flight. This keeps teardown leak-free
 * when the machine is destroyed with packets still in flight (a
 * deadlock throw or an expired cycle budget), and it is what lets a
 * packet cross island threads: ownership travels with the packet, so
 * the request needs no shared table and no lock (the pre-island slot
 * table would have been cross-thread state).
 */
PacketPayload
parkRequest(std::unique_ptr<MemRequest> req)
{
    return PacketPayload(req.release(), +[](void *p) {
        delete static_cast<MemRequest *>(p);
    });
}

std::unique_ptr<MemRequest>
unparkRequest(PacketPayload &payload)
{
    return std::unique_ptr<MemRequest>(
        static_cast<MemRequest *>(payload.release()));
}

} // namespace

void
validateSystemConfig(const SystemConfig &cfg)
{
    const DramGeometry &g = cfg.mem.geom;
    require(isPowerOfTwo(g.vaults),
            "mem.geom.vaults = " + std::to_string(g.vaults) +
                "; must be a nonzero power of two so vault index bits "
                "split cleanly out of the address");
    require(g.banksPerVault > 0 && g.rowsPerBank > 0,
            "mem.geom: banksPerVault and rowsPerBank must be nonzero");
    require(g.rowBytes > 0 && g.colBytes > 0 &&
                g.colBytes <= g.rowBytes &&
                g.rowBytes % g.colBytes == 0,
            "mem.geom: need 0 < colBytes <= rowBytes with colBytes "
            "dividing rowBytes (got rowBytes=" +
                std::to_string(g.rowBytes) +
                ", colBytes=" + std::to_string(g.colBytes) + ")");

    const DramTiming &t = cfg.mem.timing;
    require(t.tCL > 0 && t.tRCD > 0 && t.tRP > 0 && t.tRAS > 0 &&
                t.tWR > 0 && t.tCCD > 0 && t.tBurst > 0 && t.tRFC > 0 &&
                t.tREFI > 0,
            "mem.timing: every DRAM timing parameter must be nonzero");
    require(t.tREFI > t.tRFC,
            "mem.timing: tREFI (" + std::to_string(t.tREFI) +
                ") must exceed tRFC (" + std::to_string(t.tRFC) +
                ") or the vault never leaves refresh");

    require(cfg.mem.cmdQueueDepth > 0 && cfg.mem.transQueueDepth > 0,
            "mem: cmdQueueDepth and transQueueDepth must be nonzero");

    require(cfg.nocX > 0 && cfg.nocY > 0 &&
                cfg.nocX * cfg.nocY == g.vaults,
            "NoC grid " + std::to_string(cfg.nocX) + "x" +
                std::to_string(cfg.nocY) + " does not match " +
                std::to_string(g.vaults) +
                " vaults (use makeSystemConfig() or set nocX*nocY to "
                "the vault count)");

    validateIslandCount(cfg.islands, cfg.nocX);

    require(cfg.pesPerVault >= 1 &&
                cfg.pesPerVault <= TorusNoc::kLanes - 1,
            "pesPerVault = " + std::to_string(cfg.pesPerVault) +
                "; each vault router has " +
                std::to_string(TorusNoc::kLanes - 1) +
                " PE star lanes");

    require(cfg.pe.lsqEntries > 0, "pe.lsqEntries must be nonzero");
    require(cfg.pe.arcEntries > 0, "pe.arcEntries must be nonzero");
    require(cfg.pe.mulStages >= 1 && cfg.pe.aluStages >= 1 &&
                cfg.pe.reduceStages >= 1,
            "pe: pipeline depths (mulStages/aluStages/reduceStages) "
            "must be at least 1");

    require(cfg.watchdogCycles > 0,
            "watchdogCycles must be nonzero (it bounds deadlock "
            "detection latency)");

    cfg.faults.validate();
}

VipSystem::VipSystem(const SystemConfig &cfg)
    : cfg_(validated(cfg)), statGroup_("system"),
      hmc_(cfg.mem, &statGroup_), noc_(cfg.nocX, cfg.nocY, &statGroup_),
      partition_(IslandPartition::make(cfg.islands, cfg.nocX, cfg.nocY)),
      ingress_(cfg.mem.geom.vaults)
{
    if (cfg_.islands > 1)
        noc_.setPartition(partition_.islandOfNode, cfg_.islands);
    islandNow_.resize(cfg_.islands);
    ffIsland_.resize(cfg_.islands);

    const unsigned num_pes = cfg_.mem.geom.vaults * cfg_.pesPerVault;
    pes_.reserve(num_pes);
    for (unsigned id = 0; id < num_pes; ++id) {
        PeConfig pe_cfg = cfg_.pe;
        pe_cfg.peId = id;
        pe_cfg.vault = id / cfg_.pesPerVault;
        pe_cfg.fastPath = cfg_.fastPath;
        // Half the watchdog period bounds a bulk charge, so a progress
        // bump always lands inside every watchdog window and a
        // natively-executed mega-loop can't be mistaken for a hang.
        pe_cfg.fastPathChunk =
            std::min<Cycles>(pe_cfg.fastPathChunk,
                             std::max<Cycles>(1, cfg_.watchdogCycles / 2));
        const unsigned src_vault = pe_cfg.vault;
        pes_.push_back(std::make_unique<Pe>(
            pe_cfg, hmc_.storage(), hmc_.mapper(),
            [this, src_vault](std::unique_ptr<MemRequest> req) {
                routeRequest(std::move(req), src_vault);
            },
            &statGroup_));
    }

    for (unsigned v = 0; v < cfg_.mem.geom.vaults; ++v) {
        hmc_.vault(v).setCompletionHandler(
            [this, v](std::unique_ptr<MemRequest> req) {
                onVaultComplete(v, std::move(req));
            });
    }

    // Wake gating rides on fast-forward: --no-fast-forward keeps the
    // tick-everything oracle (sim/clocked.hh).
    for (unsigned v = 0; v < cfg_.mem.geom.vaults; ++v)
        hmc_.vault(v).setWakeGate(cfg_.fastForward);
    for (auto &pe : pes_)
        pe->setWakeGate(cfg_.fastForward);

    if (cfg_.faults.enabled) {
        injector_ = std::make_unique<FaultInjector>(cfg_.faults);
        injector_->bindStorage([this](Addr addr, unsigned bit) {
            DramStorage &storage = hmc_.storage();
            const auto byte = storage.load<std::uint8_t>(addr);
            storage.store<std::uint8_t>(
                addr, byte ^ static_cast<std::uint8_t>(1u << bit));
        });
        noc_.setFaultInjector(injector_.get());
        for (unsigned v = 0; v < cfg_.mem.geom.vaults; ++v)
            hmc_.vault(v).setFaultInjector(injector_.get());
        for (auto &pe : pes_)
            pe->setFaultInjector(injector_.get());
    }
}

void
VipSystem::routeRequest(std::unique_ptr<MemRequest> req, unsigned src_vault)
{
    const unsigned home = hmc_.homeVault(req->addr);
    Packet pkt;
    pkt.src = src_vault;
    pkt.dst = home;
    pkt.srcLane = req->sourcePe % cfg_.pesPerVault;  // the PE's star link
    pkt.dstLane = TorusNoc::kLanes - 1;              // vault controller
    // A write carries its data; a read request is command-only (the
    // 8-byte NoC header covers the address/command fields).
    pkt.payloadBytes = req->isWrite ? req->bytes : 0;
    pkt.payload = parkRequest(std::move(req));
    // Runs on the *destination* island's thread; everything it touches
    // (the packet, the home vault, its ingress queue) lives there.
    pkt.onArrive = [this](Packet &p) {
        deliverToVault(p.dst, unparkRequest(p.payload));
    };
    noc_.send(std::move(pkt), localNow(src_vault));
}

void
VipSystem::deliverToVault(unsigned vault, std::unique_ptr<MemRequest> req)
{
    // Preserve arrival order: drain behind anything already parked.
    if (ingress_[vault].empty() && hmc_.vault(vault).canAccept()) {
        const bool ok = hmc_.vault(vault).enqueue(std::move(req));
        vip_assert(ok, "vault rejected a request it could accept");
        return;
    }
    ingress_[vault].push_back(std::move(req));
}

void
VipSystem::onVaultComplete(unsigned vault, std::unique_ptr<MemRequest> req)
{
    Packet pkt;
    pkt.src = vault;
    pkt.dst = vaultOf(req->sourcePe);
    pkt.srcLane = TorusNoc::kLanes - 1;
    pkt.dstLane = req->sourcePe % cfg_.pesPerVault;
    pkt.payloadBytes = req->isWrite ? 0 : req->bytes;
    pkt.payload = parkRequest(std::move(req));
    // Runs on the issuing PE's island thread (the response's dst is
    // the PE's own vault router), so the completion callback and the
    // per-PE request pool stay island-confined.
    pkt.onArrive = [](Packet &p) {
        std::unique_ptr<MemRequest> owned = unparkRequest(p.payload);
        owned->completedAt = p.deliveredAt;
        if (owned->onComplete)
            owned->onComplete(*owned);
        // The issuer is done with the descriptor; recycle pooled ones.
        if (owned->pool)
            owned->pool->release(std::move(owned));
    };
    noc_.send(std::move(pkt), localNow(vault));
}

void
VipSystem::drainIngress(unsigned v)
{
    while (!ingress_[v].empty() && hmc_.vault(v).canAccept()) {
        const bool ok =
            hmc_.vault(v).enqueue(std::move(ingress_[v].front()));
        vip_assert(ok, "vault rejected a request it could accept");
        ingress_[v].pop_front();
    }
}

bool
VipSystem::allIdle() const
{
    for (const auto &pe : pes_) {
        if (!pe->idle())
            return false;
    }
    for (const auto &q : ingress_) {
        if (!q.empty())
            return false;
    }
    return hmc_.idle() && noc_.idle();
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
    // The fast path must not charge a block past the budget: a run cut
    // mid-loop has to leave the same architectural state as a
    // cycle-by-cycle run would (the partial block re-executes per-µop).
    for (auto &pe : pes_)
        pe->setRunDeadline(deadline);

    const unsigned n = cfg_.islands;
    for (unsigned i = 0; i < n; ++i) {
        islandNow_[i].v = now_;
        ffIsland_[i].reset();
    }

    IslandHooks hooks;
    hooks.tick = [this](unsigned i, Cycles now) { tickIsland(i, now); };
    hooks.idle = [this](unsigned i) { return islandIdle(i); };
    hooks.nextEventAt = [this](unsigned i, Cycles now) {
        return islandNextEventAt(i, now);
    };
    hooks.drainInboxes = [this](unsigned i) {
        return noc_.drainInboxes(i);
    };
    hooks.progress = [this](unsigned i) { return islandProgress(i); };
    hooks.fastForward = [this](unsigned i, Cycles from, Cycles to) {
        fastForwardIsland(i, from, to);
    };
    hooks.catchUp = [this](unsigned i, Cycles until) {
        catchUpIsland(i, until);
    };

    IslandScheduler::Options opt;
    // The conservative quantum: a cross-island packet sent at cycle t
    // is next visible at t + kHopLatency + serialization (>= 1 cycle
    // for the 8-byte header), so within kHopLatency + 1 cycles no
    // island can affect another and quantum-boundary mail exchange
    // loses nothing. One island has no cross-island packets.
    opt.quantum = n > 1 ? TorusNoc::kHopLatency + 1 : kIdleForever;
    opt.watchdogCycles = cfg_.watchdogCycles;
    opt.fastForward = cfg_.fastForward;
    opt.cancel = cancel;

    IslandScheduler sched(n, std::move(hooks), opt);
    IslandScheduler::Outcome out;
    try {
        out = sched.run(now_, deadline);
    } catch (...) {
        noc_.flushIslandStats();
        running_.store(false, std::memory_order_release);
        throw;
    }

    now_ = out.finalCycle;
    // Merge layer: fold per-island state into the shared aggregates in
    // fixed island order, after the threads have joined.
    for (unsigned i = 0; i < n; ++i) {
        ff_.skippedCycles += ffIsland_[i].skippedCycles;
        ff_.warps += ffIsland_[i].warps;
    }
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
        vip_assert(cancel, "scheduler stopped on a token it was "
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

void
VipSystem::tickIsland(unsigned island, Cycles now)
{
    // The machine's tick order, restricted to one island's nodes:
    // network deliveries first (they may complete PE transactions and
    // park requests at full vaults), then the vault controllers, then
    // the ingress drains (a completion this cycle frees a slot this
    // cycle), then the PE front ends.
    islandNow_[island].v = now;
    noc_.tickIsland(island, now);
    const std::vector<unsigned> &nodes = partition_.nodesOf[island];
    for (const unsigned v : nodes)
        hmc_.vault(v).tick(now);
    for (const unsigned v : nodes)
        drainIngress(v);
    for (const unsigned v : nodes) {
        const unsigned base = v * cfg_.pesPerVault;
        for (unsigned k = 0; k < cfg_.pesPerVault; ++k)
            pes_[base + k]->tick(now);
    }
}

bool
VipSystem::islandIdle(unsigned island) const
{
    for (const unsigned v : partition_.nodesOf[island]) {
        if (!ingress_[v].empty() || !hmc_.vault(v).idle())
            return false;
        const unsigned base = v * cfg_.pesPerVault;
        for (unsigned k = 0; k < cfg_.pesPerVault; ++k)
            if (!pes_[base + k]->idle())
                return false;
    }
    return noc_.islandIdle(island);
}

Cycles
VipSystem::islandNextEventAt(unsigned island, Cycles now) const
{
    Cycles next = noc_.islandNextEventAt(island, now);
    for (const unsigned v : partition_.nodesOf[island]) {
        if (next <= now)
            return now;
        // Vault nextEventAt includes its refresh deadline, which is
        // what clamps island-local warps so refreshes fire on time.
        next = std::min(next, hmc_.vault(v).nextEventAt(now));
        // A parked request drains when its vault frees a slot, and
        // slots free only when a transaction completes.
        if (!ingress_[v].empty())
            next = std::min(next, hmc_.vault(v).nextCompletionAt());
        const unsigned base = v * cfg_.pesPerVault;
        for (unsigned k = 0; k < cfg_.pesPerVault; ++k)
            next = std::min(next, pes_[base + k]->nextEventAt(now));
    }
    return std::max(next, now);
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
    ffIsland_[island].skippedCycles += to - from;
    ffIsland_[island].warps += 1;
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

std::string
VipSystem::deadlockDiagnosis() const
{
    // Keep reports readable on the full 128-PE machine: list the
    // first few stuck components per class and summarize the rest.
    constexpr unsigned kMaxLines = 16;

    std::ostringstream os;
    os << "no progress for " << cfg_.watchdogCycles
       << " cycles; machine state at cycle " << now_ << ":";

    unsigned stuck = 0, shown = 0;
    for (unsigned i = 0; i < numPes(); ++i) {
        const Pe &pe = *pes_[i];
        if (pe.idle())
            continue;
        ++stuck;
        if (shown >= kMaxLines)
            continue;
        ++shown;
        os << "\n  pe" << i << " (vault " << vaultOf(i)
           << "): pc=" << pe.pc();
        if (const Instruction *inst = pe.currentInstruction())
            os << " '" << disassemble(*inst) << "'";
        os << " stall=" << pe.stallReason()
           << " lsq=" << pe.lsqOutstanding();
    }
    if (stuck > shown)
        os << "\n  ... and " << stuck - shown << " more stuck PEs";

    stuck = shown = 0;
    for (unsigned v = 0; v < hmc_.numVaults(); ++v) {
        const unsigned queued = hmc_.vault(v).pendingTransactions();
        const std::size_t parked = ingress_[v].size();
        if (queued == 0 && parked == 0)
            continue;
        ++stuck;
        if (shown >= kMaxLines)
            continue;
        ++shown;
        os << "\n  vault" << v << ": queued=" << queued
           << " ingress=" << parked;
        const Cycles at = hmc_.vault(v).nextCompletionAt();
        if (at != kIdleForever)
            os << " nextCompletionAt=" << at;
    }
    if (stuck > shown)
        os << "\n  ... and " << stuck - shown << " more busy vaults";

    os << "\n  noc: in-flight=" << noc_.inFlight()
       << " delivered=" << noc_.delivered();
    if (injector_) {
        const FaultStats f = injector_->stats();
        os << "\n  faults: nocDropped=" << f.nocDropped
           << " nocCorrupted=" << f.nocCorrupted
           << " retransmits=" << f.nocRetransmits;
        // Sorted view, so the diagnosis is byte-stable run to run.
        const auto flips = injector_->outstandingFlips();
        if (!flips.empty()) {
            os << "\n  outstanding flips:";
            constexpr std::size_t kMaxFlips = 8;
            for (std::size_t i = 0;
                 i < flips.size() && i < kMaxFlips; ++i) {
                os << " 0x" << std::hex << flips[i].first << ":"
                   << flips[i].second << std::dec;
            }
            if (flips.size() > kMaxFlips)
                os << " ... and " << flips.size() - kMaxFlips << " more";
        }
    }
    return os.str();
}

double
VipSystem::achievedBandwidthGBs() const
{
    if (now_ == 0)
        return 0.0;
    const double seconds = static_cast<double>(now_) * kSecondsPerCycle;
    return static_cast<double>(hmc_.totalBytesMoved()) / seconds / 1e9;
}

std::uint64_t
VipSystem::totalVectorOps() const
{
    std::uint64_t total = 0;
    for (const auto &pe : pes_)
        total += pe->vectorOps();
    return total;
}

double
VipSystem::achievedGops() const
{
    if (now_ == 0)
        return 0.0;
    const double seconds = static_cast<double>(now_) * kSecondsPerCycle;
    return static_cast<double>(totalVectorOps()) / seconds / 1e9;
}

} // namespace vip
