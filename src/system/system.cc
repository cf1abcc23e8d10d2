#include "system/system.hh"

#include <sstream>

#include "sim/error.hh"
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
    // Divided out factor by factor, so no product can overflow.
    require(g.rowsPerBank <= DramStorage::kSpanBytes / g.rowBytes /
                                 g.banksPerVault / g.vaults,
            "mem.geom: capacity (vaults x banksPerVault x rowsPerBank x "
            "rowBytes) exceeds the " +
                std::to_string(DramStorage::kSpanBytes >> 30) +
                " GiB the DRAM store can address");

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

    const unsigned num_pes = cfg_.mem.geom.vaults * cfg_.pesPerVault;
    pes_.reserve(num_pes);
    for (unsigned id = 0; id < num_pes; ++id) {
        PeConfig pe_cfg = cfg_.pe;
        pe_cfg.peId = id;
        pe_cfg.vault = id / cfg_.pesPerVault;
        pe_cfg.fastForward = cfg_.fastForward;
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
    for (unsigned i = 0; i < cfg_.islands; ++i)
        if (!islandReport(i, now_).idle)
            return false;
    return true;
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
