#include "mem/vault.hh"

#include <algorithm>

#include "sim/fault.hh"
#include "sim/logging.hh"

namespace vip {

VaultController::VaultController(unsigned vaultId, const MemConfig &cfg,
                                 const AddressMapper &mapper,
                                 StatGroup *parent)
    : vaultId_(vaultId), cfg_(cfg), mapper_(mapper),
      banks_(cfg.geom.banksPerVault),
      cand_(cfg.geom.banksPerVault),
      trans_(cfg.transQueueDepth),
      nextRefreshAt_(cfg.timing.tREFI),
      statGroup_("vault" + std::to_string(vaultId), parent),
      stats_{Counter(&statGroup_, "read_bytes", "bytes read from DRAM"),
             Counter(&statGroup_, "write_bytes", "bytes written to DRAM"),
             Counter(&statGroup_, "row_hits", "column accesses to open row"),
             Counter(&statGroup_, "row_misses",
                     "activates with bank precharged"),
             Counter(&statGroup_, "row_conflicts",
                     "precharges forced by a different open row"),
             Counter(&statGroup_, "refreshes", "refresh commands issued"),
             Counter(&statGroup_, "col_commands", "RD/WR commands issued"),
             Counter(&statGroup_, "req_count", "transactions completed"),
             Counter(&statGroup_, "req_latency_total",
                     "sum of transaction latencies (cycles)")}
{
    // Stacked descending so the next slot handed out is the lowest
    // index, matching the original linear free-slot search.
    freeSlots_.reserve(cfg.transQueueDepth);
    for (std::size_t i = cfg.transQueueDepth; i-- > 0;)
        freeSlots_.push_back(i);
}

bool
VaultController::enqueue(std::unique_ptr<MemRequest> req)
{
    if (freeSlots_.empty())
        return false;

    vip_assert(req->bytes > 0, "zero-length memory request");

    const std::size_t slot = freeSlots_.back();
    freeSlots_.pop_back();
    ++liveTrans_;
    trans_[slot].req = std::move(req);
    trans_[slot].live = true;
    trans_[slot].pendingColumns = 0;
    splitIntoColumns(slot);
    // Input edge: the new accesses may issue before the cached cycle.
    commandAt_ = 0;
    return true;
}

void
VaultController::splitIntoColumns(std::size_t trans_index)
{
    Transaction &t = trans_[trans_index];
    const MemRequest &req = *t.req;
    const unsigned col_bytes = cfg_.geom.colBytes;

    Addr addr = req.addr;
    std::uint64_t remaining = req.bytes;
    while (remaining > 0) {
        DramCoord c = mapper_.decode(addr);
        vip_assert(c.vault == vaultId_, "request for vault ", c.vault,
                   " enqueued at vault ", vaultId_);
        const unsigned within = col_bytes - c.offset;
        const std::uint64_t chunk = std::min<std::uint64_t>(remaining,
                                                            within);
        Bank &bank = banks_[c.bank];
        BankCandidates &cand = cand_[c.bank];
        const std::uint64_t seq = nextSeq_++;
        bank.cols.push_back({seq, c.row, c.col, req.isWrite, trans_index,
                             req.issuedAt});
        // The newest access becomes a candidate only where its bank
        // had none of its class.
        if (!bank.rowOpen) {
            if (cand.prog.seq == kNoSeq)
                cand.prog = {seq, bank.actAllowedAt};
        } else if (c.row == bank.openRow) {
            if (cand.hit.seq == kNoSeq) {
                cand.hit = {seq, std::max(bank.colAllowedAt,
                                          bank.colCmdAllowedAt)};
                bank.hitPos = bank.cols.size() - 1;
            }
        } else if (cand.prog.seq == kNoSeq) {
            cand.prog = {seq, bank.preAllowedAt};
        }
        ++totalColumns_;
        ++t.pendingColumns;
        addr += chunk;
        remaining -= chunk;
    }
}

void
VaultController::retireCompletions(Cycles now)
{
    while (!completions_.empty() && completions_.top().at <= now) {
        const auto ev = completions_.top();
        completions_.pop();
        finishColumn(ev.transIndex, ev.at);
    }
}

void
VaultController::finishColumn(std::size_t trans_index, Cycles now)
{
    Transaction &t = trans_[trans_index];
    vip_assert(t.live && t.pendingColumns > 0, "stray column completion");
    if (--t.pendingColumns == 0) {
        std::unique_ptr<MemRequest> req = std::move(t.req);
        t.live = false;
        freeSlots_.push_back(trans_index);
        --liveTrans_;
        req->completedAt = now;
        stats_.reqCount += 1;
        stats_.totalReqLatency += now - req->issuedAt;
        latencyHist_.sample(now - req->issuedAt);
        if (req->isWrite)
            stats_.writeBytes += req->bytes;
        else
            stats_.readBytes += req->bytes;
        if (completionHandler_) {
            completionHandler_(std::move(req));
        } else if (req->onComplete) {
            req->onComplete(*req);
        }
        // Direct-callback path: hand pooled descriptors back for reuse.
        if (req && req->pool)
            req->pool->release(std::move(req));
    }
}

void
VaultController::beginRefresh(Cycles now)
{
    for (unsigned bi = 0; bi < banks_.size(); ++bi) {
        Bank &bank = banks_[bi];
        bank.rowOpen = false;
        bank.actAllowedAt = std::max(bank.actAllowedAt,
                                     now + cfg_.timing.tRFC);
        publishClosed(bi);
    }
    refreshUntil_ = now + cfg_.timing.tRFC;
    nextRefreshAt_ += cfg_.timing.tREFI;
    stats_.refreshes += 1;

    // Retention errors: keyed by (vault, refresh ordinal), never the
    // cycle, so fast-forwarded and ticked runs strike identically.
    const std::uint64_t refresh_index = refreshIndex_++;
    if (injector_) {
        std::uint64_t dice = 0;
        if (injector_->retentionStrike(vaultId_, refresh_index, &dice)) {
            // Split the dice into a victim cell in this vault; the
            // injector cannot pick it itself because the address
            // mapping lives on this side of the layering.
            const DramGeometry &g = cfg_.geom;
            DramCoord c;
            c.vault = vaultId_;
            c.bank = static_cast<unsigned>(dice % g.banksPerVault);
            dice /= g.banksPerVault;
            c.row = dice % g.rowsPerBank;
            dice /= g.rowsPerBank;
            c.col = static_cast<unsigned>(dice % g.colsPerRow());
            dice /= g.colsPerRow();
            c.offset = static_cast<unsigned>(dice % g.colBytes);
            dice /= g.colBytes;
            injector_->plantRetentionFlip(
                mapper_.encode(c), static_cast<unsigned>(dice % 8));
        }
    }
}

void
VaultController::catchUpRefreshes(Cycles until)
{
    // beginRefresh(deadline) — not (now) — so bank timing windows,
    // stats_.refreshes, and the (vault, refreshIndex_) retention draw
    // are byte-identical to a run that ticked through the deadline.
    while (nextRefreshAt_ < until)
        beginRefresh(nextRefreshAt_);
}

void
VaultController::publishClosed(unsigned bank_idx)
{
    const Bank &bank = banks_[bank_idx];
    cand_[bank_idx].hit = {};
    cand_[bank_idx].prog =
        bank.cols.empty()
            ? Candidate{}
            : Candidate{bank.cols.front().seq, bank.actAllowedAt};
}

void
VaultController::issueColumn(unsigned bank_idx, Cycles now)
{
    Bank &bank = banks_[bank_idx];
    BankCandidates &cand = cand_[bank_idx];
    const auto it = bank.cols.begin() + bank.hitPos;
    const ColumnAccess ca = *it;
    vip_assert(bank.rowOpen && ca.row == bank.openRow,
               "stale row-hit candidate in bank ", bank_idx);
    const DramTiming &t = cfg_.timing;

    // Data occupies the shared TSVs for tBurst beats (the vault-wide
    // constraint); tCCD paces column commands within one bank.
    colIssueAllowedAt_ = now + t.tBurst;
    bank.colCmdAllowedAt = now + t.tCCD;
    stats_.colCommands += 1;
    stats_.rowHits += 1;

    const Cycles done_at = now + t.tCL + t.tBurst;
    if (ca.isWrite) {
        bank.preAllowedAt = std::max(bank.preAllowedAt,
                                     done_at + t.tWR);
    }
    completions_.push({done_at, ca.transIndex});

    bank.cols.erase(it);
    --totalColumns_;

    // Everything ahead of the issued hit needs another row, so the
    // next hit (if any) is behind it.
    const auto next = std::find_if(
        bank.cols.begin() + bank.hitPos, bank.cols.end(),
        [&](const ColumnAccess &c) { return c.row == bank.openRow; });
    if (next != bank.cols.end()) {
        bank.hitPos = static_cast<std::size_t>(next - bank.cols.begin());
        cand.hit = {next->seq,
                    std::max(bank.colAllowedAt, bank.colCmdAllowedAt)};
    } else if (cfg_.pagePolicy == PagePolicy::Closed) {
        // Auto-precharge: no other queued access needs this row.
        bank.rowOpen = false;
        bank.actAllowedAt = std::max(bank.preAllowedAt,
                                     ca.isWrite ? done_at + t.tWR
                                                : done_at) +
                            t.tRP;
        publishClosed(bank_idx);
        return;
    } else {
        cand.hit = {};
    }
    // A write's recovery may have moved the precharge gate.
    if (cand.prog.seq != kNoSeq)
        cand.prog.at = bank.preAllowedAt;
}

void
VaultController::activate(unsigned bank_idx, Cycles now)
{
    Bank &bank = banks_[bank_idx];
    const DramTiming &t = cfg_.timing;
    bank.rowOpen = true;
    bank.openRow = bank.cols.front().row;
    bank.colAllowedAt = now + t.tRCD;
    bank.preAllowedAt = now + t.tRAS;
    bank.hitPos = 0;
    cand_[bank_idx].hit = {bank.cols.front().seq,
                           std::max(bank.colAllowedAt,
                                    bank.colCmdAllowedAt)};
    const auto miss = std::find_if(
        bank.cols.begin() + 1, bank.cols.end(),
        [&](const ColumnAccess &c) { return c.row != bank.openRow; });
    cand_[bank_idx].prog = miss == bank.cols.end()
                               ? Candidate{}
                               : Candidate{miss->seq, bank.preAllowedAt};
    stats_.rowMisses += 1;
}

void
VaultController::precharge(unsigned bank_idx, Cycles now)
{
    Bank &bank = banks_[bank_idx];
    bank.rowOpen = false;
    bank.actAllowedAt = std::max(bank.actAllowedAt, now + cfg_.timing.tRP);
    publishClosed(bank_idx);
    stats_.rowConflicts += 1;
}

void
VaultController::tick(Cycles now)
{
    retireCompletions(now);
    if (wakeGate_ && now < commandAt_)
        return;  // no command can issue before the cached cycle
    issueCommand(now);
    if (wakeGate_)
        commandAt_ = earliestCommandAt(now + 1);
}

void
VaultController::issueCommand(Cycles now)
{
    if (now < refreshUntil_)
        return;
    if (now >= nextRefreshAt_) {
        beginRefresh(now);
        return;
    }
    if (totalColumns_ == 0)
        return;

    // FR-FCFS over the candidate table: the globally oldest eligible
    // row hit, when the data bus is free, else the globally oldest
    // eligible row-state progress. This is exactly the access a
    // front-to-back scan of one arrival-ordered queue would pick.
    unsigned hit_bank = 0, prog_bank = 0;
    std::uint64_t hit_seq = kNoSeq, prog_seq = kNoSeq;
    for (unsigned bi = 0; bi < cand_.size(); ++bi) {
        const BankCandidates &c = cand_[bi];
        if (c.hit.at <= now && c.hit.seq < hit_seq) {
            hit_seq = c.hit.seq;
            hit_bank = bi;
        }
        if (c.prog.at <= now && c.prog.seq < prog_seq) {
            prog_seq = c.prog.seq;
            prog_bank = bi;
        }
    }
    if (hit_seq != kNoSeq && now >= colIssueAllowedAt_)
        issueColumn(hit_bank, now);
    else if (prog_seq == kNoSeq)
        return;
    else if (banks_[prog_bank].rowOpen)
        precharge(prog_bank, now);
    else
        activate(prog_bank, now);
}

Cycles
VaultController::earliestCommandAt(Cycles from) const
{
    Cycles min_hit = kIdleForever;
    Cycles min_prog = kIdleForever;
    for (const BankCandidates &c : cand_) {
        min_hit = std::min(min_hit, c.hit.at);
        min_prog = std::min(min_prog, c.prog.at);
    }
    // Refresh fires unconditionally at its deadline; nothing else
    // issues inside the refresh window; a hit also waits for the
    // vault-wide data bus.
    return std::max(
        from, std::min(nextRefreshAt_,
                       std::max(refreshUntil_,
                                std::min(std::max(min_hit,
                                                  colIssueAllowedAt_),
                                         min_prog))));
}

Cycles
VaultController::nextEventAt(Cycles now) const
{
    const Cycles done = nextCompletionAt();
    if (done <= now)
        return now;
    if (commandAt_ < now)
        commandAt_ = earliestCommandAt(now);
    return std::min(done, commandAt_);
}

unsigned
VaultController::pendingTransactions() const
{
    return liveTrans_;
}

bool
VaultController::idle() const
{
    return totalColumns_ == 0 && completions_.empty() && liveTrans_ == 0;
}

} // namespace vip
