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
        if (!bank.active) {
            bank.active = true;
            activeBanks_.push_back(c.bank);
        }
        bank.cols.push_back({nextSeq_++, c.row, c.col, req.isWrite,
                             trans_index, req.issuedAt});
        if (bank.rowOpen && bank.openRow == c.row)
            ++bank.hitQueued;
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
    for (auto &bank : banks_) {
        bank.rowOpen = false;
        bank.hitQueued = 0;
        bank.actAllowedAt = std::max(bank.actAllowedAt,
                                     now + cfg_.timing.tRFC);
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
VaultController::deactivateBank(unsigned bank_idx)
{
    banks_[bank_idx].active = false;
    auto it = std::find(activeBanks_.begin(), activeBanks_.end(),
                        bank_idx);
    vip_assert(it != activeBanks_.end(), "bank missing from active list");
    *it = activeBanks_.back();
    activeBanks_.pop_back();
}

void
VaultController::issueColumn(unsigned bank_idx, Cycles now,
                             std::deque<ColumnAccess>::iterator it)
{
    Bank &bank = banks_[bank_idx];
    const ColumnAccess ca = *it;
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
    if (bank.cols.empty())
        deactivateBank(bank_idx);
    vip_assert(bank.hitQueued > 0, "issued hit was not counted");
    --bank.hitQueued;

    if (cfg_.pagePolicy == PagePolicy::Closed && bank.hitQueued == 0) {
        // Auto-precharge: no other queued access needs this row.
        bank.rowOpen = false;
        bank.actAllowedAt = std::max(bank.preAllowedAt,
                                     ca.isWrite ? done_at + t.tWR
                                                : done_at) +
                            t.tRP;
    }
}

bool
VaultController::issueOldestHit(Cycles now)
{
    // FR-FCFS first pass. Within one bank every open-row access shares
    // the same timing gates, so the bank's oldest hit is its only
    // candidate; across banks the globally oldest eligible candidate
    // is exactly the access a front-to-back scan of one combined
    // arrival-ordered queue would have issued.
    unsigned best_bank = 0;
    std::deque<ColumnAccess>::iterator best_it;
    std::uint64_t best_seq = ~0ull;
    for (const unsigned bi : activeBanks_) {
        Bank &bank = banks_[bi];
        if (!bank.rowOpen || bank.hitQueued == 0)
            continue;
        if (now < bank.colAllowedAt || now < bank.colCmdAllowedAt ||
            now < colIssueAllowedAt_) {
            continue;
        }
        auto it = bank.cols.begin();
        while (it->row != bank.openRow)
            ++it;
        if (it->seq < best_seq) {
            best_seq = it->seq;
            best_bank = bi;
            best_it = it;
        }
    }
    if (best_seq == ~0ull)
        return false;
    issueColumn(best_bank, now, best_it);
    return true;
}

void
VaultController::progressOldest(Cycles now)
{
    // Oldest-first row-state progress. A bank contributes one
    // candidate: with its row open, the oldest access needing a
    // different row (precharge); with its row closed, its oldest
    // access (activate). Same-class accesses within a bank share the
    // timing gate, so taking the globally oldest eligible candidate
    // reproduces the arrival-ordered scan exactly.
    const DramTiming &t = cfg_.timing;
    Bank *best = nullptr;
    std::uint64_t best_seq = ~0ull;
    bool best_is_activate = false;
    for (const unsigned bi : activeBanks_) {
        Bank &bank = banks_[bi];
        if (bank.rowOpen) {
            if (bank.cols.size() == bank.hitQueued)
                continue;  // everything queued hits the open row
            if (now < bank.preAllowedAt)
                continue;
            auto it = bank.cols.begin();
            while (it->row == bank.openRow)
                ++it;
            if (it->seq < best_seq) {
                best_seq = it->seq;
                best = &bank;
                best_is_activate = false;
            }
        } else {
            if (now < bank.actAllowedAt)
                continue;
            if (bank.cols.front().seq < best_seq) {
                best_seq = bank.cols.front().seq;
                best = &bank;
                best_is_activate = true;
            }
        }
    }
    if (best == nullptr)
        return;

    if (best_is_activate) {
        best->rowOpen = true;
        best->openRow = best->cols.front().row;
        best->colAllowedAt = now + t.tRCD;
        best->preAllowedAt = now + t.tRAS;
        best->hitQueued = static_cast<unsigned>(std::count_if(
            best->cols.begin(), best->cols.end(),
            [&](const ColumnAccess &c) { return c.row == best->openRow; }));
        stats_.rowMisses += 1;
    } else {
        best->rowOpen = false;
        best->hitQueued = 0;
        best->actAllowedAt = std::max(best->actAllowedAt, now + t.tRP);
        stats_.rowConflicts += 1;
    }
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

    // First pass (FR-FCFS): issue the oldest row-hit column access.
    if (issueOldestHit(now))
        return;
    // Second pass: make row-state progress for the oldest access.
    progressOldest(now);
}

Cycles
VaultController::earliestCommandAt(Cycles from) const
{
    // Refresh fires unconditionally at its deadline (and changes bank
    // state and the refresh counter), so it is always a hard event.
    Cycles next = std::max(nextRefreshAt_, from);
    if (totalColumns_ == 0)
        return next;

    // No command issues while the refresh window is open. Each bank
    // contributes at most one candidate per access class it has
    // queued; the per-access minimum collapses to this because
    // same-class accesses within a bank share every timing gate.
    for (const unsigned bi : activeBanks_) {
        const Bank &bank = banks_[bi];
        if (bank.rowOpen) {
            if (bank.hitQueued > 0) {
                // Row hit: gated by tRCD, this bank's tCCD, and the
                // vault-wide data-bus (tBurst) constraint.
                next = std::min(next,
                                std::max({refreshUntil_, bank.colAllowedAt,
                                          bank.colCmdAllowedAt,
                                          colIssueAllowedAt_}));
            }
            if (bank.cols.size() > bank.hitQueued) {
                // Conflict: the wrong row closes once tRAS/tWR allow.
                next = std::min(next,
                                std::max(refreshUntil_, bank.preAllowedAt));
            }
        } else {
            // Precharged: activates once tRP/tRFC allow.
            next = std::min(next,
                            std::max(refreshUntil_, bank.actAllowedAt));
        }
        if (next <= from)
            return from;
    }
    return next;
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
