/**
 * @file
 * Cycle-level model of one HMC vault: 16 banks sharing data TSVs, a
 * transaction queue, a command scheduler (FR-FCFS for the open-page
 * policy, auto-precharge for closed-page), and a refresh controller.
 */

#ifndef VIP_MEM_VAULT_HH
#define VIP_MEM_VAULT_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <queue>
#include <vector>

#include "mem/addrmap.hh"
#include "mem/request.hh"
#include "mem/timing.hh"
#include "sim/clocked.hh"
#include "sim/histogram.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace vip {

class FaultInjector;

class VaultController
{
  public:
    VaultController(unsigned vaultId, const MemConfig &cfg,
                    const AddressMapper &mapper, StatGroup *parent);

    /**
     * Offer a transaction to this vault. Returns false (and leaves the
     * request with the caller) when the transaction queue is full.
     * @pre every byte of the request maps to this vault.
     */
    bool enqueue(std::unique_ptr<MemRequest> req);

    /**
     * Advance one clock cycle: retire data, issue at most one command.
     * With the wake gate on, a tick before the cached earliest
     * command cycle only retires data.
     */
    void tick(Cycles now);

    /**
     * Earliest cycle this vault could act: the head of the completion
     * queue, the next refresh deadline, or the earliest cycle any
     * queued column access clears its timing constraints (tRCD/tCCD/
     * tBurst for a row hit; tRP/tRAS precharge or tRFC/activate
     * windows for row-state progress). Exact for the command part,
     * which is answered from the same cache the wake gate uses.
     */
    Cycles nextEventAt(Cycles now) const;

    /**
     * Wake-gate this vault's ticks (on only with fast-forward; see
     * sim/clocked.hh). enqueue() is the input edge that drops the
     * cached command cycle.
     */
    void setWakeGate(bool on) { wakeGate_ = on; }

    /** Head of the completion queue (kIdleForever when empty): the
     *  next cycle this vault could free a transaction slot. */
    Cycles
    nextCompletionAt() const
    {
        return completions_.empty() ? kIdleForever : completions_.top().at;
    }

    /**
     * Handler receiving ownership of completed transactions. When set
     * (by the system, which must route a response packet back through
     * the NoC before the issuer may observe completion), it is invoked
     * *instead of* the request's own onComplete callback.
     */
    using CompletionHandler =
        std::function<void(std::unique_ptr<MemRequest>)>;

    void setCompletionHandler(CompletionHandler h)
    {
        completionHandler_ = std::move(h);
    }

    bool idle() const;

    /**
     * Replay every refresh whose deadline lies strictly before
     * @p until, each at its exact deadline cycle. Island-mode support
     * (see sim/island.hh): a workload-idle vault on a skipped island
     * is never ticked, but its refresh timer — and the deterministic
     * retention-error draw each refresh makes — must fire exactly as
     * per-cycle ticks (or clamped warps) would fire them. A vault
     * that has been ticked through cycle until - 1 owes nothing and
     * this is a no-op, so the scheduler may call it unconditionally
     * at every round boundary.
     */
    void catchUpRefreshes(Cycles until);

    /** Live (incomplete) transactions currently in the queue. */
    unsigned pendingTransactions() const;

    bool canAccept() const
    {
        return pendingTransactions() < cfg_.transQueueDepth;
    }

    /** Statistics, public so formulas and tests can read them. */
    struct Stats
    {
        Counter readBytes;
        Counter writeBytes;
        Counter rowHits;
        Counter rowMisses;
        Counter rowConflicts;
        Counter refreshes;
        Counter colCommands;
        Counter reqCount;
        Counter totalReqLatency;
    };

    const Stats &stats() const { return stats_; }

    /** Distribution of transaction latencies (cycles). */
    const Histogram &latencyHistogram() const { return latencyHist_; }

    /**
     * Attach a fault injector: each refresh interval rolls for a
     * retention error (a weak cell that decayed before the refresh
     * reached it); on a hit this vault picks the victim cell from the
     * injector's dice and plants the flip. Null detaches.
     */
    void setFaultInjector(FaultInjector *f) { injector_ = f; }

  private:
    /**
     * One pending DRAM column access derived from a transaction.
     * Accesses live in their bank's queue (oldest first); @c seq
     * records global arrival order so FR-FCFS age comparisons across
     * banks stay exact.
     */
    struct ColumnAccess
    {
        std::uint64_t seq;       ///< global arrival order (FCFS age)
        std::uint64_t row;
        unsigned col;
        bool isWrite;
        std::size_t transIndex;  ///< owning transaction slot
        Cycles arrivedAt;
    };

    /** An in-flight transaction and its split bookkeeping. */
    struct Transaction
    {
        std::unique_ptr<MemRequest> req;
        unsigned pendingColumns = 0;
        bool live = false;
    };

    /** Per-bank timing state and queued column accesses. */
    struct Bank
    {
        bool rowOpen = false;
        std::uint64_t openRow = 0;
        Cycles actAllowedAt = 0;
        Cycles colAllowedAt = 0;     ///< tRCD after ACT
        Cycles colCmdAllowedAt = 0;  ///< tCCD after this bank's last col
        Cycles preAllowedAt = 0;

        /** This bank's queued accesses, oldest first. */
        std::deque<ColumnAccess> cols;

        /** True while cols is nonempty (listed in activeBanks_). */
        bool active = false;

        /**
         * How many of @c cols target @c openRow, maintained while the
         * row is open (meaningless when closed). Lets the scheduler
         * and nextEventAt() classify a bank without scanning its
         * queue.
         */
        unsigned hitQueued = 0;
    };

    struct CompletionEvent
    {
        Cycles at;
        std::size_t transIndex;

        bool
        operator>(const CompletionEvent &o) const
        {
            return at > o.at;
        }
    };

    void splitIntoColumns(std::size_t trans_index);
    /** Issue at most one command (refresh, column, row) at @p now. */
    void issueCommand(Cycles now);
    bool issueOldestHit(Cycles now);
    void issueColumn(unsigned bank_idx, Cycles now,
                     std::deque<ColumnAccess>::iterator it);
    void deactivateBank(unsigned bank_idx);
    void progressOldest(Cycles now);

    /**
     * First cycle >= @p from at which issueCommand() could act: the
     * refresh deadline, or the first cycle some queued access clears
     * its timing gates.
     */
    Cycles earliestCommandAt(Cycles from) const;
    void beginRefresh(Cycles now);
    void retireCompletions(Cycles now);
    void finishColumn(std::size_t trans_index, Cycles now);

    unsigned vaultId_;
    MemConfig cfg_;
    const AddressMapper &mapper_;

    std::vector<Bank> banks_;

    /**
     * Indices of banks with queued accesses, unordered. The scheduler
     * passes and nextEventAt() are min-computations over banks, so
     * iteration order is free — which keeps ticks O(busy banks)
     * instead of O(all banks) for sparse traffic.
     */
    std::vector<unsigned> activeBanks_;

    std::vector<Transaction> trans_;
    std::vector<std::size_t> freeSlots_;  ///< free transaction slots
    unsigned liveTrans_ = 0;              ///< live entries in trans_
    std::size_t totalColumns_ = 0;        ///< queued accesses, all banks
    std::uint64_t nextSeq_ = 0;           ///< arrival-order stamp
    std::priority_queue<CompletionEvent, std::vector<CompletionEvent>,
                        std::greater<>> completions_;

    Cycles colIssueAllowedAt_ = 0;
    Cycles refreshUntil_ = 0;
    Cycles nextRefreshAt_;

    /**
     * Cached earliestCommandAt(), valid while >= now (== now reads as
     * due). Only the vault's own commands and enqueue() change what it
     * depends on. A gated tick re-caches after every command; a
     * refresh replayed by catchUpRefreshes fires at a deadline the
     * cache did not pass, so afterwards the cache reads as due and the
     * next tick re-scans. enqueue() can move the cycle earlier and
     * drops the cache (0).
     */
    mutable Cycles commandAt_ = 0;
    bool wakeGate_ = false;
    CompletionHandler completionHandler_;

    FaultInjector *injector_ = nullptr;
    std::uint64_t refreshIndex_ = 0;  ///< refreshes begun (event key)

    StatGroup statGroup_;
    Stats stats_;
    Histogram latencyHist_;
};

} // namespace vip

#endif // VIP_MEM_VAULT_HH
