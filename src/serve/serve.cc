#include "serve/serve.hh"

#include <cstdio>
#include <cstdlib>
#include <stop_token>
#include <thread>

#include "sim/json.hh"

namespace vip {

namespace {

std::string
hexKey(std::uint64_t key)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(key));
    return buf;
}

/** Is the line all JSON whitespace (skip it without a response)? */
bool
isBlank(const std::string &line)
{
    for (const char c : line) {
        if (c != ' ' && c != '\t' && c != '\r')
            return false;
    }
    return true;
}

/**
 * Read one '\n'-terminated line of at most @p max_bytes into @p line.
 * A longer line is consumed to its newline (the stream stays in sync)
 * but reported via *overflow with only the first max_bytes kept — the
 * caller answers with a structured protocol error instead of letting
 * a runaway client balloon the daemon. Returns false only at EOF with
 * nothing read; an unterminated final line is still delivered.
 */
bool
readLineBounded(std::istream &in, std::size_t max_bytes,
                std::string *line, bool *overflow)
{
    line->clear();
    *overflow = false;
    bool any = false;
    std::istream::int_type c;
    while ((c = in.get()) != std::istream::traits_type::eof()) {
        any = true;
        if (c == '\n')
            return true;
        if (line->size() < max_bytes)
            line->push_back(static_cast<char>(c));
        else
            *overflow = true;
    }
    return any;
}

} // namespace

std::string
errorResponse(const SimError &e)
{
    Json err = Json::object();
    err.set("kind", e.kind());
    err.set("message", e.message());
    err.set("detail", e.detail());
    Json body = Json::object();
    body.set("error", std::move(err));
    return body.str();
}

VipServer::VipServer(const ServeOptions &opts)
    : opts_(opts), statGroup_("serve"),
      requests_(&statGroup_, "requests", "request lines received"),
      cacheHits_(&statGroup_, "cacheHits",
                 "run requests answered from the result cache"),
      cacheMisses_(&statGroup_, "cacheMisses",
                   "run requests that had to simulate"),
      cacheEvictions_(&statGroup_, "cacheEvictions",
                      "cached results evicted by the LRU bound"),
      errors_(&statGroup_, "errors",
              "requests answered with an error response"),
      timeouts_(&statGroup_, "timeouts",
                "runs stopped by their wall-clock budget"),
      cancelledRuns_(&statGroup_, "cancelledRuns",
                     "runs stopped by an explicit cancel"),
      shed_(&statGroup_, "shed",
            "run requests rejected by the admission bound"),
      engine_(opts.jobs)
{
    engine_.setRetryPolicy(opts_.retry);
    if (opts_.journalPath.empty())
        return;
    // Recovery: every completed run response in the journal becomes a
    // cache entry, so a re-sent campaign re-answers completed points
    // byte-identically from cache and re-runs only the interrupted
    // tail. Error and command responses carry no "key" and are
    // (correctly) not preloaded.
    for (const CampaignJournal::Entry &e :
         CampaignJournal::load(opts_.journalPath)) {
        if (!e.answered)
            continue;
        Json j;
        try {
            j = Json::parse(e.response);
        } catch (const JsonError &) {
            continue;
        }
        const Json *keyj = j.find("key");
        if (!keyj || !keyj->isString())
            continue;
        const std::uint64_t key =
            std::strtoull(keyj->asString().c_str(), nullptr, 16);
        LockGuard lock(mutex_);
        cacheInsert(key, e.response);
    }
    journal_ = std::make_unique<CampaignJournal>(opts_.journalPath);
}

const std::string *
VipServer::cacheFind(std::uint64_t key)
{
    const auto it = cache_.find(key);
    if (it == cache_.end())
        return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);
    return &it->second->second;
}

void
VipServer::cacheInsert(std::uint64_t key, std::string response)
{
    if (opts_.cacheEntries == 0)
        return;
    const auto it = cache_.find(key);
    if (it != cache_.end()) {
        // A concurrent miss on the same key already inserted the
        // (identical) response; just refresh its position.
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    while (cache_.size() >= opts_.cacheEntries) {
        cache_.erase(lru_.back().first);
        lru_.pop_back();
        ++cacheEvictions_;
    }
    lru_.emplace_front(key, std::move(response));
    cache_.emplace(key, lru_.begin());
}

void
VipServer::complete(Pending &p, std::string response, bool is_error)
{
    p.response = std::move(response);
    p.isError = is_error;
    p.done = true;
    cv_.notify_all();
}

std::size_t
VipServer::cancelActiveRuns()
{
    LockGuard lock(mutex_);
    std::size_t n = 0;
    for (const auto &[id, weak] : active_) {
        if (const auto token = weak.lock()) {
            token->cancel();
            ++n;
        }
    }
    return n;
}

void
VipServer::dispatchRun(const Json &spec_json, const PendingPtr &p)
{
    RunSpec spec = RunSpec::fromJson(spec_json);
    const std::uint64_t key = spec.fingerprint();
    // Host execution defaults, applied after fingerprinting: island
    // count and the µop fast path never change the result bytes,
    // only how they are computed. A key the request sets wins.
    const Json *cfg = spec_json.find("config");
    if (!cfg || !cfg->find("islands"))
        spec.config.islands = opts_.defaultIslands;
    if (!cfg || !cfg->find("fastPath"))
        spec.config.fastPath = opts_.defaultFastPath;

    auto token = std::make_shared<CancelToken>();
    std::uint64_t run_id = 0;
    {
        LockGuard lock(mutex_);
        if (const std::string *cached = cacheFind(key)) {
            ++cacheHits_;
            // Emit the stored bytes verbatim: a hit's response is
            // byte-identical to the miss that populated it. Whether
            // a request hit is observable through the stats command,
            // never through the response body.
            complete(*p, *cached, false);
            return;
        }
        const std::size_t bound =
            opts_.maxQueuedRuns ? opts_.maxQueuedRuns
                                : 4 * std::size_t{engine_.jobs()} + 4;
        if (inFlight_ >= bound) {
            // Shed instead of queueing without bound: a loaded
            // daemon answers immediately and its memory stays
            // bounded. The client retries later.
            ++shed_;
            complete(*p,
                     errorResponse(SimError(
                         "overloaded",
                         "daemon at capacity (" +
                             std::to_string(inFlight_) +
                             " runs in flight, bound " +
                             std::to_string(bound) + "); retry later")),
                     true);
            return;
        }
        ++cacheMisses_;
        ++inFlight_;
        run_id = nextRunId_++;
        active_.emplace(run_id, token);
    }

    // Invocation count across the engine's transient retries; only
    // the worker running this job touches it (retries re-invoke on
    // the same thread, sequentially).
    auto attempts = std::make_shared<unsigned>(0);
    engine_.submit([this, spec, key, p, token, run_id, attempts] {
        const unsigned attempt = (*attempts)++;
        std::string response;
        bool is_error = false;
        bool timed_out = false;
        bool was_cancelled = false;
        std::map<std::string, std::uint64_t> fp;
        try {
            const RunResult result = runSpec(spec, token.get());
            Json body = Json::object();
            body.set("key", hexKey(key));
            body.set("result", result.toJson());
            response = body.str();
            fp = result.fastpath;
        } catch (const TransientError &) {
            // Let the engine's retry policy re-run us from the spec
            // (byte-identical on success); answer only once retries
            // are exhausted — an unfinished slot would wedge the
            // window.
            if (attempt < opts_.retry.maxRetries)
                throw;
            response = errorResponse(SimError(
                "transient",
                "run failed after " + std::to_string(attempt + 1) +
                    " attempts"));
            is_error = true;
        } catch (const std::bad_alloc &e) {
            if (attempt < opts_.retry.maxRetries)
                throw;
            response = errorResponse(SimError("transient", e.what()));
            is_error = true;
        } catch (const SimError &e) {
            response = errorResponse(e);
            is_error = true;
            timed_out = e.kind() == "timeout";
            was_cancelled = e.kind() == "cancelled";
        } catch (const std::exception &e) {
            response = errorResponse(SimError("exception", e.what()));
            is_error = true;
        }
        LockGuard lock(mutex_);
        active_.erase(run_id);
        --inFlight_;
        if (timed_out)
            ++timeouts_;
        if (was_cancelled)
            ++cancelledRuns_;
        if (!is_error) {
            cacheInsert(key, response);
            for (const auto &[name, value] : fp)
                fastpath_[name] += value;
        }
        complete(*p, std::move(response), is_error);
    });
}

std::string
VipServer::statsResponse()
{
    Json serve = Json::object();
    Json fp = Json::object();
    fp.set("enabled", opts_.defaultFastPath);
    statGroup_.visit({
        [&serve, this](const std::string &path, std::uint64_t value,
                       const std::string &) {
            // Strip the "serve." prefix: the section name is the
            // response's top-level key.
            serve.set(path.substr(statGroup_.name().size() + 1), value);
        },
        nullptr,
    });
    serve.set("cacheEntries", cache_.size());
    serve.set("inFlight", inFlight_);
    for (const auto &[name, value] : fastpath_)
        fp.set(name, value);
    serve.set("retries", engine_.retries());
    serve.set("cacheCapacity", opts_.cacheEntries);
    serve.set("jobs", engine_.jobs());
    serve.set("fastpath", std::move(fp));
    Json body = Json::object();
    body.set("serve", std::move(serve));
    return body.str();
}

bool
VipServer::dispatch(const std::string &line, const PendingPtr &p,
                    bool *shutdown)
{
    std::string response;
    bool is_error = false;
    try {
        const Json req = Json::parse(line);
        if (const Json *spec_json = req.find("run")) {
            if (req.size() != 1) {
                throw ConfigError(
                    "a run request must contain only the \"run\" key");
            }
            dispatchRun(*spec_json, p);
            return true;
        }
        if (const Json *cmd = req.find("cmd")) {
            if (req.size() != 1) {
                throw ConfigError(
                    "a command request must contain only the \"cmd\" "
                    "key");
            }
            const std::string &name = cmd->asString();
            if (name == "stats")
                return false;  // answered by the caller's barrier
            Json body = Json::object();
            if (name == "cancel") {
                body.set("cancelled",
                         static_cast<std::uint64_t>(cancelActiveRuns()));
            } else if (name == "shutdown") {
                *shutdown = true;
                shutdownRequested_.store(true,
                                         std::memory_order_release);
            } else {
                throw ConfigError("unknown command \"" + name + "\"");
            }
            body.set("ok", true);
            response = body.str();
        } else {
            throw ConfigError("request must be {\"run\": {...}} or "
                              "{\"cmd\": \"...\"}");
        }
    } catch (const SimError &e) {
        response = errorResponse(e);
        is_error = true;
    } catch (const std::exception &e) {
        response = errorResponse(SimError("exception", e.what()));
        is_error = true;
    }
    LockGuard lock(mutex_);
    complete(*p, std::move(response), is_error);
    return true;
}

void
VipServer::serve(std::istream &in, std::ostream &out)
{
    // The connection's in-order response window and the writer's
    // failure flag, guarded by mutex_.
    std::deque<PendingPtr> window;
    bool out_failed = false;  // a write failed: the client vanished

    // The one writer of `out`: the window's head leaves as soon as it
    // is answered. Leaving this scope by any path requests the stop
    // and joins, and the writer first empties the window.
    std::jthread writer([&](const std::stop_token &stop) {
        // Declared before `lock`, so destroyed after it: the wake's
        // destructor may wait for a wake running on the reader thread.
        const std::stop_callback wake(stop, [this] {
            LockGuard lock(mutex_);
            cv_.notify_all();
        });
        LockGuard lock(mutex_);
        for (;;) {
            cv_.wait(lock, [&] {
                return window.empty() ? stop.stop_requested()
                                      : window.front()->done;
            });
            if (window.empty())
                return;
            const PendingPtr p = std::move(window.front());
            window.pop_front();
            if (p->isError)
                ++errors_;
            lock.unlock();
            out << p->response << '\n' << std::flush;
            // Journal the response after the client had its chance to
            // see it; a completed entry answers resumes byte-identically.
            if (p->journaled && journal_)
                journal_->appendResponse(p->seq, p->response);
            lock.lock();
            out_failed = out_failed || !out;
            cv_.notify_all();  // the reader may be waiting for room
        }
    });

    std::string line;
    bool shutdown = false;
    while (!shutdown) {
        if (opts_.stopRequested && opts_.stopRequested())
            break;  // transport asked for a drain-then-return
        bool overflow = false;
        if (!readLineBounded(in, opts_.maxLineBytes, &line, &overflow))
            break;
        if (!overflow && isBlank(line))
            continue;
        // Oversized lines are answered but never journaled or
        // dispatched: the stored prefix is not the request.
        const auto p = std::make_shared<Pending>();
        if (!overflow && journal_) {
            // Write-ahead: the request is journaled before anything
            // can run, so a crash can lose at most responses, never
            // the knowledge that a request was accepted.
            p->seq = journal_->appendRequest(line);
            p->journaled = true;
        }
        LockGuard lock(mutex_);
        ++requests_;
        window.push_back(p);
        if (overflow) {
            complete(*p,
                     errorResponse(SimError(
                         "protocol",
                         "request line exceeds " +
                             std::to_string(opts_.maxLineBytes) + " bytes")),
                     true);
        } else {
            lock.unlock();
            const bool stats = !dispatch(line, p, &shutdown);
            lock.lock();
            if (stats) {
                // Barrier: this connection's earlier runs must land in
                // the counters (and the cache) before the report.
                cv_.wait(lock, [&window, &p] { return window.front() == p; });
                complete(*p, statsResponse(), false);
            }
        }
        if (out_failed)
            break;  // client vanished; finish in-flight work and return
        // Bound the pipeline: never more than two batches of work
        // queued ahead of the slowest outstanding request.
        cv_.wait(lock, [&window, this] {
            return window.size() < 2 * engine_.jobs() + 1;
        });
    }
}

} // namespace vip
