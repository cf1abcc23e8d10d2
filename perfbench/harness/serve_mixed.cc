/**
 * @file
 * The serve_mixed workload: vip-serve over a unix socket.
 *
 * The harness launches `vip-serve --socket PATH --jobs 1` and holds two
 * closed-loop connections to it: each sends its next request only
 * after the previous response line arrived. With --jobs 1 each
 * connection's thread runs its request inline, so two connections
 * keep two host threads busy. (--jobs 2 would add a worker pool, but
 * VipServer::serve writes a pooled run's response only after reading
 * the connection's next line, so a closed-loop client waits forever;
 * see perfbench/BENCHMARK.md.) Requests are a seeded
 * stream of source-text RunSpecs — scalar loops and DRAM-streaming
 * ld/st kernels of varied size on 1- and 4-vault machines. Requests
 * go out in blocks; in every timed block 3 in 8 requests repeat a
 * spec first sent in the block before (a cache hit), the rest are new
 * (a simulated run). An untimed warm-up block fills the
 * cache first.
 *
 * Checks: every response is a result (no error, no shed request);
 * every repeat is byte-identical to the first answer of its spec; and
 * a seeded sample equals in-process runSpec(spec).toJson().
 */

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness.hh"
#include "isa/assembler.hh"
#include "sim/rng.hh"
#include "sim/sweep.hh"
#include "system/runspec.hh"

extern char **environ;

namespace perfbench {

using namespace vip;

namespace {

constexpr unsigned kJobs = 1;         ///< daemon --jobs (inline runs)
constexpr unsigned kConnections = 2;  ///< closed-loop clients
constexpr unsigned kBlock = 100;      ///< requests per timed block
constexpr unsigned kMinBlocks = 10;   ///< p99 needs 1000 samples
constexpr unsigned kSetups = 21;      ///< daemon launches per run
constexpr unsigned kCrossChecks = 8;  ///< in-process comparisons
constexpr unsigned kReplays = 60;     ///< traced in-process replays

// ---- request stream --------------------------------------------------

std::string
scalarLoop(unsigned n, unsigned tag)
{
    return "    mov.imm r1, 0\n"
           "    mov.imm r2, " + std::to_string(n) + "\n"
           "    mov.imm r3, 0\n"
           "    mov.imm r9, " + std::to_string(tag) + "\n"
           "loop:\n"
           "    add.imm r1, r1, 1\n"
           "    add r3, r3, r1\n"
           "    xor r4, r3, r1\n"
           "    blt r1, r2, loop\n"
           "    halt\n";
}

/** Double-buffered ld.sram/st.sram copy of @p iters 1 KiB chunks. */
std::string
streamCopy(Addr src, Addr dst, unsigned iters, unsigned tag)
{
    return "    mov.imm r1, 0\n"
           "    mov.imm r2, " + std::to_string(iters) + "\n"
           "    mov.imm r3, " + std::to_string(src) + "\n"
           "    mov.imm r4, " + std::to_string(dst) + "\n"
           "    mov.imm r5, 1024\n"
           "    mov.imm r6, 512\n"
           "    mov.imm r7, 0\n"
           "    mov.imm r8, 2048\n"
           "    mov.imm r9, " + std::to_string(tag) + "\n"
           "loop:\n"
           "    ld.sram[16] r7, r3, r6\n"
           "    st.sram[16] r8, r4, r6\n"
           "    add r3, r3, r5\n"
           "    add r4, r4, r5\n"
           "    xor r7, r7, r8\n"
           "    xor r8, r8, r7\n"
           "    xor r7, r7, r8\n"
           "    add.imm r1, r1, 1\n"
           "    blt r1, r2, loop\n"
           "    memfence\n"
           "    halt\n";
}

/**
 * Draws 0..size-1 in seeded shuffled rounds, so every round of @p size
 * draws holds each value once: the request mix is exact per round
 * instead of drifting with the seed, which keeps the latency median
 * at the same place in the same population on every run.
 */
class Deck
{
  public:
    explicit Deck(unsigned size) : size_(size) {}

    unsigned
    draw(Rng &rng)
    {
        if (next_ == cards_.size()) {
            cards_.resize(size_);
            for (unsigned i = 0; i < size_; ++i)
                cards_[i] = i;
            for (unsigned i = size_; i > 1; --i)
                std::swap(cards_[i - 1], cards_[rng.nextBelow(i)]);
            next_ = 0;
        }
        return cards_[next_++];
    }

  private:
    unsigned size_;
    std::vector<unsigned> cards_;
    std::size_t next_ = 0;
};

/** Seeded generator of distinct RunSpecs. */
class SpecStream
{
  public:
    explicit SpecStream(std::uint64_t seed) : rng_(seed ^ 0x5e57e)
    {
        for (unsigned vaults : {1u, 4u}) {
            const SystemConfig cfg = makeSystemConfig(vaults, 4);
            Simulation probe(cfg);
            for (unsigned v = 0; v < vaults; ++v)
                bases_[vaults].push_back(probe.vaultBase(v));
        }
    }

    RunSpec
    next()
    {
        const unsigned tag = nextTag_++;
        RunSpec spec;
        const unsigned kind = kinds_.draw(rng_);
        if (kind < 1) {
            spec.config = makeSystemConfig(1, 1);
            spec.programs.push_back(
                {0, scalarLoop(static_cast<unsigned>(
                                   rng_.nextRange(5000, 40000)),
                               tag)});
        } else {
            const unsigned vaults = kind < 6 ? 1 : 4;
            spec.config = makeSystemConfig(vaults, 4);
            const unsigned iters = static_cast<unsigned>(
                vaults == 1 ? rng_.nextRange(16, 96)
                            : rng_.nextRange(8, 32));
            for (unsigned v = 0; v < vaults; ++v) {
                for (unsigned p = 0; p < 4; ++p) {
                    const Addr src = bases_[vaults][v] + p * (1ull << 20);
                    const Addr dst = src + (512ull << 10);
                    spec.programs.push_back(
                        {v * 4 + p, streamCopy(src, dst, iters, tag)});
                }
                // A little seeded source data per vault.
                RunSpec::DramPoke poke;
                poke.addr = bases_[vaults][v];
                for (unsigned i = 0; i < 64; ++i) {
                    poke.values.push_back(static_cast<std::int16_t>(
                        rng_.nextRange(-1000, 1000)));
                }
                spec.pokes.push_back(std::move(poke));
            }
        }
        return spec;
    }

  private:
    Rng rng_;
    /** Kind 0 scalar loop, 1-5 one-vault stream, 6-9 four-vault:
     *  with 3 in 8 requests cache hits, the median request falls a
     *  fifth of the way into the one-vault streams (a few ms), where
     *  thread wake-up jitter on a busy host is a small share. */
    Deck kinds_{10};
    unsigned nextTag_ = 1;
    std::map<unsigned, std::vector<Addr>> bases_;
};

struct Request
{
    std::size_t spec = 0;  ///< index into the spec table
    bool repeat = false;
};

// ---- transport ---------------------------------------------------------

class Conn
{
  public:
    Conn() = default;
    explicit Conn(int fd) : fd_(fd) {}
    Conn(Conn &&o) noexcept
        : fd_(o.fd_), buf_(std::move(o.buf_)), scanned_(o.scanned_)
    {
        o.fd_ = -1;
    }
    Conn &
    operator=(Conn &&o) noexcept
    {
        std::swap(fd_, o.fd_);
        std::swap(buf_, o.buf_);
        std::swap(scanned_, o.scanned_);
        return *this;
    }
    Conn(const Conn &) = delete;
    ~Conn()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    bool
    send(const std::string &line)
    {
        std::size_t off = 0;
        while (off < line.size()) {
            const ssize_t n = ::write(fd_, line.data() + off,
                                      line.size() - off);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            off += static_cast<std::size_t>(n);
        }
        return true;
    }

    bool
    recvLine(std::string &line)
    {
        for (;;) {
            const auto nl = buf_.find('\n', scanned_);
            if (nl != std::string::npos) {
                line.assign(buf_, 0, nl);
                buf_.erase(0, nl + 1);
                scanned_ = 0;
                return true;
            }
            scanned_ = buf_.size();
            char chunk[65536];
            const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            buf_.append(chunk, static_cast<std::size_t>(n));
        }
    }

    bool
    request(const std::string &line, std::string &response)
    {
        return send(line) && recvLine(response);
    }

  private:
    int fd_ = -1;
    std::string buf_;
    std::size_t scanned_ = 0;
};

int
tryConnect(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                  path.c_str());
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) == 0) {
        return fd;
    }
    ::close(fd);
    return -1;
}

/** A running vip-serve daemon. */
struct Daemon
{
    pid_t pid = -1;
    std::string socket;
    double setupSeconds = 0;  ///< launch until the socket accepts
    Conn first;               ///< the connection that saw it accept

    void
    stop()
    {
        if (pid < 0)
            return;
        std::string rsp;
        first.request("{\"cmd\":\"shutdown\"}\n", rsp);
        int status = 0;
        ::waitpid(pid, &status, 0);
        pid = -1;
    }

    ~Daemon()
    {
        if (pid >= 0) {
            ::kill(pid, SIGTERM);
            int status = 0;
            ::waitpid(pid, &status, 0);
        }
    }
};

void
launch(Daemon &d, const Options &opts, Tracer &t)
{
    d.socket = opts.socketDir + "/vs" + std::to_string(::getpid());
    const std::string jobs = std::to_string(kJobs);
    std::vector<std::string> args = {opts.serveBin, "--socket", d.socket,
                                     "--jobs", jobs, "--islands", "1"};
    std::vector<char *> argv;
    for (auto &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 2, "/dev/null", O_WRONLY, 0);
    const double t0 = t.now();
    const int rc = ::posix_spawn(&d.pid, opts.serveBin.c_str(), &fa,
                                 nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
        d.pid = -1;
        throw std::runtime_error("cannot launch " + opts.serveBin + ": " +
                                 std::strerror(rc));
    }
    for (;;) {
        const int fd = tryConnect(d.socket);
        if (fd >= 0) {
            d.setupSeconds = t.now() - t0;
            d.first = Conn(fd);
            return;
        }
        int status = 0;
        if (::waitpid(d.pid, &status, WNOHANG) == d.pid) {
            d.pid = -1;
            throw std::runtime_error("vip-serve exited before accepting");
        }
        if (t.now() - t0 > 30)
            throw std::runtime_error("vip-serve did not accept in 30 s");
        // Poll without sleeping: a timed sleep quantizes a sub-ms
        // start-up to the timer slack (steps of about 0.3 ms).
        ::sched_yield();
    }
}

std::uint64_t
daemonPeakRssKb(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
    return 0;
}

std::string
requestLine(const RunSpec &spec)
{
    Json req = Json::object();
    req.set("run", spec.toJson());
    return req.str() + "\n";
}

/** Per-request observation of one timed block. */
struct Sample
{
    std::size_t spec = 0;
    bool repeat = false;
    double start = 0;
    double latency = 0;
};

/** In-process replay of one request through the same layers. */
Json
replay(const std::string &line, Tracer &t, Counts &counts,
       std::string *result_text)
{
    const double t0 = t.now();
    Span whole(t, "replay");
    RunSpec spec;
    {
        Span s(t, "serve.parse");
        spec = RunSpec::fromJson(Json::parse(line).at("run"));
    }
    std::unique_ptr<Simulation> sim;
    {
        Span s(t, "system.build");
        sim = std::make_unique<Simulation>(spec.config);
    }
    {
        Span s(t, "mem.stage");
        for (const RunSpec::DramPoke &p : spec.pokes) {
            sim->pokeDram(p.addr, p.values);
            counts["mem.staged_bytes"] += 2 * p.values.size();
        }
        for (const RunSpec::RegSet &r : spec.regs)
            sim->setReg(r.pe, r.reg, r.value);
    }
    for (const RunSpec::Program &p : spec.programs) {
        std::vector<Instruction> prog;
        {
            Span s(t, "isa.assemble");
            AssemblyError err;
            prog = assemble(p.source, &err);
            if (!err.message.empty())
                throw std::runtime_error("assembly: " + err.message);
        }
        Span s(t, "pe.load");
        sim->loadProgram(p.pe, std::move(prog));
    }
    RunResult r;
    {
        Span s(t, "simulation.run");
        r = sim->run(spec.maxCycles);
        t.addChild("system.run", r.hostSeconds);
    }
    std::size_t response_bytes = 0;
    {
        // The daemon's response body: the key and the result.
        Span s(t, "serve.emit");
        Json body = Json::object();
        body.set("key", std::string(16, '0'));
        body.set("result", r.toJson());
        response_bytes = body.str().size();
    }
    Json j = Json::object();
    j.set("inproc_s", t.now() - t0);
    j.set("response_bytes", static_cast<std::uint64_t>(response_bytes));
    *result_text = r.toJson().str();
    addRunCounts(counts, r);
    return j;
}

} // namespace

vip::Json
runServeMixed(const Options &opts)
{
    if (opts.serveBin.empty() || opts.socketDir.empty())
        throw std::invalid_argument("serve_mixed needs --serve-bin and "
                                    "--socket-dir");
    // Every connection runs its requests on its own daemon thread.
    const unsigned threads =
        kConnections * hostThreadBudget(kJobs, 1, nullptr);
    if (threads > SweepEngine::hardwareJobs()) {
        throw std::runtime_error(
            "thread budget: " + std::to_string(kConnections) +
            " connections x --jobs " + std::to_string(kJobs) +
            " exceeds the host's " +
            std::to_string(SweepEngine::hardwareJobs()) + " threads");
    }

    Tracer clock(false);
    Json report = Json::object();
    Json th = Json::object();
    th.set("jobs", kJobs);
    th.set("islands", 1);
    th.set("total", threads);
    th.set("connections", kConnections);
    report.set("threads", std::move(th));

    // Set-up: launch the daemon several times; keep the last one.
    Json setups = Json::array();
    Daemon d;
    for (unsigned i = 0; i < kSetups; ++i) {
        if (i > 0)
            d.stop();
        launch(d, opts, clock);
        setups.push(d.setupSeconds);
    }
    report.set("setups_s", std::move(setups));

    std::vector<Conn> conns;
    conns.push_back(std::move(d.first));
    d.first = Conn();
    for (unsigned c = 1; c < kConnections; ++c) {
        const int fd = tryConnect(d.socket);
        if (fd < 0)
            throw std::runtime_error("second connection refused");
        conns.emplace_back(fd);
    }

    // The spec table grows block by block; repeats point back at the
    // previous block's new specs, so every repeat is a cache hit.
    SpecStream stream(opts.seed);
    Rng pick(opts.seed ^ 0xb10c);
    Deck repeats(8);
    std::vector<RunSpec> specs;
    std::vector<std::string> lines;
    std::vector<std::string> firstResponse;
    std::vector<std::size_t> prevNew;

    auto makeBlock = [&](unsigned size, bool warmup) {
        std::vector<Request> block;
        std::vector<std::size_t> fresh;
        for (unsigned i = 0; i < size; ++i) {
            Request r;
            // 3 in 8 repeat: about half, while keeping the median
            // request inside the miss population rather than in the
            // gap between hit and miss latencies.
            if (!warmup && !prevNew.empty() && repeats.draw(pick) < 3) {
                r.spec = prevNew[pick.nextBelow(prevNew.size())];
                r.repeat = true;
            } else {
                specs.push_back(stream.next());
                lines.push_back(requestLine(specs.back()));
                firstResponse.emplace_back();
                r.spec = specs.size() - 1;
                fresh.push_back(r.spec);
            }
            block.push_back(r);
        }
        prevNew = fresh;
        return block;
    };

    std::mutex mu;
    std::uint64_t failed = 0, attempted = 0;
    std::vector<std::string> failures;
    auto fail = [&](const std::string &why) {
        ++failed;
        if (failures.size() < 8)
            failures.push_back(why);
    };

    // Runs one block over all connections; returns per-request samples.
    auto runBlock = [&](const std::vector<Request> &block, Tracer &t) {
        std::vector<Sample> samples(block.size());
        std::vector<std::thread> clients;
        for (unsigned c = 0; c < kConnections; ++c) {
            clients.emplace_back([&, c] {
                std::string rsp;
                for (std::size_t i = c; i < block.size();
                     i += kConnections) {
                    const Request &r = block[i];
                    const double s0 = t.now();
                    const bool ok = conns[c].request(lines[r.spec], rsp);
                    samples[i] = {r.spec, r.repeat, s0, t.now() - s0};
                    std::lock_guard<std::mutex> lock(mu);
                    ++attempted;
                    if (!ok) {
                        fail("connection lost");
                        return;
                    }
                    if (rsp.rfind("{\"key\":", 0) != 0) {
                        fail("error response: " + rsp.substr(0, 200));
                        continue;
                    }
                    std::string &first = firstResponse[r.spec];
                    if (first.empty())
                        first = rsp;
                    else if (first != rsp)
                        fail("repeat differs from the first response");
                }
            });
        }
        for (auto &th : clients)
            th.join();
        return samples;
    };

    {
        Tracer warm(false);
        runBlock(makeBlock(kBlock / 2, true), warm);
    }

    Json blocks = Json::array();
    std::vector<Sample> timed;
    const double start = clock.now();
    unsigned n = 0;
    while (n < kMinBlocks || clock.now() - start < opts.seconds) {
        const std::vector<Request> block = makeBlock(kBlock, false);
        Tracer t(opts.trace && n % 2 == 0);
        const double b0 = t.now();
        std::vector<Sample> samples;
        {
            Span rep(t, "rep");
            samples = runBlock(block, t);
        }
        Json b = Json::object();
        b.set("wall_s", t.now() - b0);
        b.set("traced", t.recording());
        Json lat = Json::array();
        Json rep = Json::array();
        for (const Sample &s : samples) {
            lat.push(s.latency);
            rep.push(s.repeat);
        }
        b.set("latency_s", std::move(lat));
        b.set("repeat", std::move(rep));
        if (t.recording()) {
            // One span per request, under the block span, at its real
            // send and receive times.
            std::vector<SpanRecord> spans = t.take();
            const std::uint32_t root = spans.front().id;
            std::uint32_t id = root + 1;
            for (const Sample &s : samples) {
                spans.push_back({id++, root, "serve.request", s.start,
                                 s.start + s.latency});
            }
            b.set("spans", toJson(spans));
        }
        blocks.push(std::move(b));
        timed.insert(timed.end(), samples.begin(), samples.end());
        ++n;
    }
    report.set("blocks", std::move(blocks));

    // Server-side counters, then the simulating process's peak RSS.
    std::string stats;
    if (!conns[0].request("{\"cmd\":\"stats\"}\n", stats))
        throw std::runtime_error("stats request failed");
    report.set("serve_stats", Json::parse(stats));
    report.set("peak_rss_kb", daemonPeakRssKb(d.pid));
    d.first = std::move(conns[0]);
    conns.clear();
    d.stop();

    // Simulated cycles served: every distinct spec answered in the
    // timed blocks, counted once per request that simulated it.
    std::uint64_t simCycles = 0;
    std::vector<std::size_t> missOrder;
    {
        std::map<std::size_t, std::uint64_t> cyc;
        for (const Sample &s : timed) {
            if (s.repeat)
                continue;
            const std::string &rsp = firstResponse[s.spec];
            if (rsp.empty())
                continue;
            auto it = cyc.find(s.spec);
            if (it == cyc.end()) {
                it = cyc.emplace(s.spec, Json::parse(rsp)
                                             .at("result")
                                             .at("cycles")
                                             .asU64())
                         .first;
                missOrder.push_back(s.spec);
            }
            simCycles += it->second;
        }
    }
    report.set("sim_cycles", simCycles);

    // Cross-check a seeded sample against in-process execution, and
    // (traced) replay the first misses layer by layer.
    Rng sample(opts.seed ^ 0xc4ec);
    Json checks = Json::array();
    for (unsigned i = 0; i < kCrossChecks && !missOrder.empty(); ++i) {
        const std::size_t s = missOrder[sample.nextBelow(missOrder.size())];
        ++attempted;
        const std::string want =
            Json::parse(firstResponse[s]).at("result").str();
        const std::string got = runSpec(specs[s]).toJson().str();
        if (want != got)
            fail("served result differs from in-process runSpec");
        checks.push(s);
    }
    report.set("cross_checked", std::move(checks));

    if (opts.trace) {
        Tracer t(true);
        Counts counts;
        Json replays = Json::array();
        std::map<std::size_t, double> latency;
        for (const Sample &s : timed) {
            if (!s.repeat && !latency.count(s.spec))
                latency[s.spec] = s.latency;
        }
        for (std::size_t i = 0; i < missOrder.size() && i < kReplays; ++i) {
            const std::size_t s = missOrder[i];
            std::string text;
            Json r = replay(lines[s], t, counts, &text);
            ++attempted;
            if (text != Json::parse(firstResponse[s]).at("result").str())
                fail("replayed result differs from the served result");
            r.set("latency_s", latency[s]);
            replays.push(std::move(r));
        }
        Json rj = Json::object();
        rj.set("requests", std::move(replays));
        rj.set("spans", toJson(t.take()));
        rj.set("counts", toJson(counts));
        report.set("replay", std::move(rj));
    }

    Json chk = Json::object();
    chk.set("attempted", attempted);
    chk.set("failed", failed);
    Json why = Json::array();
    for (const auto &f : failures)
        why.push(f);
    chk.set("failures", std::move(why));
    report.set("checks", std::move(chk));
    report.set("warmup_requests", kBlock / 2);
    return report;
}

} // namespace perfbench
