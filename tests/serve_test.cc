/**
 * @file
 * Tests for the vip-serve request/response surface: RunSpec JSON
 * round-trips, SystemConfig strict decoding, and the VipServer loop
 * driven over string streams exactly the way vip-serve drives it
 * over stdin — cache hits must be byte-identical, failures must come
 * back structured without killing the loop.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "serve/serve.hh"
#include "sim/json.hh"
#include "system/runspec.hh"

namespace vip {
namespace {

/// The same dot product simulation_test pins, so serve responses
/// carry real counters and a nontrivial DRAM result.
const char *kDotProduct = R"(
    mov.imm r1, 8
    set.vl r1
    mov.imm r2, 1
    set.mr r2
    mov.imm r10, 0x1000
    mov.imm r11, 0x1100
    mov.imm r12, 0x2000
    mov.imm r20, 0
    mov.imm r21, 64
    mov.imm r22, 128
    ld.sram[16] r20, r10, r1
    ld.sram[16] r21, r11, r1
    m.v.mul.add[16] r22, r20, r21
    v.drain
    st.sram[16] r22, r12, r2
    memfence
    halt
)";

RunSpec
dotSpec()
{
    RunSpec spec;
    spec.config = makeSystemConfig(2, 2);
    spec.programs.push_back({0, kDotProduct});
    spec.pokes.push_back({0x1000, {2, 3, 5, 7, 11, 13, 17, 19}});
    spec.pokes.push_back({0x1100, {1, 2, 3, 4, 5, 6, 7, 8}});
    spec.maxCycles = 200'000;
    return spec;
}

/// Split serve() output into its '\n'-terminated response lines.
std::vector<std::string>
lines(const std::string &text)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    for (;;) {
        const std::size_t nl = text.find('\n', start);
        if (nl == std::string::npos)
            break;
        out.push_back(text.substr(start, nl - start));
        start = nl + 1;
    }
    return out;
}

/// Run one request stream through a fresh inline server.
std::vector<std::string>
serveLines(const std::string &requests, const ServeOptions &opts = {})
{
    VipServer server(opts);
    std::istringstream in(requests);
    std::ostringstream out;
    server.serve(in, out);
    return lines(out.str());
}

TEST(RunSpec, JsonRoundTripIsLossless)
{
    RunSpec spec = dotSpec();
    spec.config.fastForward = false;
    spec.config.pe.strictHazards = true;
    spec.regs.push_back({0, 3, 0x1234});

    const std::string text = spec.toJson().str();
    const RunSpec back = RunSpec::fromJson(Json::parse(text));

    EXPECT_TRUE(back == spec);
    EXPECT_EQ(back.fingerprint(), spec.fingerprint());
    EXPECT_EQ(back.toJson().str(), text);
    // And the round-tripped spec simulates identically.
    EXPECT_EQ(runSpec(back).toJson().str(),
              runSpec(spec).toJson().str());
}

TEST(RunSpec, RoundTripSurvivesPerturbedSpecs)
{
    // Property-style sweep: vary every field group and require
    // fromJson(toJson(s)) == s with an equal fingerprint.
    for (unsigned i = 0; i < 8; ++i) {
        RunSpec spec;
        spec.config = makeSystemConfig(1u << (i % 4), 1 + i % 3);
        spec.config.watchdogCycles = 1000 * (i + 1);
        spec.config.fastForward = (i % 2) == 0;
        spec.maxCycles = 1000 + 17 * i;
        spec.programs.push_back({i % 2, "halt\n"});
        spec.pokes.push_back(
            {0x100 * (i + 1),
             {static_cast<std::int16_t>(i), -32768, 32767}});
        spec.regs.push_back({0, i % 8, 0xdeadbeef00ull + i});

        const RunSpec back =
            RunSpec::fromJson(Json::parse(spec.toJson().str()));
        EXPECT_TRUE(back == spec) << "spec " << i;
        EXPECT_EQ(back.fingerprint(), spec.fingerprint());
    }
}

TEST(RunSpec, FromJsonRejectsUnknownAndMalformedFields)
{
    EXPECT_THROW(RunSpec::fromJson(Json::parse("{\"bogus\": 1}")),
                 ConfigError);
    // A poke value outside int16 range must be rejected, not wrapped.
    EXPECT_THROW(
        RunSpec::fromJson(Json::parse(
            "{\"pokes\": [{\"addr\": 0, \"values\": [70000]}]}")),
        ConfigError);
}

TEST(SystemConfig, JsonRoundTripIsLossless)
{
    SystemConfig cfg = makeSystemConfig(8, 4);
    cfg.mem.timing.tCL = 13;
    cfg.mem.pagePolicy = PagePolicy::Closed;
    cfg.pe.lsqEntries = 12;
    cfg.watchdogCycles = 123456;
    cfg.fastForward = false;

    const SystemConfig back =
        SystemConfig::fromJson(Json::parse(cfg.toJson().str()));
    EXPECT_EQ(back.toJson().str(), cfg.toJson().str());
    EXPECT_EQ(back.mem.timing.tCL, 13u);
    EXPECT_EQ(back.mem.pagePolicy, PagePolicy::Closed);
    EXPECT_EQ(back.pe.lsqEntries, 12u);
    EXPECT_FALSE(back.fastForward);
}

TEST(SystemConfig, FromJsonRejectsUnknownKeysWithPath)
{
    try {
        SystemConfig::fromJson(
            Json::parse("{\"mem\": {\"timing\": {\"tCLL\": 9}}}"));
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("mem.timing.tCLL"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SystemConfig, FromJsonDerivesNocGridFromVaults)
{
    const SystemConfig cfg = SystemConfig::fromJson(
        Json::parse("{\"mem\": {\"geom\": {\"vaults\": 16}}}"));
    EXPECT_EQ(cfg.nocX, 4u);
    EXPECT_EQ(cfg.nocY, 4u);
    EXPECT_THROW(SystemConfig::fromJson(Json::parse(
                     "{\"mem\": {\"geom\": {\"vaults\": 6}}}")),
                 ConfigError);
}

/// The output side of a closed-loop client: collects the response
/// bytes and flags the first complete line.
class ResponseSink : public std::streambuf
{
  public:
    std::string text;
    std::atomic<bool> answered{false};

  protected:
    int_type
    overflow(int_type c) override
    {
        text.push_back(traits_type::to_char_type(c));
        if (c == '\n')
            answered.store(true, std::memory_order_release);
        return c;
    }
};

/// The input side of a closed-loop client: one request, then a stream
/// that stays open until the response arrives — or 10 s pass, so a
/// server that waits for more input fails instead of hanging — and
/// only then reports EOF.
class HeldOpenRequest : public std::streambuf
{
  public:
    HeldOpenRequest(std::string request, const std::atomic<bool> &answered)
        : request_(std::move(request)), answered_(answered)
    {}

    /// Had the response arrived by the time the stream closed?
    bool answeredWhileOpen = false;

  protected:
    int_type
    underflow() override
    {
        if (!sent_) {
            sent_ = true;
            setg(request_.data(), request_.data(),
                 request_.data() + request_.size());
            return traits_type::to_int_type(request_[0]);
        }
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!answered_.load(std::memory_order_acquire) &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        answeredWhileOpen = answered_.load(std::memory_order_acquire);
        return traits_type::eof();
    }

  private:
    std::string request_;
    const std::atomic<bool> &answered_;
    bool sent_ = false;
};

TEST(VipServer, PooledResponseIsWrittenWithoutFurtherInput)
{
    // A closed-loop client sends one request to a pooled daemon and
    // waits for the answer before it sends anything else: the response
    // must leave when the run finishes, not when more input arrives.
    ServeOptions opts;
    opts.jobs = 2;
    VipServer server(opts);
    Json req = Json::object();
    req.set("run", dotSpec().toJson());

    ResponseSink sink;
    HeldOpenRequest source(req.str() + "\n", sink.answered);
    std::istream in(&source);
    std::ostream out(&sink);
    server.serve(in, out);

    EXPECT_TRUE(source.answeredWhileOpen);
    const std::vector<std::string> rsp = lines(sink.text);
    ASSERT_EQ(rsp.size(), 1u);
    EXPECT_TRUE(
        Json::parse(rsp[0]).at("result").at("haltedCleanly").asBool());
}

TEST(VipServer, CacheHitIsByteIdenticalAndCounted)
{
    Json req = Json::object();
    req.set("run", dotSpec().toJson());
    const std::string line = req.str();

    VipServer server;
    std::istringstream in(line + "\n" + line + "\n" +
                          "{\"cmd\": \"stats\"}\n");
    std::ostringstream out;
    server.serve(in, out);

    const std::vector<std::string> rsp = lines(out.str());
    ASSERT_EQ(rsp.size(), 3u);
    // The hit re-emits the stored bytes: identical, and nothing in
    // the body says it was a hit.
    EXPECT_EQ(rsp[0], rsp[1]);
    EXPECT_EQ(rsp[0].find("cached"), std::string::npos);

    const Json body = Json::parse(rsp[0]);
    EXPECT_EQ(body.at("key").asString().size(), 16u);
    EXPECT_TRUE(body.at("result").at("haltedCleanly").asBool());
    EXPECT_GT(body.at("result").at("cycles").asU64(), 0u);

    EXPECT_EQ(server.requests(), 3u);
    EXPECT_EQ(server.cacheMisses(), 1u);
    EXPECT_EQ(server.cacheHits(), 1u);
    EXPECT_EQ(server.errors(), 0u);

    const Json stats = Json::parse(rsp[2]);
    EXPECT_EQ(stats.at("serve").at("cacheHits").asU64(), 1u);
    EXPECT_EQ(stats.at("serve").at("cacheMisses").asU64(), 1u);
    EXPECT_EQ(stats.at("serve").at("cacheEntries").asU64(), 1u);
}

TEST(VipServer, MalformedRequestsGetErrorsAndLoopSurvives)
{
    Json req = Json::object();
    req.set("run", dotSpec().toJson());

    // Config rejection: unknown key inside the run's config.
    Json bad_spec = Json::parse("{\"config\": {\"wombats\": 3}}");
    Json bad_req = Json::object();
    bad_req.set("run", std::move(bad_spec));

    // Inputs outside the machine: register r99, and a poke at 2^63.
    RunSpec bad_reg_spec = dotSpec();
    bad_reg_spec.regs.push_back({0, 99, 1});
    Json bad_reg = Json::object();
    bad_reg.set("run", bad_reg_spec.toJson());
    RunSpec bad_poke_spec = dotSpec();
    bad_poke_spec.pokes.push_back({Addr{1} << 63, {1}});
    Json bad_poke = Json::object();
    bad_poke.set("run", bad_poke_spec.toJson());
    // And a PE the machine does not have, for a program and a register.
    const std::string bad_program_pe =
        R"({"run":{"programs":[{"pe":9,"source":"halt\n"}]}})";
    const std::string bad_reg_pe =
        R"({"run":{"regs":[{"pe":9,"reg":1,"value":1}]}})";

    const std::string requests =
        "this is not json\n" +        // parse failure
        bad_req.str() + "\n" +        // ConfigError
        std::string("{\"cmd\": \"no-such-command\"}\n") +
        bad_reg.str() + "\n" +        // ConfigError, not an abort
        bad_poke.str() + "\n" +       // likewise
        bad_program_pe + "\n" +       // likewise
        bad_reg_pe + "\n" +           // likewise
        req.str() + "\n";             // still served after all that

    VipServer server;
    std::istringstream in(requests);
    std::ostringstream out;
    server.serve(in, out);

    const std::vector<std::string> rsp = lines(out.str());
    ASSERT_EQ(rsp.size(), 8u);
    EXPECT_EQ(Json::parse(rsp[0]).at("error").at("kind").asString(),
              "json");
    EXPECT_EQ(Json::parse(rsp[1]).at("error").at("kind").asString(),
              "config");
    EXPECT_NE(Json::parse(rsp[1])
                  .at("error")
                  .at("message")
                  .asString()
                  .find("wombats"),
              std::string::npos);
    EXPECT_EQ(Json::parse(rsp[2]).at("error").at("kind").asString(),
              "config");
    for (const auto &[i, field] :
         {std::pair{3, "regs[].reg"}, std::pair{4, "pokes[].addr"},
          std::pair{5, "programs[].pe = 9; the machine has"},
          std::pair{6, "regs[].pe = 9; the machine has"}}) {
        const Json doc = Json::parse(rsp[i]);
        const Json &err = doc.at("error");
        EXPECT_EQ(err.at("kind").asString(), "config");
        EXPECT_NE(err.at("message").asString().find(field),
                  std::string::npos)
            << rsp[i];
    }
    // The loop survived and the valid request still ran.
    EXPECT_TRUE(Json::parse(rsp[7])
                    .at("result")
                    .at("haltedCleanly")
                    .asBool());
    EXPECT_EQ(server.errors(), 7u);
    // The four out-of-machine specs parse, miss the cache and fail when
    // the simulation is built.
    EXPECT_EQ(server.cacheMisses(), 5u);
}

TEST(VipServer, AssemblyAndDeadlockFailuresAreStructured)
{
    RunSpec bad_asm = dotSpec();
    bad_asm.programs[0].source = "not_an_instruction r1, r2\n";
    Json asm_req = Json::object();
    asm_req.set("run", bad_asm.toJson());

    RunSpec spin;
    spin.config = makeSystemConfig(1, 1);
    spin.config.watchdogCycles = 2000;
    spin.programs.push_back({0, "spin:\n    jmp spin\n"});
    spin.maxCycles = 1'000'000;
    Json spin_req = Json::object();
    spin_req.set("run", spin.toJson());

    const std::vector<std::string> rsp =
        serveLines(asm_req.str() + "\n" + spin_req.str() + "\n");
    ASSERT_EQ(rsp.size(), 2u);
    EXPECT_EQ(Json::parse(rsp[0]).at("error").at("kind").asString(),
              "assembly");
    // The spinning program either deadlocks (watchdog) or exhausts
    // its budget; both must come back as a normal response, not kill
    // the server. A budget exhaustion is a clean non-halted result.
    const Json second = Json::parse(rsp[1]);
    if (const Json *err = second.find("error")) {
        EXPECT_EQ(err->at("kind").asString(), "deadlock");
    } else {
        EXPECT_FALSE(second.at("result").at("haltedCleanly").asBool());
    }
}

TEST(VipServer, LruEvictsAndCountsWhenBounded)
{
    ServeOptions opts;
    opts.cacheEntries = 1;
    VipServer server(opts);

    RunSpec a = dotSpec();
    RunSpec b = dotSpec();
    b.maxCycles += 1;  // distinct fingerprint
    Json ra = Json::object();
    ra.set("run", a.toJson());
    Json rb = Json::object();
    rb.set("run", b.toJson());

    std::istringstream in(ra.str() + "\n" + rb.str() + "\n" +
                          ra.str() + "\n");
    std::ostringstream out;
    server.serve(in, out);

    ASSERT_EQ(lines(out.str()).size(), 3u);
    EXPECT_EQ(server.cacheMisses(), 3u);  // a evicted by b, re-ran
    EXPECT_EQ(server.cacheHits(), 0u);
    EXPECT_EQ(server.cacheEvictions(), 2u);
}

TEST(VipServer, ShutdownStopsTheLoop)
{
    Json req = Json::object();
    req.set("run", dotSpec().toJson());

    VipServer server;
    std::istringstream in("{\"cmd\": \"shutdown\"}\n" + req.str() +
                          "\n");
    std::ostringstream out;
    server.serve(in, out);

    const std::vector<std::string> rsp = lines(out.str());
    ASSERT_EQ(rsp.size(), 1u);
    EXPECT_TRUE(Json::parse(rsp[0]).at("ok").asBool());
    EXPECT_TRUE(server.shutdownRequested());
    EXPECT_EQ(server.cacheMisses(), 0u);  // the run never dispatched
}

TEST(VipServer, ParallelPoolKeepsRequestOrder)
{
    // Distinct specs through a 4-worker pool must come back in
    // request order with the keys matching each spec's fingerprint.
    ServeOptions opts;
    opts.jobs = 4;
    VipServer server(opts);

    std::string requests;
    std::vector<std::string> want_keys;
    for (unsigned i = 0; i < 8; ++i) {
        RunSpec spec = dotSpec();
        spec.maxCycles = 200'000 + i;
        char buf[20];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(
                          spec.fingerprint()));
        want_keys.push_back(buf);
        Json req = Json::object();
        req.set("run", spec.toJson());
        requests += req.str() + "\n";
    }

    std::istringstream in(requests);
    std::ostringstream out;
    server.serve(in, out);

    const std::vector<std::string> rsp = lines(out.str());
    ASSERT_EQ(rsp.size(), 8u);
    for (unsigned i = 0; i < 8; ++i) {
        EXPECT_EQ(Json::parse(rsp[i]).at("key").asString(),
                  want_keys[i])
            << "response " << i;
    }
}

TEST(VipServer, RequestedFastPathOverridesTheDaemonDefault)
{
    // The daemon default applies only when the request's config omits
    // the key: "fastPath": true must run the fast path on a daemon
    // started with it off. Caching is off so every request runs.
    ServeOptions opts;
    opts.defaultFastPath = false;
    opts.cacheEntries = 0;

    Json omitted = Json::object();
    omitted.set("run", dotSpec().toJson());
    Json run = dotSpec().toJson();
    Json cfg = run.at("config");
    cfg.set("fastPath", true);
    run.set("config", std::move(cfg));
    Json explicit_on = Json::object();
    explicit_on.set("run", std::move(run));

    const std::string stats = "{\"cmd\": \"stats\"}\n";
    const std::vector<std::string> rsp = serveLines(
        omitted.str() + "\n" + stats + explicit_on.str() + "\n" + stats,
        opts);
    ASSERT_EQ(rsp.size(), 4u);
    // Same fingerprint: the host knob is not part of the key.
    EXPECT_EQ(Json::parse(rsp[0]).at("key").asString(),
              Json::parse(rsp[2]).at("key").asString());
    EXPECT_EQ(Json::parse(rsp[0]).at("result").str(),
              Json::parse(rsp[2]).at("result").str());
    auto block_runs = [](const std::string &line) -> std::uint64_t {
        const Json stats = Json::parse(line);
        const Json *n = stats.at("serve").at("fastpath").find("block_runs");
        return n ? n->asU64() : 0;
    };
    EXPECT_EQ(block_runs(rsp[1]), 0u);
    EXPECT_GT(block_runs(rsp[3]), 0u);
}

TEST(VipServer, ProgramFaultIsStructuredAndTheLoopSurvives)
{
    // A program whose st.sram operand lies past the scratchpad is the
    // user's fault: it answers with an error for that request, and the
    // next request on the same connection still runs.
    RunSpec bad = dotSpec();
    bad.programs[0].source = R"(
        mov.imm r1, 16
        mov.imm r10, 0x1000
        mov.imm r20, 0xFFFFFFF0
        st.sram[16] r20, r10, r1
        memfence
        halt
    )";
    Json bad_req = Json::object();
    bad_req.set("run", bad.toJson());
    Json good_req = Json::object();
    good_req.set("run", dotSpec().toJson());
    // A load past DRAM capacity is the program's fault too.
    RunSpec far = dotSpec();
    far.programs[0].source =
        "mov.imm r1, 0x7000000000000000\nld.reg[16] r2, r1\nhalt\n";
    Json far_req = Json::object();
    far_req.set("run", far.toJson());

    const std::vector<std::string> rsp =
        serveLines(bad_req.str() + "\n" + far_req.str() + "\n" +
                   good_req.str() + "\n");
    ASSERT_EQ(rsp.size(), 3u);
    const Json first = Json::parse(rsp[0]);
    const Json &err = first.at("error");
    EXPECT_EQ(err.at("kind").asString(), "program");
    EXPECT_NE(err.at("message").asString().find("pe0 pc 3: st.sram"),
              std::string::npos)
        << rsp[0];
    EXPECT_NE(Json::parse(rsp[1]).at("error").at("message").asString().find(
                  "pe0 pc 1: ld.reg of 2 B at 0x7000000000000000"),
              std::string::npos)
        << rsp[1];
    EXPECT_TRUE(Json::parse(rsp[2]).at("result").at("haltedCleanly").asBool());
}

} // namespace
} // namespace vip
