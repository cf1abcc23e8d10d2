#include "system/runspec.hh"

#include <limits>
#include <utility>

#include "sim/cancel.hh"
#include "sim/json.hh"

namespace vip {

namespace {

/** Reject keys outside @p allowed, naming the path (the RunSpec
 *  analogue of config_json.cc's StrictObject, for flat objects). */
void
rejectUnknown(const Json &j, const std::string &path,
              std::initializer_list<const char *> allowed)
{
    for (const auto &[key, value] : j.asObject()) {
        bool known = false;
        for (const char *a : allowed) {
            if (key == a) {
                known = true;
                break;
            }
        }
        if (!known)
            throw ConfigError("unknown key \"" + path + key + "\"");
    }
}

/** @p j as an unsigned, naming @p path when it does not fit. */
unsigned
asUnsigned(const Json &j, const char *path)
{
    const std::uint64_t v = j.asU64();
    if (v > std::numeric_limits<unsigned>::max())
        throw ConfigError(std::string(path) + " = " + std::to_string(v) +
                          " is out of range");
    return static_cast<unsigned>(v);
}

} // namespace

Json
RunSpec::toJson() const
{
    Json j = Json::object();
    j.set("config", config.toJson());
    Json progs = Json::array();
    for (const Program &p : programs) {
        Json pj = Json::object();
        pj.set("pe", p.pe);
        pj.set("source", p.source);
        progs.push(std::move(pj));
    }
    j.set("programs", std::move(progs));
    Json pokesj = Json::array();
    for (const DramPoke &p : pokes) {
        Json pj = Json::object();
        pj.set("addr", static_cast<std::uint64_t>(p.addr));
        Json values = Json::array();
        for (const std::int16_t v : p.values)
            values.push(static_cast<std::int64_t>(v));
        pj.set("values", std::move(values));
        pokesj.push(std::move(pj));
    }
    j.set("pokes", std::move(pokesj));
    Json regsj = Json::array();
    for (const RegSet &r : regs) {
        Json rj = Json::object();
        rj.set("pe", r.pe);
        rj.set("reg", r.reg);
        rj.set("value", r.value);
        regsj.push(std::move(rj));
    }
    j.set("regs", std::move(regsj));
    j.set("maxCycles", static_cast<std::uint64_t>(maxCycles));
    if (budgetMs != 0)
        j.set("budgetMs", budgetMs);
    return j;
}

RunSpec
RunSpec::fromJson(const Json &j)
{
    RunSpec spec;
    rejectUnknown(j, "",
                  {"config", "programs", "pokes", "regs", "maxCycles",
                   "budgetMs"});
    if (const Json *c = j.find("config"))
        spec.config = SystemConfig::fromJson(*c, spec.config);
    if (const Json *progs = j.find("programs")) {
        for (const Json &pj : progs->asArray()) {
            rejectUnknown(pj, "programs[].", {"pe", "source"});
            Program p;
            p.pe = asUnsigned(pj.at("pe"), "programs[].pe");
            p.source = pj.at("source").asString();
            spec.programs.push_back(std::move(p));
        }
    }
    if (const Json *pokes = j.find("pokes")) {
        for (const Json &pj : pokes->asArray()) {
            rejectUnknown(pj, "pokes[].", {"addr", "values"});
            DramPoke p;
            p.addr = static_cast<Addr>(pj.at("addr").asU64());
            for (const Json &v : pj.at("values").asArray()) {
                const std::int64_t val = v.asI64();
                if (val < -32768 || val > 32767) {
                    throw ConfigError(
                        "pokes[].values: " + std::to_string(val) +
                        " does not fit in a 16-bit DRAM word");
                }
                p.values.push_back(static_cast<std::int16_t>(val));
            }
            spec.pokes.push_back(std::move(p));
        }
    }
    if (const Json *regs = j.find("regs")) {
        for (const Json &rj : regs->asArray()) {
            rejectUnknown(rj, "regs[].", {"pe", "reg", "value"});
            RegSet r;
            r.pe = asUnsigned(rj.at("pe"), "regs[].pe");
            r.reg = asUnsigned(rj.at("reg"), "regs[].reg");
            r.value = rj.at("value").asU64();
            spec.regs.push_back(r);
        }
    }
    if (const Json *mc = j.find("maxCycles"))
        spec.maxCycles = static_cast<Cycles>(mc->asU64());
    if (const Json *bm = j.find("budgetMs"))
        spec.budgetMs = bm->asU64();
    return spec;
}

std::uint64_t
RunSpec::fingerprint() const
{
    // The budget and fast-forward bound or speed up host execution,
    // never results: hash as if each were at its default (0, on), so
    // a cached success answers every setting and default-knob keys
    // stay what they were. Islands stay keyed: under fault campaigns
    // they may diverge (docs/INTERNALS.md, "Documented divergences").
    if (budgetMs != 0 || !config.fastForward) {
        RunSpec host_default = *this;
        host_default.budgetMs = 0;
        host_default.config.fastForward = true;
        return fnv1a(host_default.toJson().str());
    }
    return fnv1a(toJson().str());
}

std::unique_ptr<Simulation>
buildSimulation(const RunSpec &spec)
{
    auto sim = std::make_unique<Simulation>(spec.config);
    const std::uint64_t capacity = spec.config.mem.geom.capacity();
    for (const RunSpec::DramPoke &p : spec.pokes) {
        const std::uint64_t bytes = 2 * std::uint64_t{p.values.size()};
        if (p.addr > capacity || bytes > capacity - p.addr)
            throw ConfigError("pokes[].addr = " + std::to_string(p.addr) +
                              ": " + std::to_string(bytes) +
                              " B run past DRAM capacity");
        sim->pokeDram(p.addr, p.values);
    }
    const unsigned num_pes = sim->system().numPes();
    auto check_pe = [num_pes](const char *field, unsigned pe) {
        if (pe >= num_pes)
            throw ConfigError(std::string(field) + " = " +
                              std::to_string(pe) + "; the machine has " +
                              std::to_string(num_pes) + " PEs");
    };
    for (const RunSpec::RegSet &r : spec.regs) {
        check_pe("regs[].pe", r.pe);
        if (r.reg >= kNumScalarRegs)
            throw ConfigError("regs[].reg = " + std::to_string(r.reg) +
                              "; registers are r0..r63");
        sim->setReg(r.pe, r.reg, r.value);
    }
    for (const RunSpec::Program &p : spec.programs) {
        check_pe("programs[].pe", p.pe);
        sim->loadProgram(p.pe, p.source);
    }
    return sim;
}

RunResult
runSpec(const RunSpec &spec, CancelToken *cancel)
{
    CancelToken local;
    CancelToken *tok = cancel;
    if (tok) {
        tok->setBudgetMs(spec.budgetMs);
    } else if (spec.budgetMs != 0) {
        local.setBudgetMs(spec.budgetMs);
        tok = &local;
    }
    auto sim = buildSimulation(spec);
    return sim->run(spec.maxCycles, tok);
}

} // namespace vip
