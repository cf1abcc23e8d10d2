/**
 * @file
 * vip-bench: runs one benchmark workload against the simulator
 * library and prints the raw report as one JSON document.
 *
 *   vip-bench --workload NAME --seed N --seconds S --trace 0|1
 *              [--serve-bin PATH --socket-dir DIR]
 *
 * Workloads: vgg_tiles, bp_memsweep (campaigns.cc) and
 * serve_mixed (serve_mixed.cc). perfbench/run.py builds this binary,
 * runs it and derives the metrics; see perfbench/BENCHMARK.md.
 * Exits 1 (after printing the reason on stderr) when the workload
 * cannot run at all; per-point failures are reported, not fatal.
 */

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "harness.hh"
#include "sim/sweep.hh"

namespace perfbench {

void
addRunCounts(Counts &into, const vip::RunResult &r)
{
    // "system.pe3.instructions" -> "pe.instructions",
    // "system.hmc.vault5.row_hits" -> "mem.row_hits",
    // "system.noc.delivered" -> "noc.delivered".
    for (const auto &[path, value] : r.counters) {
        const auto last = path.rfind('.');
        const std::string leaf = path.substr(last + 1);
        if (path.rfind("system.pe", 0) == 0)
            into["pe." + leaf] += value;
        else if (path.rfind("system.hmc.vault", 0) == 0)
            into["mem." + leaf] += value;
        else if (path.rfind("system.noc.", 0) == 0)
            into["noc." + leaf] += value;
    }
    for (const auto &[name, value] : r.fastpath)
        into["pe.fastpath." + name] += value;
    for (const std::uint64_t a : r.peRequestAllocations)
        into["pe.request_allocs"] += a;
    into["system.sim_cycles"] += r.cycles;
    into["system.ff_cycles"] += r.fastForwardedCycles;
}

vip::Json
toJson(const Counts &c)
{
    vip::Json j = vip::Json::object();
    for (const auto &[k, v] : c)
        j.set(k, v);
    return j;
}

vip::Json
toJson(const PointRecord &p)
{
    vip::Json j = vip::Json::object();
    j.set("name", p.name);
    j.set("ok", p.ok);
    if (!p.ok)
        j.set("error", p.error);
    j.set("cycles", p.cycles);
    j.set("dram_bytes", p.dramBytes);
    j.set("work_items", p.workItems);
    j.set("latency_s", p.latency);
    j.set("counts", toJson(p.counts));
    return j;
}

vip::Json
toJson(const std::vector<SpanRecord> &spans)
{
    // Compact rows: [id, parent, name, start, end].
    vip::Json a = vip::Json::array();
    for (const SpanRecord &s : spans) {
        vip::Json row = vip::Json::array();
        row.push(s.id);
        row.push(s.parent);
        row.push(s.name);
        row.push(s.start);
        row.push(s.end);
        a.push(std::move(row));
    }
    return a;
}

std::uint64_t
selfPeakRssKb()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<std::uint64_t>(ru.ru_maxrss);
}

} // namespace perfbench

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: vip-bench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--serve-bin PATH "
                 "--socket-dir DIR]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage();
        const char *v = argv[++i];
        if (a == "--workload")
            opts.workload = v;
        else if (a == "--seed")
            opts.seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds")
            opts.seconds = std::atof(v);
        else if (a == "--trace")
            opts.trace = std::strcmp(v, "0") != 0;
        else if (a == "--serve-bin")
            opts.serveBin = v;
        else if (a == "--socket-dir")
            opts.socketDir = v;
        else
            return usage();
    }
    if (opts.workload.empty() || opts.seconds <= 0)
        return usage();

    try {
        vip::Json report = opts.workload == "serve_mixed"
                               ? perfbench::runServeMixed(opts)
                               : perfbench::runCampaign(opts);
        vip::Json host = vip::Json::object();
        host.set("nproc", vip::SweepEngine::hardwareJobs());
        host.set("compiler", PERFBENCH_COMPILER);
        host.set("build_type", PERFBENCH_BUILD_TYPE);
        report.set("host", std::move(host));
        report.set("workload", opts.workload);
        report.set("seed", opts.seed);
        report.set("traced", opts.trace);
        std::cout << report.str() << "\n";
        std::cout.flush();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "vip-bench: %s\n", e.what());
        return 1;
    }
    return 0;
}
