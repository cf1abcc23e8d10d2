/**
 * @file
 * Shared pieces of the benchmark harness: options, the per-point
 * record every campaign workload produces, and the report helpers.
 *
 * The harness prints one JSON document (the raw report) on stdout;
 * perfbench/run.py turns it into the benchmark's metrics. Everything
 * here is raw observation — host seconds, exact simulated counts,
 * spans — and no statistics: the medians, percentiles and ratios live
 * in perfbench/benchlib.py, where they are unit-tested.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/json.hh"
#include "system/simulation.hh"
#include "trace.hh"

namespace perfbench {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;

    /** serve_mixed: the daemon binary and a short directory for its
     *  unix socket (socket paths are length-limited). */
    std::string serveBin;
    std::string socketDir;
};

/** Exact simulated counts summed over a workload's runs. Keys are the
 *  benchmark's metric names (see perfbench/BENCHMARK.md). */
using Counts = std::map<std::string, std::uint64_t>;

/** Add one finished simulation's counters into @p into. */
void addRunCounts(Counts &into, const vip::RunResult &r);

/** One simulated sweep point of a campaign workload. */
struct PointRecord
{
    std::string name;
    bool ok = true;
    std::string error;
    std::uint64_t cycles = 0;
    std::uint64_t dramBytes = 0;
    std::uint64_t workItems = 0;
    double latency = 0;  ///< host seconds, build through collect
    Counts counts;
};

vip::Json toJson(const PointRecord &p);
vip::Json toJson(const std::vector<SpanRecord> &spans);
vip::Json toJson(const Counts &c);

/** Peak resident set of this process, in KiB. */
std::uint64_t selfPeakRssKb();

/** Workload entry points; each returns the raw report. */
vip::Json runCampaign(const Options &opts);
vip::Json runServeMixed(const Options &opts);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
