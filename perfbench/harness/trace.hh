/**
 * @file
 * Host-time spans recorded from outside the simulator.
 *
 * Every call the benchmark makes into a simulator layer (machine
 * construction, DRAM staging, kernel generation, program load, run,
 * JSON parse/emit) is wrapped in a Span. A span always adds its
 * duration to a per-name total, which the untraced run needs for
 * set-up time; with tracing on it also keeps the full record (name,
 * start, end, parent) in memory until the harness writes the report.
 * Spans nest: the parent of a span is the innermost span open when it
 * started, so a layer's self time is its duration minus what its
 * children cover.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord
{
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0 = no parent
    std::string name;
    double start = 0;  ///< seconds since the tracer's epoch
    double end = 0;
};

class Tracer
{
  public:
    explicit Tracer(bool record) : record_(record) {}

    bool recording() const { return record_; }

    /** Seconds since construction (steady clock). */
    double
    now() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - epoch_)
            .count();
    }

    std::uint32_t
    open(const char *name)
    {
        const std::uint32_t id = nextId_++;
        open_.push_back({id, open_.empty() ? 0u : open_.back().id,
                         name, now(), 0});
        return id;
    }

    /** Close the innermost open span; returns its duration. */
    double
    close()
    {
        SpanRecord r = std::move(open_.back());
        open_.pop_back();
        r.end = now();
        const double d = r.end - r.start;
        totals_[r.name] += d;
        if (record_)
            done_.push_back(std::move(r));
        return d;
    }

    /**
     * Record a span measured by the library itself (RunResult's
     * hostSeconds) as a child of the innermost open span, starting
     * where that span started.
     */
    void
    addChild(const char *name, double seconds)
    {
        totals_[name] += seconds;
        if (!record_)
            return;
        const SpanRecord &p = open_.back();
        done_.push_back({nextId_++, p.id, name, p.start,
                         p.start + seconds});
    }

    /** Per-name duration sums since the last reset. */
    const std::map<std::string, double> &totals() const { return totals_; }

    /** Hand over the recorded spans and clear the totals. */
    std::vector<SpanRecord>
    take()
    {
        totals_.clear();
        std::vector<SpanRecord> out;
        out.swap(done_);
        return out;
    }

  private:
    bool record_;
    std::chrono::steady_clock::time_point epoch_ =
        std::chrono::steady_clock::now();
    std::uint32_t nextId_ = 1;
    std::vector<SpanRecord> open_;
    std::vector<SpanRecord> done_;
    std::map<std::string, double> totals_;
};

/** RAII span. */
class Span
{
  public:
    Span(Tracer &t, const char *name) : t_(t) { t_.open(name); }
    ~Span() { t_.close(); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &t_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
