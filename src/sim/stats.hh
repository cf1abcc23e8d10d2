/**
 * @file
 * A small statistics framework in the spirit of gem5's stats package.
 *
 * Components own a StatGroup; scalar statistics register themselves with
 * the group under a dotted name. Groups nest, and visit() reports the
 * whole tree under dotted paths.
 */

#ifndef VIP_SIM_STATS_HH
#define VIP_SIM_STATS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace vip {

class StatGroup;

/** A monotonically increasing 64-bit counter statistic. */
class Counter
{
  public:
    Counter() = default;
    Counter(StatGroup *parent, std::string name, std::string desc);

    Counter &operator++() { ++value_; return *this; }
    Counter &operator+=(std::uint64_t n) { value_ += n; return *this; }

    std::uint64_t value() const { return value_; }

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

  private:
    std::string name_;
    std::string desc_;
    std::uint64_t value_ = 0;
};

/**
 * A named collection of statistics belonging to one simulated component.
 * Child groups inherit the parent's name as a dotted prefix when
 * visited.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name, StatGroup *parent = nullptr);

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /** Register a counter (called from the Counter constructor). */
    void addCounter(Counter *c);

    /**
     * Register a derived statistic computed on demand at visit time
     * (e.g. a bandwidth formula over counters).
     */
    void addFormula(std::string name, std::string desc,
                    std::function<double()> fn);

    /**
     * Walk the whole subtree in registration order, reporting every
     * counter and formula under its dotted path rooted at this
     * group's name (e.g. "system.pe0.issued"). This is the one reader
     * of the statistics tree: RunResult's typed counter and formula
     * maps and the serve protocol's stats section are built from it.
     * Either callback may be empty.
     */
    struct Visitor
    {
        std::function<void(const std::string &path,
                           std::uint64_t value,
                           const std::string &desc)> onCounter;
        std::function<void(const std::string &path, double value,
                           const std::string &desc)> onFormula;
    };
    void visit(const Visitor &v) const;

    const std::string &name() const { return name_; }

  private:
    struct Formula
    {
        std::string name;
        std::string desc;
        std::function<double()> fn;
    };

    void visitImpl(const Visitor &v, const std::string &prefix) const;

    std::string name_;
    std::vector<Counter *> counters_;
    std::vector<Formula> formulas_;
    std::vector<StatGroup *> children_;
};

} // namespace vip

#endif // VIP_SIM_STATS_HH
