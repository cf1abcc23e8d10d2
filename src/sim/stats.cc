#include "sim/stats.hh"

#include "sim/logging.hh"

namespace vip {

Counter::Counter(StatGroup *parent, std::string name, std::string desc)
    : name_(std::move(name)), desc_(std::move(desc))
{
    vip_assert(parent != nullptr, "counter '", name_, "' needs a group");
    parent->addCounter(this);
}

StatGroup::StatGroup(std::string name, StatGroup *parent)
    : name_(std::move(name))
{
    if (parent)
        parent->children_.push_back(this);
}

void
StatGroup::addCounter(Counter *c)
{
    counters_.push_back(c);
}

void
StatGroup::addFormula(std::string name, std::string desc,
                      std::function<double()> fn)
{
    formulas_.push_back({std::move(name), std::move(desc), std::move(fn)});
}

void
StatGroup::visit(const Visitor &v) const
{
    visitImpl(v, "");
}

void
StatGroup::visitImpl(const Visitor &v, const std::string &prefix) const
{
    const std::string base = prefix.empty() ? name_ : prefix + "." + name_;
    if (v.onCounter) {
        for (const auto *c : counters_)
            v.onCounter(base + "." + c->name(), c->value(), c->desc());
    }
    if (v.onFormula) {
        for (const auto &f : formulas_)
            v.onFormula(base + "." + f.name, f.fn(), f.desc);
    }
    for (const auto *g : children_)
        g->visitImpl(v, base);
}

} // namespace vip
