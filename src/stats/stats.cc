#include "stats/stats.hh"

#include <iomanip>
#include <sstream>

#include "base/logging.hh"

namespace mtlbsim::stats
{

namespace
{

/** One "name value # desc" line; the value is spelled by the JSON
 *  printer, so the two dumps agree digit for digit. */
void
printLine(std::ostream &os, const std::string &prefix,
          const std::string &name, const json::Value &value,
          const std::string &desc)
{
    std::ostringstream full;
    full << prefix << name;
    os << std::left << std::setw(44) << full.str() << ' '
       << std::right << std::setw(16) << value.dumped(0);
    if (!desc.empty())
        os << "  # " << desc;
    os << '\n';
}

} // namespace

void
Scalar::print(std::ostream &os, const std::string &prefix) const
{
    printLine(os, prefix, name(), value(), desc());
}

json::Value
Scalar::toJson() const
{
    auto v = json::Value::object();
    v.set("kind", "scalar");
    v.set("value", value());
    return v;
}

void
Average::print(std::ostream &os, const std::string &prefix) const
{
    printLine(os, prefix, name() + ".mean", mean(), desc());
    printLine(os, prefix, name() + ".count", count(), "");
    printLine(os, prefix, name() + ".min", min(), "");
    printLine(os, prefix, name() + ".max", max(), "");
}

json::Value
Average::toJson() const
{
    auto v = json::Value::object();
    v.set("kind", "average");
    v.set("count", count());
    v.set("sum", sum());
    v.set("mean", mean());
    // No samples, no extremes: omit the members rather than print
    // the tracking sentinel.
    if (count()) {
        v.set("min", min());
        v.set("max", max());
    }
    return v;
}

Scalar &
StatGroup::addScalar(const std::string &name, const std::string &desc)
{
    auto stat = std::make_unique<Scalar>(StatKey{}, name, desc);
    auto &ref = *stat;
    stats_.push_back(std::move(stat));
    return ref;
}

Average &
StatGroup::addAverage(const std::string &name, const std::string &desc)
{
    auto stat = std::make_unique<Average>(StatKey{}, name, desc);
    auto &ref = *stat;
    stats_.push_back(std::move(stat));
    return ref;
}

void
StatGroup::addChild(StatGroup *child)
{
    panicIf(child == nullptr, "null child stat group");
    children_.push_back(child);
}

void
StatGroup::print(std::ostream &os, const std::string &prefix) const
{
    std::string full = prefix.empty() ? name_ : prefix + "." + name_;
    for (const auto &s : stats_)
        s->print(os, full + ".");
    for (const auto *c : children_)
        c->print(os, full);
}

json::Value
StatGroup::toJson() const
{
    auto v = json::Value::object();
    auto stats = json::Value::object();
    for (const auto &s : stats_)
        stats.set(s->name(), s->toJson());
    v.set("stats", std::move(stats));
    auto groups = json::Value::object();
    for (const auto *c : children_)
        groups.set(c->name(), c->toJson());
    v.set("groups", std::move(groups));
    return v;
}

} // namespace mtlbsim::stats
