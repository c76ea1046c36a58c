/**
 * @file
 * A small gem5-inspired statistics package.
 *
 * Components register named statistics in a StatGroup; the group can
 * be dumped as text or queried programmatically by the experiment
 * harnesses. Supported statistic kinds:
 *
 *  - Scalar:    a single counter or value.
 *  - Average:   a running mean with count/sum/min/max.
 *
 * A statistic can only be made by StatGroup::add*, which registers
 * it: every constructor takes a StatKey, which only StatGroup can
 * create, and a statistic cannot be copied. So no counter can exist
 * outside the stats tree (tests/compile_fail/stat_only_from_group.cc).
 */

#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "stats/json.hh"

namespace mtlbsim::stats
{

class StatGroup;

/** The passkey every statistic's constructor takes; only StatGroup
 *  can make one, so a statistic exists only once registered. */
class StatKey
{
    friend class StatGroup;
    StatKey() = default;
};

/** Abstract named statistic. */
class StatBase
{
  public:
    StatBase(StatKey, std::string name, std::string desc)
        : name_(std::move(name)), desc_(std::move(desc))
    {}
    StatBase(const StatBase &) = delete;
    StatBase &operator=(const StatBase &) = delete;
    virtual ~StatBase() = default;

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

    /** Reset the statistic to its initial state. */
    virtual void reset() = 0;

    /** Print one or more "name value # desc" lines. */
    virtual void print(std::ostream &os, const std::string &prefix)
        const = 0;

    /**
     * Structured value for machine consumption (golden files, the
     * sweep runner). Every kind emits an object with a "kind" member;
     * the remaining members are kind-specific (see docs/manual.md).
     */
    virtual json::Value toJson() const = 0;

  private:
    std::string name_;
    std::string desc_;
};

/**
 * A holder of counts that belong to registered Scalars but are added
 * in later, in bulk: the batch engine defers its per-access
 * increments this way (cpu/cpu.hh). A Scalar bound to a source
 * realizes it before every read and before a reset, so no reader can
 * see a lagging count and none has to flush first.
 */
class DeferredSource
{
  public:
    /** Add every pending count to its Scalar (Scalar::addCount).
     *  Count-preserving: realizing at any point changes no final
     *  value. */
    virtual void realize() const = 0;

  protected:
    ~DeferredSource() = default;
};

/** A single scalar counter/value. */
class Scalar : public StatBase
{
  public:
    using StatBase::StatBase;

    /** Hold part of this counter in @p source: value(), print(),
     *  toJson() and reset() realize the source first. */
    void deferTo(const DeferredSource &source) { source_ = &source; }

    Scalar &operator++() { ++value_; return *this; }
    Scalar &operator+=(double v) { value_ += v; return *this; }
    Scalar &operator=(double v) { value_ = v; return *this; }

    /**
     * Add @p n as one bulk increment, byte-identical to applying
     * operator++ @p n times. Exactness rests on IEEE-754 double
     * addition being exact for integer operands whose sum stays
     * below 2^53; counters are integral by construction, and the
     * guard enforces the magnitude bound so a silent rounding can
     * never decouple a bulk-replayed counter from its per-event
     * twin (the batch engine's equivalence contract, DESIGN.md §7).
     */
    Scalar &
    addCount(std::uint64_t n)
    {
        const double sum = value_ + static_cast<double>(n);
        panicIf(sum > 9007199254740992.0, // 2^53
                "bulk increment of ", name(), " by ", n,
                " exceeds exact-integer range");
        value_ = sum;
        return *this;
    }

    double
    value() const
    {
        if (source_)
            source_->realize();
        return value_;
    }

    void
    reset() override
    {
        if (source_)
            source_->realize();
        value_ = 0;
    }

    void print(std::ostream &os, const std::string &prefix) const override;
    json::Value toJson() const override;

  private:
    double value_ = 0;
    const DeferredSource *source_ = nullptr;
};

/** Running mean with count, sum, min, and max. */
class Average : public StatBase
{
  public:
    using StatBase::StatBase;

    /** Record one sample. */
    void
    sample(double v)
    {
        ++count_;
        sum_ += v;
        if (v < min_) min_ = v;
        if (v > max_) max_ = v;
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    /** With no samples the +/-inf tracking sentinels are never
     *  reported: min()/max() read 0 and toJson() omits the members
     *  entirely. */
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

    void
    reset() override
    {
        count_ = 0;
        sum_ = 0;
        min_ = std::numeric_limits<double>::infinity();
        max_ = -std::numeric_limits<double>::infinity();
    }

    void print(std::ostream &os, const std::string &prefix) const override;
    json::Value toJson() const override;

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * A named collection of statistics belonging to one component.
 *
 * Groups own their stats; components hold references obtained from
 * the add* factory methods. Groups may nest via child groups.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    const std::string &name() const { return name_; }

    Scalar &addScalar(const std::string &name, const std::string &desc);
    Average &addAverage(const std::string &name, const std::string &desc);

    /** Register a child group (not owned). */
    void addChild(StatGroup *child);

    /** Find a statistic by name in this group only; null if absent. */
    const StatBase *find(const std::string &name) const;

    /** Reset this group's stats and all children. */
    void resetAll();

    /** Dump "group.stat value # desc" lines, recursively. */
    void print(std::ostream &os, const std::string &prefix = "") const;

    /**
     * Structured dump: {"stats": {name: ...}, "groups": {name: ...}},
     * in registration order, recursively. Registration order is
     * deterministic, so the serialized form is byte-stable across
     * runs and thread schedules.
     */
    json::Value toJson() const;

  private:
    std::string name_;
    std::vector<std::unique_ptr<StatBase>> stats_;
    std::vector<StatGroup *> children_;
};

} // namespace mtlbsim::stats
