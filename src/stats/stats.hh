/**
 * @file
 * A small gem5-inspired statistics package.
 *
 * Components register named statistics in a StatGroup; the group can
 * be dumped as text or queried programmatically by the experiment
 * harnesses. Every statistic is an integer count: bulk adds are plain
 * integer sums, and the text and JSON dumps spell a value the same
 * way (json::formatNumber). Supported kinds:
 *
 *  - Scalar:    a counter that only counts up.
 *  - Average:   integer samples' count/sum/min/max; the mean is the
 *               one derived (double) value.
 *
 * A counter that a DeferredSource holds in part is realized before
 * every read (value(), print(), toJson()), and at no other time.
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
 * realizes it before every read, so no reader can see a lagging
 * count and none has to flush first.
 */
class DeferredSource
{
  public:
    /** Add every pending count to its Scalar (Scalar::operator+=).
     *  Count-preserving: realizing at any point changes no final
     *  value. */
    virtual void realize() const = 0;

  protected:
    ~DeferredSource() = default;
};

/** A counter: it starts at zero and only counts up. */
class Scalar : public StatBase
{
  public:
    using StatBase::StatBase;

    /** Hold part of this counter in @p source: value(), print() and
     *  toJson() realize the source first. */
    void deferTo(const DeferredSource &source) { source_ = &source; }

    Scalar &operator++() { ++value_; return *this; }
    /** Count @p n at once, the same as @p n increments. */
    Scalar &operator+=(std::uint64_t n) { value_ += n; return *this; }

    std::uint64_t
    value() const
    {
        if (source_)
            source_->realize();
        return value_;
    }

    void print(std::ostream &os, const std::string &prefix) const override;
    json::Value toJson() const override;

  private:
    std::uint64_t value_ = 0;
    const DeferredSource *source_ = nullptr;
};

/** Count, sum, min and max of non-negative integer samples. */
class Average : public StatBase
{
  public:
    using StatBase::StatBase;

    /** Record one sample. */
    void
    sample(std::uint64_t v)
    {
        ++count_;
        sum_ += v;
        if (v < min_) min_ = v;
        if (v > max_) max_ = v;
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    double
    mean() const
    {
        return count_ ? static_cast<double>(sum_) /
                            static_cast<double>(count_)
                      : 0.0;
    }
    /** With no samples min() and max() read 0 and toJson() omits
     *  them. */
    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return max_; }

    void print(std::ostream &os, const std::string &prefix) const override;
    json::Value toJson() const override;

  private:
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t max_ = 0;
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
