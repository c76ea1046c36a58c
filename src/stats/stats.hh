/**
 * @file
 * A small gem5-inspired statistics package.
 *
 * Components register named statistics in a StatGroup; the group can
 * be dumped as text or queried programmatically by the experiment
 * harnesses. Every statistic is an integer count, and the text dump
 * spells each value as the JSON dump does. Supported kinds:
 *
 *  - Scalar:    a counter that only counts up, and may include other
 *               counts: it reads as its own count plus theirs.
 *  - Average:   integer samples' count/sum/min/max; the mean is the
 *               one derived (double) value.
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
 * A counter: it starts at zero and only counts up. A counter may also
 * be made of other counts. It may include another Scalar, or a host
 * std::uint64_t that a component bumps on a hot path, and it reads as
 * its own count plus everything it includes, summed at the read.
 * Nothing is copied in or realized, so a sum cannot disagree with its
 * parts and no reader can see a lagging count.
 */
class Scalar : public StatBase
{
  public:
    using StatBase::StatBase;

    Scalar &operator++() { ++value_; return *this; }
    /** Count @p n at once, the same as @p n increments. */
    Scalar &operator+=(std::uint64_t n) { value_ += n; return *this; }

    /** Count @p part, with everything it includes, in this counter.
     *  @p part must outlive every read of this counter. */
    void include(const Scalar *part) { scalars_.push_back(part); }
    /** Count the host counter @p count in this counter. @p count
     *  must outlive every read of this counter. */
    void include(const std::uint64_t *count) { counts_.push_back(count); }

    std::uint64_t
    value() const
    {
        std::uint64_t v = value_;
        for (const std::uint64_t *count : counts_)
            v += *count;
        for (const Scalar *part : scalars_)
            v += part->value();
        return v;
    }

    void print(std::ostream &os, const std::string &prefix) const override;
    json::Value toJson() const override;

  private:
    std::uint64_t value_ = 0;
    std::vector<const std::uint64_t *> counts_;
    std::vector<const Scalar *> scalars_;
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
