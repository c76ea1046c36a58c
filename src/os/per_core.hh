/**
 * @file
 * Per-core state whose confinement is a type property.
 *
 * The shared kernel keeps one record per core. A kernel entry runs
 * on behalf of one core, the active one, and may change only that
 * core's record; the TLB-shootdown broadcast is the one operation
 * that must reach every core. PerCore offers exactly those two
 * mutable paths: active() and broadcast(). It has no subscript and no
 * iterators, and at() yields a const view, so poking a remote core's
 * TLB from an ordinary kernel path does not compile (the element type
 * must make its constness deep for that to hold; Kernel::CoreCtx
 * does).
 */

#pragma once

#include <utility>
#include <vector>

#include "base/logging.hh"

namespace mtlbsim
{

template <typename T>
class PerCore
{
  public:
    /** Wire one more core; the first one added starts active. */
    void add(T core) { items_.push_back(std::move(core)); }

    unsigned
    size() const
    {
        return static_cast<unsigned>(items_.size());
    }

    /** Make @p core the active one. */
    void
    activate(unsigned core)
    {
        panicIf(core >= items_.size(), "no core ", core);
        active_ = core;
    }

    unsigned activeIndex() const { return active_; }

    /** The active core's record. Unchecked: it sits on the TLB-miss
     *  path, and activate() already checked the index. */
    T &active() { return items_[active_]; }
    const T &active() const { return items_[active_]; }

    /** Read-only view of any core's record. */
    const T &
    at(unsigned core) const
    {
        panicIf(core >= items_.size(), "no core ", core);
        return items_[core];
    }

    /** The shootdown broadcast: call @p fn(record, remote) on every
     *  core in index order, where remote is false only for the
     *  active core. */
    template <typename Fn>
    void
    broadcast(Fn &&fn)
    {
        for (unsigned c = 0; c < items_.size(); ++c)
            fn(items_[c], c != active_);
    }

  private:
    std::vector<T> items_;
    unsigned active_ = 0;
};

} // namespace mtlbsim
