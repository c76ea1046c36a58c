/**
 * @file
 * Interprocedural call-graph engine for mtlb-lint.
 *
 * Builds a project-wide call graph over the token streams of every
 * scanned translation unit and computes one summary per function
 * definition:
 *
 *   - bumpsEpoch            calls the configured epoch call somewhere
 *   - flushesBatch          calls flushBatch() somewhere
 *   - mutates               calls a configured translation-state
 *                           mutator somewhere
 *   - touchesPerCore        subscripts a configured per-core
 *                           container with a non-active-core index
 *   - unprotectedRead       reads deferred statistics (a configured
 *                           r12-reader call) with no batch flush
 *                           earlier in the body
 *   - hooksFired            KernelObserver hooks fired somewhere
 *
 * Summaries propagate through calls to a fixpoint so that helper
 * indirection is transparent to the protocol rules: a kernel function
 * that mutates and then calls a helper which retires the translation
 * satisfies R1 without `allow()` escapes.
 *
 * Name resolution is per unqualified name (no type inference), and
 * deliberately confined to the *defining file* of the caller: a call
 * site resolves to every function definition sharing its name in the
 * same file. Helper chains the protocol rules care about
 * (kernel.cc's map/demote/remap helpers, system.cc's flush helpers)
 * are file-local, while cross-file resolution by bare name drowns in
 * collisions — `x.load(std::memory_order_relaxed)` is not a call to
 * `Cpu::load`, and `std::string("info")` is not a call to a JSON
 * parser's `string()` production. "Must" facts (bumps, flushes,
 * hooks) take the intersection over the candidates — a call
 * counts as bumping only when every same-file definition of that
 * name bumps — while "may" facts (mutates, touches per-core state,
 * unprotected read) take the union. That keeps the engine
 * sound-for-the-rules in both directions: it never credits a call
 * with a guarantee one overload lacks, and never misses a hazard one
 * overload has.
 *
 * All summary bits only flip false -> true during propagation, so the
 * fixpoint terminates on cyclic call graphs (recursion is handled,
 * not special-cased). `unprotectedRead` depends on the *flush* facts,
 * so it is computed in a second monotone phase after the flush
 * fixpoint has settled.
 */

#ifndef MTLBSIM_TOOLS_LINT_CALLGRAPH_HH
#define MTLBSIM_TOOLS_LINT_CALLGRAPH_HH

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.hh"
#include "lint.hh"
#include "scopes.hh"

namespace mtlblint
{

/** One call site inside a function body. */
struct CallSite
{
    std::string name;       ///< unqualified callee name
    std::string receiver;   ///< identifier before '.' / '->' ("" if none)
    bool member = false;    ///< receiver-qualified call
    size_t pos = 0;         ///< token index in the defining file
    int line = 0;
};

/** One `container[index]` use of a per-core container (R11). */
struct PerCoreSubscript
{
    std::string container;
    std::string index;      ///< joined token text of the index expr
    size_t pos = 0;
    int line = 0;
};

/** One function definition found in a scanned file. */
struct FnDef
{
    std::string file;       ///< repo-relative path
    std::string cls;        ///< enclosing/qualifying class ("" if free)
    std::string name;       ///< unqualified function name
    int line = 0;
    size_t open = 0;        ///< token index of the body '{'
    size_t close = 0;       ///< token index of the body '}'
    std::vector<CallSite> calls;
    std::vector<PerCoreSubscript> subscripts;
};

/** Propagated per-function facts. */
struct FnSummary
{
    bool bumpsEpoch = false;
    bool flushesBatch = false;
    bool mutates = false;
    bool touchesPerCore = false;
    bool unprotectedRead = false;
    std::set<std::string> hooksFired;
};

class CallGraph
{
  public:
    /** Extract every function definition (with its call sites,
     *  per-core subscripts, and direct facts) from one file. */
    void addFile(const SourceFile &src, const ScopeTree &tree,
                 const RulesConfig &cfg);

    /** Run the summary fixpoint. Call once, after all addFile()s. */
    void propagate(const RulesConfig &cfg);

    const std::vector<FnDef> &functions() const { return fns_; }
    const FnSummary &summary(size_t i) const { return sums_[i]; }

    /** Indices of every definition of @p name in @p file (empty when
     *  the name resolves to nothing there). */
    std::vector<size_t> resolve(const std::string &file,
                                const std::string &name) const;

    // Call-level queries: what a call to @p name from code in @p file
    // guarantees (must, intersection over same-file candidates) or
    // risks (may, union). A name with no same-file definition
    // guarantees and risks nothing.
    bool callMustBump(const std::string &file,
                      const std::string &name) const;
    bool callMustFlush(const std::string &file,
                       const std::string &name) const;
    bool callMayMutate(const std::string &file,
                       const std::string &name) const;
    bool callMayTouchPerCore(const std::string &file,
                             const std::string &name) const;
    bool callMayReadUnprotected(const std::string &file,
                                const std::string &name) const;
    /** Hooks every same-file definition of @p name fires. */
    std::set<std::string> callMustHooks(const std::string &file,
                                        const std::string &name) const;

  private:
    bool isReaderCall(const CallSite &c, const RulesConfig &cfg) const;
    bool mustAll(const std::string &file, const std::string &name,
                 bool FnSummary::*bit) const;
    bool mayAny(const std::string &file, const std::string &name,
                bool FnSummary::*bit) const;

    std::vector<FnDef> fns_;
    std::vector<FnSummary> sums_;
    std::map<std::string, std::vector<size_t>> byName_;
};

} // namespace mtlblint

#endif // MTLBSIM_TOOLS_LINT_CALLGRAPH_HH
