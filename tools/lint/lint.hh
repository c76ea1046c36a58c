/**
 * @file
 * mtlb-lint rule engine.
 *
 * Five repo-specific semantic rules (plus the stale-allow
 * diagnostic) over the simulator sources:
 *
 *  R5 hygiene               banned constructs (naked new,
 *                           nondeterminism sources) and include-guard
 *                           conformance.
 *  R6 no-mutable-global-state
 *                           no mutable static / namespace-scope
 *                           variable at all; constexpr and const-POD
 *                           are exempt, and allow() cannot exempt one.
 *  R7 ownership-escape      raw pointer/reference members of
 *                           System-owned component types may only be
 *                           stored in classes transitively owned by a
 *                           System.
 *  R8 lock-discipline       no lock or atomic in the lock-free
 *                           directories (all of src/ but src/sweep):
 *                           the simulator is single-threaded, and the
 *                           sweep's one lock is owned by a type.
 *  R9 no-hash-ordered-state
 *                           no unordered container or pointer-keyed
 *                           map type anywhere in the scanned tree,
 *                           iterated or not: with none declared, no
 *                           stat, hook or dump can follow hash or
 *                           allocation order.
 *  SA stale-allow           every `mtlb-lint: allow(<rule>)`
 *                           annotation must still suppress at least
 *                           one finding of an executed rule; stale
 *                           annotations are findings themselves (and
 *                           cannot be allow()ed away).
 *
 * The contracts that earlier rules checked are now enforced where
 * they live. Translation retirement (R1), observer hooks (R2), core
 * confinement (R11), batch-flush discipline (R12) and stats
 * registration (R3) are enforced by types (os/translation_edit.hh,
 * os/per_core.hh, stats::DeferredSource, stats::StatKey), each with a
 * compile-fail test (tests/compile_fail). Config-key parity (R4) is
 * asked of the parser itself by tests/test_config_parser.cc.
 * Selecting a rule id that does not exist is an error.
 *
 * The rule inputs (banned identifiers, owned types, lock-free
 * directories) live in tools/lint/rules.cfg so the contract is an
 * explicit, reviewable artifact rather than hard-coded heuristics.
 *
 * Findings honour `// mtlb-lint: allow(<rule>)` suppression comments
 * on the same line or the line above; <rule> is either the short id
 * ("R7") or the long name ("ownership-escape"). R6 findings ignore
 * them, so an allow(R6) is always stale.
 */

#ifndef MTLBSIM_TOOLS_LINT_LINT_HH
#define MTLBSIM_TOOLS_LINT_LINT_HH

#include <set>
#include <string>
#include <vector>

namespace mtlblint
{

/** Parsed tools/lint/rules.cfg. All paths are repo-root relative. */
struct RulesConfig
{
    std::vector<std::string> scanDirs;

    // R5
    std::set<std::string> banned;
    std::vector<std::string> bannedExempt;
    std::string guardPrefix = "MTLBSIM_";
    std::vector<std::string> guardStrip;

    // R6
    /** Directories that may hold no mutable global state. */
    std::vector<std::string> globalDirs;
    /** Type identifiers that disqualify a `const` global from the
     *  POD exemption (dynamic initialisation / non-trivial dtor). */
    std::set<std::string> nonPodTypes;

    // R7
    /** Component types whose raw pointer/reference members are
     *  audited. */
    std::set<std::string> ownedTypes;
    /** Classes transitively owned by a System, where borrowing such
     *  references is the wiring the System constructor set up. */
    std::set<std::string> ownerClasses;

    // R8
    /** Simulator-core directories that must not use any locking or
     *  atomics at all. */
    std::vector<std::string> lockFreeDirs;
    /** Identifiers whose appearance in a lock-free dir is a finding. */
    std::set<std::string> lockIdents;

    /** Parse a rules.cfg. Throws std::runtime_error on IO/syntax
     *  errors. */
    static RulesConfig load(const std::string &path);
};

struct Finding
{
    std::string file;   ///< repo-relative path
    int line = 0;
    std::string id;     ///< "R5".."R9" / "SA"
    std::string name;   ///< long rule name
    std::string message;

    bool operator<(const Finding &o) const
    {
        if (file != o.file)
            return file < o.file;
        if (line != o.line)
            return line < o.line;
        if (id != o.id)
            return id < o.id;
        return message < o.message;
    }
};

/** Format a finding as `file:line: [id name] message`. */
std::string format(const Finding &f);

/** Format a finding as a GitHub Actions workflow annotation. */
std::string formatGithub(const Finding &f);

/**
 * Run all (or a subset of) rules over the tree rooted at @p root.
 *
 * @param root  repo root; all RulesConfig paths resolve against it.
 * @param cfg   parsed rules.cfg.
 * @param only  if non-empty, run only rules whose id is in the set.
 *              An id that names no rule throws std::runtime_error.
 *              "SA" judges suppressions against the other rules'
 *              findings, so selecting it executes every other check
 *              for bookkeeping while reporting only the ids asked
 *              for; a suppression is stale only relative to rules
 *              that actually executed.
 * @return sorted findings, suppressions applied.
 */
std::vector<Finding> runLint(const std::string &root,
                             const RulesConfig &cfg,
                             const std::set<std::string> &only = {});

} // namespace mtlblint

#endif // MTLBSIM_TOOLS_LINT_LINT_HH
