/**
 * @file
 * mtlb-lint rule engine: five repo-specific rules over the simulator
 * sources (src/ and tools/).
 *
 *  R5 hygiene                 no naked new or nondeterminism source;
 *                             path-derived include guards.
 *  R6 no-mutable-global-state no mutable static or namespace-scope
 *                             variable in src/ (constexpr and
 *                             const-POD are fine).
 *  R7 ownership-escape        raw pointer/reference members to
 *                             System-owned components only in classes
 *                             a System owns.
 *  R8 lock-discipline         no lock or atomic in src/ outside
 *                             src/sweep.
 *  R9 no-hash-ordered-state   no unordered container or pointer-keyed
 *                             map type, iterated or not.
 *
 * The rules' inputs are constant tables in lint.cc, so the contract
 * is reviewed as code. Every rule always runs, and no source comment
 * can suppress a finding: a deliberate exception is a table entry.
 * Retired rules: R1-R3, R11 and R12 became types (tests/compile_fail
 * pins them), R4 a parser test (tests/test_config_parser.cc) and R10
 * the kernel's one invalidation call.
 */

#ifndef MTLBSIM_TOOLS_LINT_LINT_HH
#define MTLBSIM_TOOLS_LINT_LINT_HH

#include <compare>
#include <string>
#include <vector>

namespace mtlblint
{

struct Finding
{
    std::string file;   ///< repo-relative path
    int line = 0;
    std::string id;     ///< "R5".."R9"
    std::string name;   ///< long rule name
    std::string message;

    /** File, line, rule, message: the order findings print in. */
    auto operator<=>(const Finding &) const = default;
};

/** Format a finding as `file:line: [id name] message`. */
std::string format(const Finding &f);

/** Format a finding as a GitHub Actions workflow annotation. */
std::string formatGithub(const Finding &f);

/**
 * Run every rule over the tree rooted at @p root (the repo root: the
 * rule tables name repo-relative paths).
 *
 * @return sorted, de-duplicated findings.
 */
std::vector<Finding> runLint(const std::string &root);

} // namespace mtlblint

#endif // MTLBSIM_TOOLS_LINT_LINT_HH
