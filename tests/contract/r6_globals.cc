/**
 * @file
 * Contract fixture for R6 no-mutable-global-state. The check must
 * report exactly the lines marked with a rule
 * (expect_contract_findings.cmake).
 */

#include <map>

int gSneakyCounter = 0; // R6

namespace mtlbsim
{

// A global defined by a macro, and a plain one on the next line: a
// token scanner reads the two as one statement.
#define MTLBSIM_GLOBAL(name) int name = 0;
MTLBSIM_GLOBAL(gMacroCounter) // R6
int gAfterMacro = 0; // R6

constexpr int kSize = 8;
const int kLimit = 4;
// Const, but written by its constructor at load time.
const std::map<int, int> kTable = {{1, 2}}; // R6

// Per thread is not per System: a sweep worker runs many in turn.
thread_local int tCounter = 0; // R6

// Never written, so -O2 places it in .data.rel.ro, and -O0 in
// .data.rel.local; its elements are mutable either way.
static const char *names[] = {"one", "two"}; // R6
// Const elements: read-only at every optimisation level.
static const char *const kNames[] = {"one", "two"};

struct Registry
{
    static int shared_; // R6
    static constexpr int kOk = 1;
    int member_ = 0;
};
int Registry::shared_ = 0;

int
count(int key)
{
    static int calls = 0; // R6
    static thread_local int perThread = 0; // R6
    return ++calls + ++perThread + ++tCounter + kSize + kLimit +
           Registry::kOk + kTable.at(key) + names[key & 1][0] +
           kNames[key & 1][0];
}

} // namespace mtlbsim
