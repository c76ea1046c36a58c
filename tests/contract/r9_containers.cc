/**
 * @file
 * Contract fixture for R9 no-hash-ordered-state. The check must report
 * exactly the lines marked with a rule (expect_contract_findings.cmake).
 */

#include <map>
#include <unordered_map>

namespace mtlbsim
{

struct Node
{
    int id = 0;
};

using NodeP = Node *;

struct Taint
{
    // The loop feeds the sum only through a helper; the declaration
    // gives it away.
    std::unordered_map<int, int> depths_; // R9
    std::map<NodeP, int> byAlias_; // R9
    std::multimap<Node *, int> byNode_; // R9
    std::map<int, Node *> byId_;
    long sum_ = 0;

    void note(int d) { sum_ += d; }

    void
    record()
    {
        for (auto &kv : depths_)
            note(kv.second);
    }
};

long
total(Taint &t)
{
    t.record();
    return t.sum_ + static_cast<long>(t.byAlias_.size() +
                                      t.byNode_.size() + t.byId_.size());
}

} // namespace mtlbsim
