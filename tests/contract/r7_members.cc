/**
 * @file
 * Contract fixture for R7 ownership-escape. The check must report
 * exactly the lines marked with a rule (expect_contract_findings.cmake).
 */

#include <memory>

namespace mtlbsim
{

struct Kernel
{
    int pid = 0;
};

struct Tlb
{
    int entries = 0;
};

using KP = Kernel *;

template <typename T>
struct Ptr
{
    T *p = nullptr; // R7
};

#define MTLBSIM_BORROW(type, name) type *name = nullptr;

class Stranger
{
  public:
    explicit Stranger(Tlb &tlb) : tlb_(tlb) {}

    int plain_ = 0;
    Kernel *kernel_ = nullptr; // R7
    Tlb &tlb_; // R7
    KP aliased_ = nullptr; // R7
    Ptr<Kernel> wrapped_;
    MTLBSIM_BORROW(Kernel, viaMacro_) // R7
    std::unique_ptr<Kernel> owned_;
    Tlb byValue_;
};

class RogueObserver
{
  public:
    Kernel *kernel_ = nullptr; // R7
};

// An owner class may borrow: a System wires it up.
class Cpu
{
  public:
    explicit Cpu(Kernel &kernel) : kernel_(kernel) {}

    Kernel &kernel_;
    Tlb *tlb_ = nullptr;
};

int
inspect(Stranger &s, RogueObserver &r, Cpu &c)
{
    // A closure's captures are the lambda's, not a class's members.
    auto pid = [&c] { return c.kernel_.pid; };
    return s.plain_ + s.tlb_.entries + s.byValue_.entries +
           (s.kernel_ != s.aliased_) + (s.wrapped_.p != s.viaMacro_) +
           (s.owned_ != nullptr) + (r.kernel_ != nullptr) +
           (c.tlb_ != nullptr) + pid();
}

} // namespace mtlbsim
