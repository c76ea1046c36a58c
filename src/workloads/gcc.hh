/**
 * @file
 * cc1: the gcc 2.5.3 compiler pass model (§3.1).
 *
 * The paper runs cc1 compiling "1insn-recog.c" — the largest
 * machine-generated file in gcc, consisting of enormous generated
 * functions. cc1 stresses the unified TLB in two ways: a large text
 * footprint (the compiler itself is over a megabyte of code, and
 * every pass touches a different slice of it), and RTL allocated
 * per-function from obstacks that grow through the run, walked with
 * pointer-heavy passes. All superpage creation happens through
 * sbrk() (§3.1) — the text segment stays base-paged.
 *
 * This synthetic model compiles F functions: each is "parsed" into a
 * list of 48-byte RTL nodes bump-allocated from the heap, then
 * processed by several passes that walk the node list, follow
 * cross-references to earlier nodes, and probe a global symbol hash
 * table — with instruction fetches spread across a 1.4 MB simulated
 * text segment.
 */

#pragma once

#include <vector>

#include "base/random.hh"
#include "workloads/workload.hh"

namespace mtlbsim
{

/** Tuning knobs for the cc1 workload. */
struct GccConfig
{
    unsigned functions = 120;
    unsigned avgNodesPerFunction = 1600;    ///< ~9 MB of RTL total
    unsigned passes = 5;
    unsigned textPages = 350;               ///< ~1.4 MB of code
    unsigned hotPagesPerPass = 24;
    Addr symtabBytes = 256 * 1024;
    /** Modified-sbrk preallocation chunk (§2.3). */
    Addr preallocBytes = 8 * 1024 * 1024;
    std::uint64_t seed = 0x9cc0001ULL;
};

/**
 * The cc1 workload.
 */
class GccWorkload : public Workload
{
  public:
    explicit GccWorkload(const GccConfig &config);

    std::string name() const override { return "cc1"; }
    void setup(System &sys) override;
    void run(System &sys) override;

  private:
    /**
     * Next code address for pass @p pass. Instruction streams are
     * highly sequential: the model stays on the current page for
     * long runs, occasionally branching within the pass's hot
     * window, and rarely calling out to a cold helper page.
     */
    Addr codeAddr(unsigned pass, Random &rng);

    GccConfig config_;
    Addr currentCode_ = 0;
    /** Per-function node base addresses (nodes are contiguous). */
    std::vector<Addr> functionNodes_;
    std::vector<unsigned> functionSizes_;
    Addr codeBase_ = 0;
    Addr symtabBase_ = 0;
};

} // namespace mtlbsim
