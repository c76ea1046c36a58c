/**
 * mtlb-lint rule-engine tests: per-rule positive/negative/suppressed
 * fixtures over synthetic repo trees, plus the two properties the
 * tool exists for — the real repository lints clean, and a mutation
 * planted in a copy of a real source file (a mutable global, an
 * escaping kernel pointer, an atomic outside src/sweep, a stale
 * allow(), an unordered container) is caught at the right location.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "lint/lexer.hh"
#include "lint/lint.hh"
#include "lint/scopes.hh"

namespace fs = std::filesystem;
using mtlblint::Finding;
using mtlblint::RulesConfig;
using mtlblint::runLint;

namespace
{

/** A scratch repo tree, deleted on destruction. */
class TempTree
{
  public:
    TempTree()
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        root_ = fs::path(::testing::TempDir()) /
                (std::string("mtlb_lint_") + info->test_suite_name() +
                 "_" + info->name());
        fs::remove_all(root_);
        fs::create_directories(root_);
    }

    ~TempTree() { fs::remove_all(root_); }

    void
    write(const std::string &rel, const std::string &content)
    {
        const fs::path p = root_ / rel;
        fs::create_directories(p.parent_path());
        std::ofstream os(p);
        os << content;
    }

    std::string root() const { return root_.string(); }

  private:
    fs::path root_;
};

/** Minimal R5 rules: one banned identifier. */
RulesConfig
hygieneRules()
{
    RulesConfig cfg;
    cfg.scanDirs = {"src"};
    cfg.banned = {"rand"};
    return cfg;
}

std::string
messages(const std::vector<Finding> &fs)
{
    std::ostringstream os;
    for (const auto &f : fs)
        os << mtlblint::format(f) << "\n";
    return os.str();
}

} // namespace

TEST(LintR5, BannedConstructsAndExemptions)
{
    TempTree t;
    RulesConfig cfg;
    cfg.scanDirs = {"src"};
    cfg.banned = {"new", "rand"};
    cfg.bannedExempt = {"src/sweep"};
    cfg.guardStrip = {"src/"};
    t.write("src/a.cc",
            "void f() {\n"
            "    int *p = new int;\n"            // line 2
            "    int r = rand();\n"              // line 3
            "}\n");
    t.write("src/sweep/b.cc",
            "void g() { int *p = new int; }\n"); // exempt dir
    const auto fs = runLint(t.root(), cfg, {"R5"});
    ASSERT_EQ(fs.size(), 2u) << messages(fs);
    EXPECT_EQ(fs[0].line, 2);
    EXPECT_NE(fs[0].message.find("naked 'new'"), std::string::npos);
    EXPECT_EQ(fs[1].line, 3);
    EXPECT_NE(fs[1].message.find("rand"), std::string::npos);
}

TEST(LintR5, IncludeGuardConformance)
{
    TempTree t;
    RulesConfig cfg;
    cfg.scanDirs = {"src"};
    cfg.guardStrip = {"src/"};
    t.write("src/tlb/good.hh",
            "#ifndef MTLBSIM_TLB_GOOD_HH\n"
            "#define MTLBSIM_TLB_GOOD_HH\n"
            "#endif\n");
    t.write("src/tlb/bad.hh",
            "#ifndef WRONG_GUARD_HH\n"
            "#define WRONG_GUARD_HH\n"
            "#endif\n");
    const auto fs = runLint(t.root(), cfg, {"R5"});
    ASSERT_EQ(fs.size(), 1u) << messages(fs);
    EXPECT_EQ(fs[0].file, "src/tlb/bad.hh");
    EXPECT_NE(fs[0].message.find("MTLBSIM_TLB_BAD_HH"),
              std::string::npos);
}

namespace
{

/** Minimal R6 rules over a scratch tree. */
RulesConfig
globalsRules()
{
    RulesConfig cfg;
    cfg.scanDirs = {"src"};
    cfg.globalDirs = {"src"};
    cfg.nonPodTypes = {"map", "vector", "string"};
    return cfg;
}

} // namespace

TEST(LintR6, MutableGlobalInventory)
{
    TempTree t;
    t.write("src/g.cc",
            "int counter = 0;\n"                        // 1: finding
            "const int kLimit = 4;\n"                   // const POD
            "constexpr int kSize = 8;\n"                // constexpr
            "static std::map<int, int> lookup;\n"       // 4: finding
            "const std::map<int, int> kTable = {};\n"   // 5: nonpod
            "void f()\n"
            "{\n"
            "    static int calls = 0;\n"               // 8: finding
            "    int local = 0;\n"                      // plain local
            "    (void)local;\n"
            "}\n"
            "struct S\n"
            "{\n"
            "    int member_ = 0;\n"                    // instance
            "};\n");
    const auto fs = runLint(t.root(), globalsRules(), {"R6"});
    ASSERT_EQ(fs.size(), 4u) << messages(fs);
    EXPECT_EQ(fs[0].line, 1);
    EXPECT_NE(fs[0].message.find("counter"), std::string::npos);
    EXPECT_EQ(fs[1].line, 4);
    EXPECT_NE(fs[1].message.find("lookup"), std::string::npos);
    EXPECT_EQ(fs[2].line, 5);
    EXPECT_NE(fs[2].message.find("kTable"), std::string::npos);
    EXPECT_EQ(fs[3].line, 8);
    EXPECT_NE(fs[3].message.find("calls"), std::string::npos);
}

TEST(LintR6, ClassStaticMemberIsInventoried)
{
    TempTree t;
    t.write("src/s.hh",
            "struct S\n"
            "{\n"
            "    static int shared_;\n"
            "    static constexpr int kOk = 1;\n"
            "    int member_ = 0;\n"
            "};\n");
    const auto fs = runLint(t.root(), globalsRules(), {"R6"});
    ASSERT_EQ(fs.size(), 1u) << messages(fs);
    EXPECT_EQ(fs[0].line, 3);
    EXPECT_NE(fs[0].message.find("shared_"), std::string::npos);
}

TEST(LintR6, AllowDoesNotExemptAGlobal)
{
    TempTree t;
    // R6 is a plain ban: the annotation suppresses nothing, so the
    // global is reported and SA reports the annotation as stale.
    t.write("src/g.cc", "int a = 0; // mtlb-lint: allow(R6)\n");
    const auto fs = runLint(t.root(), globalsRules(), {"R6", "SA"});
    ASSERT_EQ(fs.size(), 2u) << messages(fs);
    EXPECT_EQ(fs[0].id, "R6");
    EXPECT_EQ(fs[0].line, 1);
    EXPECT_NE(fs[0].message.find("'a'"), std::string::npos);
    EXPECT_EQ(fs[1].id, "SA");
    EXPECT_EQ(fs[1].line, 1);
    EXPECT_NE(fs[1].message.find("allow(R6)"), std::string::npos);
}

namespace
{

RulesConfig
ownershipRules()
{
    RulesConfig cfg;
    cfg.scanDirs = {"src"};
    cfg.ownedTypes = {"Kernel", "Tlb"};
    cfg.ownerClasses = {"Cpu"};
    return cfg;
}

} // namespace

TEST(LintR7, EscapedComponentPointerIsFlagged)
{
    TempTree t;
    t.write("src/o.hh",
            "class Stranger\n"
            "{\n"
            "  public:\n"
            "    void poke();\n"
            "  private:\n"
            "    Kernel *kernel_ = nullptr;\n"      // 6: finding
            "    Tlb &tlb_;\n"                      // 7: finding
            "    int plain_ = 0;\n"
            "};\n");
    const auto fs = runLint(t.root(), ownershipRules(), {"R7"});
    ASSERT_EQ(fs.size(), 2u) << messages(fs);
    EXPECT_EQ(fs[0].line, 6);
    EXPECT_NE(fs[0].message.find("Kernel"), std::string::npos);
    EXPECT_EQ(fs[1].line, 7);
    EXPECT_NE(fs[1].message.find("Tlb"), std::string::npos);
}

TEST(LintR7, OwnerClassMayBorrow)
{
    TempTree t;
    t.write("src/o.hh",
            "class Cpu\n"
            "{\n"
            "    Kernel &kernel_;\n"
            "    Tlb *tlb_ = nullptr;\n"
            "};\n");
    const auto fs = runLint(t.root(), ownershipRules(), {"R7"});
    EXPECT_TRUE(fs.empty()) << messages(fs);
}

TEST(LintR7, SmartPointerAndValueMembersAreFine)
{
    TempTree t;
    t.write("src/o.hh",
            "class Holder\n"
            "{\n"
            "    std::unique_ptr<Kernel> kernel_;\n"
            "    Tlb tlbByValue_;\n"
            "    Kernel *escaped_;   // mtlb-lint: allow(R7)\n"
            "};\n");
    const auto fs = runLint(t.root(), ownershipRules(), {"R7"});
    EXPECT_TRUE(fs.empty()) << messages(fs);
}

namespace
{

RulesConfig
lockRules()
{
    RulesConfig cfg;
    cfg.scanDirs = {"src"};
    cfg.lockFreeDirs = {"src/tlb"};
    cfg.lockIdents = {"mutex", "atomic", "lock_guard"};
    return cfg;
}

} // namespace

TEST(LintR8, HotPathMustBeLockFree)
{
    TempTree t;
    t.write("src/tlb/hot.cc",
            "void f()\n"
            "{\n"
            "    std::atomic<int> x{0};\n"          // 3: finding
            "}\n");
    t.write("src/sweep/pool.cc", "std::atomic<int> fine{0};\n");
    const auto fs = runLint(t.root(), lockRules(), {"R8"});
    ASSERT_EQ(fs.size(), 1u) << messages(fs);
    EXPECT_EQ(fs[0].file, "src/tlb/hot.cc");
    EXPECT_EQ(fs[0].line, 3);
}

namespace
{

RulesConfig
determinismRules()
{
    RulesConfig cfg;
    cfg.scanDirs = {"src"};
    return cfg;
}

} // namespace

TEST(LintR9, UnorderedContainerIsFlaggedWhereItIsNamed)
{
    TempTree t;
    // Every mention of a hash container is a finding, iterated or
    // not; an ordered map is not.
    t.write("src/d.cc",
            "#include <unordered_set>\n"              // 1: finding
            "struct D\n"
            "{\n"
            "    std::unordered_map<int, int> m_;\n"   // 4: finding
            "    std::map<int, int> ordered_;\n"
            "    void record(int v) { hist_.sample(v); }\n"
            "    void viaHelper()\n"
            "    {\n"
            "        for (auto &kv : m_)\n"
            "            record(kv.second);\n"
            "    }\n"
            "};\n");
    const auto fs = runLint(t.root(), determinismRules(), {"R9"});
    ASSERT_EQ(fs.size(), 2u) << messages(fs);
    EXPECT_EQ(fs[0].line, 1);
    EXPECT_NE(fs[0].message.find("unordered_set"), std::string::npos);
    EXPECT_EQ(fs[1].line, 4);
    EXPECT_NE(fs[1].message.find("unordered_map"), std::string::npos);
}

TEST(LintR9, PointerKeyedMapIsFlagged)
{
    TempTree t;
    t.write("src/d.cc",
            "struct D\n"
            "{\n"
            "    std::map<Node *, int> byNode_;\n"              // 3
            "    std::map<std::pair<int, int>, Node *> byId_;\n"
            "    std::multimap<std::vector<int> *, int> byVec_;\n" // 5
            "    std::map<int, int> plain_;\n"
            "};\n");
    const auto fs = runLint(t.root(), determinismRules(), {"R9"});
    ASSERT_EQ(fs.size(), 2u) << messages(fs);
    EXPECT_EQ(fs[0].line, 3);
    EXPECT_NE(fs[0].message.find("pointer-keyed"), std::string::npos);
    EXPECT_EQ(fs[1].line, 5);
}

TEST(LintOutput, GithubAnnotationFormat)
{
    Finding f;
    f.file = "src/a.cc";
    f.line = 3;
    f.id = "R6";
    f.name = "no-mutable-global-state";
    f.message = "mutable global 'x'";
    EXPECT_EQ(mtlblint::formatGithub(f),
              "::error file=src/a.cc,line=3,"
              "title=mtlb-lint R6 no-mutable-global-state"
              "::mutable global 'x'");
}

TEST(LintLexer, SuppressionsAndStringsSurviveTokenizing)
{
    TempTree t;
    t.write("src/s.cc",
            "// mtlb-lint: allow(R7, R5)\n"
            "const char *k = \"tlb.entries\";\n");
    const auto src = mtlblint::tokenizeFile(
        t.root() + "/src/s.cc", "src/s.cc");
    EXPECT_TRUE(mtlblint::suppressed(src, 1, "R7", "ownership-escape"));
    EXPECT_TRUE(mtlblint::suppressed(src, 1, "R5", "hygiene"));
    // The suppression also covers the line below the comment.
    EXPECT_TRUE(mtlblint::suppressed(src, 2, "R5", "hygiene"));
    EXPECT_FALSE(mtlblint::suppressed(src, 2, "R6",
                                      "no-mutable-global-state"));
    bool sawKey = false;
    for (const auto &tok : src.tokens) {
        if (tok.kind == mtlblint::TokKind::String &&
            tok.text == "tlb.entries") {
            sawKey = true;
        }
    }
    EXPECT_TRUE(sawKey);
}

TEST(LintLexer, RawStringIsOneTokenWithCorrectLines)
{
    const auto src = mtlblint::tokenize(
        "src/s.cc",
        "const char *s = R\"(line one\n"
        "// mtlb-lint: allow(R7)\n"
        ")\";\n"
        "int after = 0;\n");
    // The raw string is a single String token anchored at its start
    // line, and the allow() inside it is content, not a suppression.
    bool sawRaw = false;
    for (const auto &tok : src.tokens) {
        if (tok.kind == mtlblint::TokKind::String) {
            EXPECT_NE(tok.text.find("allow(R7)"), std::string::npos);
            EXPECT_EQ(tok.line, 1);
            sawRaw = true;
        }
        if (tok.kind == mtlblint::TokKind::Identifier &&
            tok.text == "after") {
            EXPECT_EQ(tok.line, 4);
        }
    }
    EXPECT_TRUE(sawRaw);
    EXPECT_TRUE(src.suppressions.empty());
    EXPECT_FALSE(mtlblint::suppressed(src, 2, "R7", "ownership-escape"));
}

TEST(LintLexer, LineContinuationExtendsLineComment)
{
    const auto src = mtlblint::tokenize(
        "src/s.cc",
        "// continued comment \\\n"
        "int swallowed = 1;\n"
        "int visible = 2;\n");
    // The backslash splices line 2 into the comment: `swallowed`
    // never becomes a token, and `visible` keeps its real line.
    for (const auto &tok : src.tokens)
        EXPECT_NE(tok.text, "swallowed");
    bool sawVisible = false;
    for (const auto &tok : src.tokens) {
        if (tok.kind == mtlblint::TokKind::Identifier &&
            tok.text == "visible") {
            EXPECT_EQ(tok.line, 3);
            sawVisible = true;
        }
    }
    EXPECT_TRUE(sawVisible);
}

TEST(LintLexer, SuppressionInContinuedCommentAnchorsAtStartLine)
{
    const auto src = mtlblint::tokenize(
        "src/s.cc",
        "// mtlb-lint: allow(R7) \\\n"
        "continued text\n"
        "int code = 0;\n");
    // The suppression registers at the comment's first line, so it
    // covers a finding on the line below it as usual.
    EXPECT_TRUE(mtlblint::suppressed(src, 1, "R7", "ownership-escape"));
    EXPECT_TRUE(mtlblint::suppressed(src, 2, "R7", "ownership-escape"));
}

TEST(LintLexer, EscapedNewlineInStringKeepsLineCount)
{
    const auto src = mtlblint::tokenize(
        "src/s.cc",
        "const char *s = \"first\\\n"
        "second\";\n"
        "int after = 0;\n");
    bool sawAfter = false;
    for (const auto &tok : src.tokens) {
        if (tok.kind == mtlblint::TokKind::Identifier &&
            tok.text == "after") {
            EXPECT_EQ(tok.line, 3);
            sawAfter = true;
        }
    }
    EXPECT_TRUE(sawAfter);
}

TEST(LintSA, StaleAllowIsFlagged)
{
    TempTree t;
    t.write("src/os/kernel.cc",
            "void f()\n"
            "{\n"
            "    int x = 0;  // mtlb-lint: allow(R5)\n"  // 3: stale
            "}\n");
    const auto fs = runLint(t.root(), hygieneRules(), {"SA"});
    ASSERT_EQ(fs.size(), 1u) << messages(fs);
    EXPECT_EQ(fs[0].id, "SA");
    EXPECT_EQ(fs[0].line, 3);
    EXPECT_NE(fs[0].message.find("allow(R5)"), std::string::npos);
}

TEST(LintSA, LiveAllowIsNotFlagged)
{
    TempTree t;
    t.write("src/os/kernel.cc",
            "void f()\n"
            "{\n"
            "    int r = rand();  // mtlb-lint: allow(R5)\n"
            "}\n");
    // The R5 finding is suppressed by the annotation, which is
    // therefore live: selecting SA alone reports nothing at all.
    const auto fs = runLint(t.root(), hygieneRules(), {"SA"});
    EXPECT_TRUE(fs.empty()) << messages(fs);
}

TEST(LintSA, UnassessedRuleAndUnknownTokensAreIgnored)
{
    TempTree t;
    // R8 has no lock identifiers configured here, so an allow(R8)
    // cannot be judged stale; `allow(foo)` names no rule at all
    // (prose in a comment), so it is skipped too.
    t.write("src/os/kernel.cc",
            "void f()\n"
            "{\n"
            "    int x = 0;  // mtlb-lint: allow(R8)\n"
            "    int y = 0;  // mtlb-lint: allow(foo)\n"
            "}\n");
    const auto fs = runLint(t.root(), hygieneRules(), {"SA"});
    EXPECT_TRUE(fs.empty()) << messages(fs);
}

#ifdef MTLBSIM_REPO_ROOT

TEST(LintSelfHost, RepositoryLintsClean)
{
    const std::string root = MTLBSIM_REPO_ROOT;
    const RulesConfig cfg =
        RulesConfig::load(root + "/tools/lint/rules.cfg");
    const auto fs = runLint(root, cfg);
    EXPECT_TRUE(fs.empty()) << messages(fs);
}

namespace
{

/** Read a real repo file's contents. */
std::string
realFile(const std::string &rel)
{
    std::ifstream is(std::string(MTLBSIM_REPO_ROOT) + "/" + rel);
    EXPECT_TRUE(is.good()) << rel;
    std::ostringstream out;
    out << is.rdbuf();
    return out.str();
}

int
lineCount(const std::string &text)
{
    return static_cast<int>(
        std::count(text.begin(), text.end(), '\n'));
}

RulesConfig
repoRules()
{
    return RulesConfig::load(std::string(MTLBSIM_REPO_ROOT) +
                             "/tools/lint/rules.cfg");
}

} // namespace

TEST(LintSelfHost, PlantedMutableGlobalIsCaught)
{
    TempTree t;
    const std::string logging = realFile("src/base/logging.cc");
    t.write("src/base/logging.cc",
            logging + "int gSneakyCounter = 0;\n");
    const int planted = lineCount(logging) + 1;

    const auto fs = runLint(t.root(), repoRules(), {"R6"});
    ASSERT_EQ(fs.size(), 1u) << messages(fs);
    EXPECT_EQ(fs[0].file, "src/base/logging.cc");
    EXPECT_EQ(fs[0].line, planted);
    EXPECT_NE(fs[0].message.find("gSneakyCounter"), std::string::npos);
}

TEST(LintSelfHost, PlantedEscapingKernelPointerIsCaught)
{
    TempTree t;
    const std::string sweep = realFile("src/sweep/sweep.hh");
    t.write("src/sweep/sweep.hh",
            sweep +
                "class RogueObserver\n"
                "{\n"
                "    Kernel *kernel_;\n"
                "};\n");
    const int planted = lineCount(sweep) + 3;

    const auto fs = runLint(t.root(), repoRules(), {"R7"});
    ASSERT_EQ(fs.size(), 1u) << messages(fs);
    EXPECT_EQ(fs[0].id, "R7");
    EXPECT_EQ(fs[0].file, "src/sweep/sweep.hh");
    EXPECT_EQ(fs[0].line, planted);
    EXPECT_NE(fs[0].message.find("Kernel"), std::string::npos);
}

TEST(LintSelfHost, PlantedAtomicOutsideSweepIsCaught)
{
    TempTree t;
    // Only src/sweep may name a lock or an atomic.
    const std::string real = realFile("src/stats/stats.cc");
    t.write("src/stats/stats.cc",
            real + "std::atomic<int> gDumps{0};\n");
    const int planted = lineCount(real) + 1;

    const auto fs = runLint(t.root(), repoRules(), {"R8"});
    ASSERT_EQ(fs.size(), 1u) << messages(fs);
    EXPECT_EQ(fs[0].id, "R8");
    EXPECT_EQ(fs[0].file, "src/stats/stats.cc");
    EXPECT_EQ(fs[0].line, planted);
    EXPECT_NE(fs[0].message.find("atomic"), std::string::npos);
}

TEST(LintSelfHost, PlantedStaleAllowIsCaught)
{
    TempTree t;
    const std::string real = realFile("src/os/kernel.cc");
    t.write("src/os/kernel.cc",
            real + "// mtlb-lint: allow(R5)\n"
                   "static const int kHarmless = 0;\n");
    const int planted = lineCount(real) + 1;

    const auto fs = runLint(t.root(), repoRules(), {"SA"});
    ASSERT_EQ(fs.size(), 1u) << messages(fs);
    EXPECT_EQ(fs[0].id, "SA");
    EXPECT_EQ(fs[0].file, "src/os/kernel.cc");
    EXPECT_EQ(fs[0].line, planted);
}

TEST(LintSelfHost, PlantedUnorderedMemberIsCaughtAtItsDeclaration)
{
    TempTree t;
    // The loop feeds a stat only through a helper, which no
    // call-site scan could see; the declaration gives it away.
    const std::string real = realFile("src/mtlb/mtlb.cc");
    t.write("src/mtlb/mtlb.cc",
            real + "struct Taint\n"
                   "{\n"
                   "    std::unordered_map<int, int> depths_;\n"
                   "    void note(int d) { avg_.sample(d); }\n"
                   "    void record()\n"
                   "    {\n"
                   "        for (auto &kv : depths_)\n"
                   "            note(kv.second);\n"
                   "    }\n"
                   "};\n");
    const int planted = lineCount(real) + 3;

    const auto fs = runLint(t.root(), repoRules(), {"R9"});
    ASSERT_EQ(fs.size(), 1u) << messages(fs);
    EXPECT_EQ(fs[0].id, "R9");
    EXPECT_EQ(fs[0].file, "src/mtlb/mtlb.cc");
    EXPECT_EQ(fs[0].line, planted);
}

#endif // MTLBSIM_REPO_ROOT
