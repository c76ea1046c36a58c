/**
 * mtlb-lint rule-engine tests: per-rule positive/negative fixtures at
 * real paths of synthetic repo trees, linted with the built-in rules,
 * plus the two properties the tool exists for — the real repository
 * lints clean, and a mutation planted in a copy of a real source file
 * (a mutable global, an escaping kernel pointer, an atomic outside
 * src/sweep, an unordered container) is caught at the right location.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint/lexer.hh"
#include "lint/lint.hh"

namespace fs = std::filesystem;
using mtlblint::Finding;
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

/** The findings of rule @p id only, for fixtures that trip others. */
std::vector<Finding>
ofRule(const std::vector<Finding> &all, const std::string &id)
{
    std::vector<Finding> out;
    std::copy_if(all.begin(), all.end(), std::back_inserter(out),
                 [&](const Finding &f) { return f.id == id; });
    return out;
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

TEST(LintR5, BannedConstructs)
{
    TempTree t;
    t.write("src/os/x.cc",
            "void f() {\n"
            "    int *p = new int;\n"            // line 2
            "    int r = rand();\n"              // line 3
            "}\n");
    const auto fs = runLint(t.root());
    ASSERT_EQ(fs.size(), 2u) << messages(fs);
    EXPECT_EQ(fs[0].id, "R5");
    EXPECT_EQ(fs[0].line, 2);
    EXPECT_NE(fs[0].message.find("naked 'new'"), std::string::npos);
    EXPECT_EQ(fs[1].line, 3);
    EXPECT_NE(fs[1].message.find("rand"), std::string::npos);
}

TEST(LintR5, GetenvIsExemptInTheDebugTraceReaderOnly)
{
    TempTree t;
    const std::string body =
        "unsigned f()\n"
        "{\n"
        "    return std::getenv(\"X\") != nullptr;\n"   // line 3
        "}\n";
    t.write("src/os/x.cc", body);
    t.write("src/base/debug.cc", body);
    const auto fs = runLint(t.root());
    ASSERT_EQ(fs.size(), 1u) << messages(fs);
    EXPECT_EQ(fs[0].id, "R5");
    EXPECT_EQ(fs[0].file, "src/os/x.cc");
    EXPECT_EQ(fs[0].line, 3);
    EXPECT_NE(fs[0].message.find("getenv"), std::string::npos);
}

TEST(LintR5, SweepHasNoBlanketExemption)
{
    TempTree t;
    t.write("src/sweep/x.cc",
            "void f()\n"
            "{\n"
            "    auto t0 = std::chrono::steady_clock::now();\n"
            "}\n");
    const auto fs = runLint(t.root());
    ASSERT_EQ(fs.size(), 1u) << messages(fs);
    EXPECT_EQ(fs[0].id, "R5");
    EXPECT_EQ(fs[0].line, 3);
    EXPECT_NE(fs[0].message.find("steady_clock"), std::string::npos);
}

TEST(LintR5, IncludeGuardConformance)
{
    TempTree t;
    t.write("src/tlb/good.hh",
            "#ifndef MTLBSIM_TLB_GOOD_HH\n"
            "#define MTLBSIM_TLB_GOOD_HH\n"
            "#endif\n");
    t.write("src/tlb/bad.hh",
            "#ifndef WRONG_GUARD_HH\n"
            "#define WRONG_GUARD_HH\n"
            "#endif\n");
    t.write("tools/lint/good.hh",
            "// A comment, then a pragma, may come first.\n"
            "#pragma GCC system_header\n"
            "#ifndef MTLBSIM_TOOLS_LINT_GOOD_HH\n"
            "#define MTLBSIM_TOOLS_LINT_GOOD_HH\n"
            "#endif\n");
    t.write("src/tlb/none.hh", "#pragma once\nint f();\n");
    t.write("src/tlb/split.hh",
            "#ifndef MTLBSIM_TLB_SPLIT_HH\n"
            "#include <string>\n"
            "#define MTLBSIM_TLB_SPLIT_HH\n"
            "#endif\n");
    const auto fs = runLint(t.root());
    ASSERT_EQ(fs.size(), 3u) << messages(fs);
    EXPECT_EQ(fs[0].file, "src/tlb/bad.hh");
    EXPECT_NE(fs[0].message.find("MTLBSIM_TLB_BAD_HH"),
              std::string::npos);
    EXPECT_EQ(fs[1].file, "src/tlb/none.hh");
    EXPECT_NE(fs[1].message.find("no include guard"), std::string::npos);
    EXPECT_EQ(fs[2].file, "src/tlb/split.hh");
    EXPECT_NE(fs[2].message.find("not followed by a matching #define"),
              std::string::npos);
}

TEST(LintR6, MutableGlobalInventory)
{
    TempTree t;
    t.write("src/os/g.cc",
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
    // R6 covers src/ only.
    t.write("tools/g.cc", "int toolCounter = 0;\n");
    const auto fs = runLint(t.root());
    ASSERT_EQ(fs.size(), 4u) << messages(fs);
    EXPECT_EQ(fs[0].id, "R6");
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
    t.write("src/os/s.hh",
            "struct S\n"
            "{\n"
            "    static int shared_;\n"
            "    static constexpr int kOk = 1;\n"
            "    int member_ = 0;\n"
            "};\n");
    const auto fs = ofRule(runLint(t.root()), "R6");
    ASSERT_EQ(fs.size(), 1u) << messages(fs);
    EXPECT_EQ(fs[0].line, 3);
    EXPECT_NE(fs[0].message.find("shared_"), std::string::npos);
}

TEST(LintRules, AnnotationCommentIsPlainProse)
{
    TempTree t;
    // Nothing reads a suppression comment any more: a finding on its
    // line, or on the line below, is reported all the same. (Built in
    // two pieces so that the tree holds no such comment itself.)
    const std::string note = std::string("// mtlb-lint") +
                             ": allow(R5, R6, R7)\n";
    t.write("src/os/x.hh",
            "#ifndef MTLBSIM_OS_X_HH\n"
            "#define MTLBSIM_OS_X_HH\n" +
                note +
                "int a = 0; " + note +                      // 4: R6
                "struct Holder\n"
                "{\n"
                "    Kernel *escaped_; " + note +           // 7: R7
                "};\n"
                "#endif\n");
    const auto fs = runLint(t.root());
    ASSERT_EQ(fs.size(), 2u) << messages(fs);
    EXPECT_EQ(fs[0].id, "R6");
    EXPECT_EQ(fs[0].line, 4);
    EXPECT_EQ(fs[1].id, "R7");
    EXPECT_EQ(fs[1].line, 7);
}

TEST(LintR7, EscapedComponentPointerIsFlagged)
{
    TempTree t;
    t.write("src/os/o.hh",
            "class Stranger\n"
            "{\n"
            "  public:\n"
            "    void poke();\n"
            "  private:\n"
            "    Kernel *kernel_ = nullptr;\n"      // 6: finding
            "    Tlb &tlb_;\n"                      // 7: finding
            "    int plain_ = 0;\n"
            "};\n");
    const auto fs = ofRule(runLint(t.root()), "R7");
    ASSERT_EQ(fs.size(), 2u) << messages(fs);
    EXPECT_EQ(fs[0].line, 6);
    EXPECT_NE(fs[0].message.find("Kernel"), std::string::npos);
    EXPECT_EQ(fs[1].line, 7);
    EXPECT_NE(fs[1].message.find("Tlb"), std::string::npos);
}

TEST(LintR7, OwnerClassMayBorrow)
{
    TempTree t;
    t.write("src/cpu/o.cc",
            "class Cpu\n"
            "{\n"
            "    Kernel &kernel_;\n"
            "    Tlb *tlb_ = nullptr;\n"
            "};\n");
    const auto fs = runLint(t.root());
    EXPECT_TRUE(fs.empty()) << messages(fs);
}

TEST(LintR7, SmartPointerAndValueMembersAreFine)
{
    TempTree t;
    t.write("src/os/o.cc",
            "class Holder\n"
            "{\n"
            "    std::unique_ptr<Kernel> kernel_;\n"
            "    Tlb tlbByValue_;\n"
            "};\n");
    const auto fs = runLint(t.root());
    EXPECT_TRUE(fs.empty()) << messages(fs);
}

TEST(LintR8, LocksOnlyInSweep)
{
    TempTree t;
    t.write("src/tlb/hot.cc",
            "void f()\n"
            "{\n"
            "    std::atomic<int> x{0};\n"          // 3: finding
            "}\n");
    t.write("src/sweep/pool.cc", "void g() { std::atomic<int> x{0}; }\n");
    const auto fs = runLint(t.root());
    ASSERT_EQ(fs.size(), 1u) << messages(fs);
    EXPECT_EQ(fs[0].id, "R8");
    EXPECT_EQ(fs[0].file, "src/tlb/hot.cc");
    EXPECT_EQ(fs[0].line, 3);
}

TEST(LintR8, NewSourceDirectoryIsLockFree)
{
    TempTree t;
    // No directory list to extend: all of src/ but src/sweep is
    // covered, including a directory that did not exist before.
    t.write("src/newdir/x.cc",
            "void f()\n"
            "{\n"
            "    std::mutex m;\n"                   // 3: finding
            "}\n");
    const auto fs = runLint(t.root());
    ASSERT_EQ(fs.size(), 1u) << messages(fs);
    EXPECT_EQ(fs[0].id, "R8");
    EXPECT_EQ(fs[0].file, "src/newdir/x.cc");
    EXPECT_EQ(fs[0].line, 3);
    EXPECT_NE(fs[0].message.find("mutex"), std::string::npos);
}

TEST(LintR9, UnorderedContainerIsFlaggedWhereItIsNamed)
{
    TempTree t;
    // Every mention of a hash container is a finding, iterated or
    // not; an ordered map is not.
    t.write("src/os/d.cc",
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
    const auto fs = runLint(t.root());
    ASSERT_EQ(fs.size(), 2u) << messages(fs);
    EXPECT_EQ(fs[0].id, "R9");
    EXPECT_EQ(fs[0].line, 1);
    EXPECT_NE(fs[0].message.find("unordered_set"), std::string::npos);
    EXPECT_EQ(fs[1].line, 4);
    EXPECT_NE(fs[1].message.find("unordered_map"), std::string::npos);
}

TEST(LintR9, PointerKeyedMapIsFlagged)
{
    TempTree t;
    t.write("tools/d.cc",
            "struct D\n"
            "{\n"
            "    std::map<Node *, int> byNode_;\n"              // 3
            "    std::map<std::pair<int, int>, Node *> byId_;\n"
            "    std::multimap<std::vector<int> *, int> byVec_;\n" // 5
            "    std::map<int, int> plain_;\n"
            "};\n");
    const auto fs = runLint(t.root());
    ASSERT_EQ(fs.size(), 2u) << messages(fs);
    EXPECT_EQ(fs[0].id, "R9");
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

TEST(LintLexer, StringsSurviveTokenizing)
{
    TempTree t;
    t.write("src/s.cc",
            "// a comment\n"
            "const char *k = \"tlb.entries\";\n");
    const auto src = mtlblint::tokenizeFile(
        t.root() + "/src/s.cc", "src/s.cc");
    bool sawKey = false;
    for (const auto &tok : src.tokens) {
        EXPECT_NE(tok.text, "comment");
        if (tok.kind == mtlblint::TokKind::String &&
            tok.text == "tlb.entries") {
            EXPECT_EQ(tok.line, 2);
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
        "// not a comment\n"
        ")\";\n"
        "int after = 0;\n");
    // The raw string is a single String token anchored at its start
    // line, and the `//` inside it is content, not a comment.
    bool sawRaw = false;
    for (const auto &tok : src.tokens) {
        if (tok.kind == mtlblint::TokKind::String) {
            EXPECT_NE(tok.text.find("// not a comment"),
                      std::string::npos);
            EXPECT_EQ(tok.line, 1);
            sawRaw = true;
        }
        if (tok.kind == mtlblint::TokKind::Identifier &&
            tok.text == "after") {
            EXPECT_EQ(tok.line, 4);
        }
    }
    EXPECT_TRUE(sawRaw);
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

TEST(LintRoot, MissingRootIsAnError)
{
    EXPECT_THROW(runLint(::testing::TempDir() + "/mtlb_lint_no_root"),
                 std::runtime_error);
}

#ifdef MTLBSIM_REPO_ROOT

TEST(LintSelfHost, RepositoryLintsClean)
{
    const auto fs = runLint(MTLBSIM_REPO_ROOT);
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

} // namespace

// Each planted case lints a tree holding one real file: the real
// tree lints clean, so the planted line is the only finding.

TEST(LintSelfHost, PlantedMutableGlobalIsCaught)
{
    TempTree t;
    const std::string logging = realFile("src/base/logging.cc");
    t.write("src/base/logging.cc",
            logging + "int gSneakyCounter = 0;\n");
    const int planted = lineCount(logging) + 1;

    const auto fs = runLint(t.root());
    ASSERT_EQ(fs.size(), 1u) << messages(fs);
    EXPECT_EQ(fs[0].id, "R6");
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

    const auto fs = runLint(t.root());
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

    // The planted line is also a mutable global (R6).
    const auto fs = ofRule(runLint(t.root()), "R8");
    ASSERT_EQ(fs.size(), 1u) << messages(fs);
    EXPECT_EQ(fs[0].file, "src/stats/stats.cc");
    EXPECT_EQ(fs[0].line, planted);
    EXPECT_NE(fs[0].message.find("atomic"), std::string::npos);
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

    const auto fs = runLint(t.root());
    ASSERT_EQ(fs.size(), 1u) << messages(fs);
    EXPECT_EQ(fs[0].id, "R9");
    EXPECT_EQ(fs[0].file, "src/mtlb/mtlb.cc");
    EXPECT_EQ(fs[0].line, planted);
}

#endif // MTLBSIM_REPO_ROOT
