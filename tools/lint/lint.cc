#include "lint.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <iterator>
#include <stdexcept>
#include <string_view>

#include "lexer.hh"
#include "scopes.hh"

namespace fs = std::filesystem;

namespace mtlblint
{

namespace
{

// --------------------------------------------------------------------
// The rules' inputs. All paths are repo-root relative; a path names a
// file or every file under a directory.
// --------------------------------------------------------------------

/** The trees every rule scans. */
constexpr std::string_view kScanDirs[] = {"src", "tools"};

/** The simulator's own sources, the only tree R6 and R8 check: each
 *  sweep job runs one System of this code on its own thread. */
constexpr std::string_view kSimDir = "src";

// ---- R5 hygiene ----------------------------------------------------

/** A naked `new`, and the nondeterminism sources: libc randomness,
 *  wall clocks and the environment would make a run depend on the
 *  host instead of its config and seed. */
constexpr std::string_view kBanned[] = {
    "new",
    "rand",
    "srand",
    "drand48",
    "random_device",
    "system_clock",
    "steady_clock",
    "high_resolution_clock",
    "gettimeofday",
    "clock_gettime",
    "getenv",
};

/** One banned name that one file or directory may use. */
struct Exemption
{
    std::string_view name;
    std::string_view path;
};

constexpr Exemption kBannedExemptions[] = {
    // Debug-trace selection reads MTLBSIM_DEBUG: it only toggles
    // stderr logging, never simulated behaviour.
    {"getenv", "src/base/debug.cc"},
};

/** A header's guard is this prefix plus its path, less kGuardStrip,
 *  upper-cased with every other character as '_'. */
constexpr std::string_view kGuardPrefix = "MTLBSIM_";
constexpr std::string_view kGuardStrip = "src/";

// ---- R6 no-mutable-global-state ------------------------------------

// No mutable static or namespace-scope variable in kSimDir: every
// System is self-contained, so no state may outlive or span Systems.
// constexpr and const-POD are exempt.

/** A const global of one of these types still runs a constructor at
 *  load time (initialization-order hazard), so it is not POD. (Hash
 *  containers are not listed: R9 rejects them outright.) */
constexpr std::string_view kNonPodTypes[] = {
    "map", "multimap", "set", "vector", "string",
    "deque", "list", "function", "regex",
};

// ---- R7 ownership-escape -------------------------------------------

/** Raw pointer / reference members of these System-owned component
 *  types may only live in classes transitively owned by a System
 *  (the wiring its constructor set up). Anything else is an alias
 *  that goes stale the moment a second System exists. */
constexpr std::string_view kOwnedTypes[] = {
    "System",      "Kernel",       "FrameAllocator", "Tlb",
    "MicroItlb",   "Mtlb",         "ShadowTable",    "Cache",
    "MemorySystem", "AddressSpace", "Hpt",           "StatGroup",
};

/** Classes a System constructs and owns (directly or transitively);
 *  their borrowed references are the sanctioned wiring. */
constexpr std::string_view kOwnerClasses[] = {
    "System",
    "Kernel",
    // Kernel's per-core wiring record: holds each core's borrowed TLB
    // / micro-ITLB pointers on the kernel's behalf (kernel.hh).
    "CoreCtx",
    // An open translation edit: lives on the kernel's stack for one
    // kernel call and names the kernel it retires translations
    // through (os/translation_edit.hh).
    "TranslationEdit",
    "Cpu",
    "Mtlb",
    "ClockDaemon",
    "TranslationAuditor",
};

// ---- R8 lock-discipline --------------------------------------------

/** Locks and atomics only here. The sweep runs one System per worker
 *  thread, so the rest of kSimDir is single-threaded by contract and
 *  must never need (or pay for) synchronisation. */
constexpr std::string_view kLockedDir = "src/sweep";

constexpr std::string_view kLockIdents[] = {
    "mutex",       "shared_mutex",  "recursive_mutex",
    "timed_mutex", "lock_guard",    "unique_lock",
    "shared_lock", "scoped_lock",   "condition_variable",
    "atomic",      "atomic_flag",   "atomic_thread_fence",
};

// ---- R9 no-hash-ordered-state --------------------------------------

/** Every one of these types (and every pointer-keyed map) is a
 *  finding at the line that names it, whether or not anything
 *  iterates it. With no hash-ordered container declared, no stat,
 *  observer hook or dump can depend on hash or allocation order,
 *  which the byte-identical goldens and --jobs N sweeps need. */
constexpr std::string_view kUnorderedTypes[] = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset",
};

// --------------------------------------------------------------------

template <std::size_t N>
bool
listed(const std::string_view (&table)[N], const std::string &name)
{
    return std::find(std::begin(table), std::end(table), name) !=
           std::end(table);
}

bool
underDir(const std::string &rel, std::string_view dir)
{
    if (rel.size() < dir.size() || rel.compare(0, dir.size(), dir) != 0)
        return false;
    return rel.size() == dir.size() || rel[dir.size()] == '/';
}

bool
exempt(const std::string &rel, const std::string &name)
{
    return std::any_of(std::begin(kBannedExemptions),
                       std::end(kBannedExemptions),
                       [&](const Exemption &e) {
                           return e.name == name && underDir(rel, e.path);
                       });
}

/** Repo-relative paths of every .hh/.cc file under kScanDirs, sorted
 *  for deterministic output. */
std::vector<std::string>
sourceFiles(const std::string &root)
{
    std::vector<std::string> out;
    for (const std::string_view d : kScanDirs) {
        fs::path base = fs::path(root) / d;
        if (!fs::exists(base))
            continue;
        for (const auto &ent : fs::recursive_directory_iterator(base)) {
            const std::string ext = ent.path().extension().string();
            if (!ent.is_regular_file() || (ext != ".hh" && ext != ".cc"))
                continue;
            out.push_back(
                fs::relative(ent.path(), fs::path(root)).generic_string());
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

// The scope tree (buildScopes and friends) lives in scopes.hh.

/**
 * Statement-level variable-definition detection shared by R6 and R7.
 *
 * Finds the declarator: the identifier immediately before the first
 * top-level `=`, `[`, `;`-end, Init-brace, or (at function scope
 * only) `(` - constructor-style initialisation. Returns npos for
 * statements that declare functions, types, aliases, templates, or
 * nothing at all.
 */
size_t
declaratorOf(const std::vector<Token> &t, const Stmt &stmt,
             bool parenInitAllowed)
{
    constexpr std::string_view kSkipWords[] = {
        "using", "typedef", "extern", "friend", "template", "operator",
        "static_assert", "namespace", "return", "delete", "new",
        "if", "for", "while", "switch", "do", "case", "goto", "throw",
    };
    constexpr std::string_view kAccess[] = {"public", "private",
                                            "protected"};
    // An access specifier opens the statement (`private: Type x;`);
    // skip it rather than rejecting the member that follows.
    size_t first = 0;
    while (first + 1 < stmt.toks.size() &&
           t[stmt.toks[first]].kind == TokKind::Identifier &&
           listed(kAccess, t[stmt.toks[first]].text) &&
           t[stmt.toks[first + 1]].text == ":") {
        first += 2;
    }
    for (size_t k = first; k < stmt.toks.size(); ++k) {
        size_t pi = stmt.toks[k];
        if (t[pi].kind == TokKind::Identifier &&
            listed(kSkipWords, t[pi].text)) {
            return std::string::npos;
        }
        if (classKeyword(t[pi].text))
            return std::string::npos;
    }
    size_t prevIdent = std::string::npos;
    for (size_t k = first; k < stmt.toks.size(); ++k) {
        const Token &tok = t[stmt.toks[k]];
        if (tok.kind == TokKind::Identifier) {
            prevIdent = stmt.toks[k];
            continue;
        }
        if (tok.kind != TokKind::Punct)
            continue;
        if (tok.text == "<") {
            // Skip the template argument group inside this statement.
            size_t past = skipAngles(t, stmt.toks[k]);
            while (k < stmt.toks.size() && stmt.toks[k] < past)
                ++k;
            --k;
            prevIdent = std::string::npos;
            continue;
        }
        if (tok.text == "=" || tok.text == "[" || tok.text == "{")
            return prevIdent;
        if (tok.text == "(")
            return parenInitAllowed ? prevIdent : std::string::npos;
        if (tok.text == "*" || tok.text == "&" || tok.text == "::" ||
            tok.text == ",") {
            prevIdent = std::string::npos;
            continue;
        }
    }
    return prevIdent;   // plain `Type name ;`
}

// --------------------------------------------------------------------
// Rule runners, one file at a time
// --------------------------------------------------------------------

class FileLinter
{
  public:
    FileLinter(const SourceFile &src, std::vector<Finding> &out)
        : src_(src), tree_(buildScopes(src.tokens)), out_(out)
    {}

    void run()
    {
        checkHygiene();
        if (underDir(src_.path, kSimDir)) {
            checkGlobals();
            if (!underDir(src_.path, kLockedDir))
                checkLocks();
        }
        checkOwnership();
        checkDeterminism();
    }

  private:
    void emit(int line, const char *id, const char *name,
              const std::string &message)
    {
        out_.push_back({src_.path, line, id, name, message});
    }

    void checkHygiene();            // R5
    void checkIncludeGuard();       // R5
    void checkGlobals();            // R6
    void checkOwnership();          // R7
    void checkLocks();              // R8
    void checkDeterminism();        // R9

    const SourceFile &src_;
    const ScopeTree tree_;
    std::vector<Finding> &out_;
};

void
FileLinter::checkHygiene()
{
    for (const auto &tok : src_.tokens) {
        if (tok.kind != TokKind::Identifier || !listed(kBanned, tok.text) ||
            exempt(src_.path, tok.text)) {
            continue;
        }
        emit(tok.line, "R5", "hygiene",
             tok.text == "new"
                 ? "naked 'new' (use std::make_unique or a container)"
                 : "banned nondeterminism source '" + tok.text + "'");
    }
    const std::string &rel = src_.path;
    if (rel.size() > 3 && rel.compare(rel.size() - 3, 3, ".hh") == 0)
        checkIncludeGuard();
}

void
FileLinter::checkIncludeGuard()
{
    std::string p = src_.path;
    if (p.rfind(kGuardStrip, 0) == 0)
        p = p.substr(kGuardStrip.size());
    std::string expect(kGuardPrefix);
    for (char c : p) {
        expect += std::isalnum(static_cast<unsigned char>(c))
                      ? static_cast<char>(
                            std::toupper(static_cast<unsigned char>(c)))
                      : '_';
    }

    // Past any #pragma line, the first directive must be `#ifndef`
    // of the guard and the next `#define` of it. (Comments are not
    // tokens.)
    const auto &t = src_.tokens;
    size_t i = 0;
    const auto directive = [&](const char *word) {
        return i + 2 < t.size() && t[i].text == "#" &&
               t[i + 1].text == word;
    };
    while (directive("pragma")) {
        const int line = t[i].line;
        while (i < t.size() && t[i].line == line)
            ++i;
    }
    if (!directive("ifndef")) {
        emit(1, "R5", "hygiene",
             "header has no include guard (expected #ifndef " + expect +
                 ")");
        return;
    }
    const Token &guard = t[i + 2];
    i += 3;
    if (guard.text != expect) {
        emit(guard.line, "R5", "hygiene",
             "include guard '" + guard.text +
                 "' does not match the path-derived macro '" + expect +
                 "'");
    } else if (!directive("define") || t[i + 2].text != expect) {
        emit(guard.line, "R5", "hygiene",
             "include guard #ifndef " + expect +
                 " is not followed by a matching #define");
    }
}

void
FileLinter::checkGlobals()
{
    const auto &t = src_.tokens;
    for (const auto &stmt : tree_.stmts) {
        const ScopeKind k = tree_.scopes[stmt.scope].kind;
        if (k == ScopeKind::Init)
            continue;
        bool isStatic = false, isConstexpr = false, isConst = false,
             isThreadLocal = false, nonPod = false;
        for (size_t pi : stmt.toks) {
            const Token &tok = t[pi];
            if (tok.kind != TokKind::Identifier)
                continue;
            if (tok.text == "static")
                isStatic = true;
            else if (tok.text == "constexpr")
                isConstexpr = true;
            else if (tok.text == "const")
                isConst = true;
            else if (tok.text == "thread_local")
                isThreadLocal = true;
            if (listed(kNonPodTypes, tok.text))
                nonPod = true;
        }
        const bool fnScope = k == ScopeKind::Func || k == ScopeKind::Block;
        // Namespace-scope definitions always count; inside functions
        // and classes only `static` storage is global state (plain
        // locals / data members are instance state).
        if (fnScope && !isStatic && !isThreadLocal)
            continue;
        if (k == ScopeKind::Class && !isStatic)
            continue;
        if (isConstexpr)
            continue;
        size_t decl = declaratorOf(t, stmt, fnScope);
        if (decl == std::string::npos)
            continue;
        if (isConst && !nonPod)
            continue;       // const POD: immutable after load
        emit(t[decl].line, "R6", "no-mutable-global-state",
             "mutable " +
                 std::string(fnScope ? "function-local static"
                             : k == ScopeKind::Class
                                 ? "static data member"
                                 : "namespace-scope variable") +
                 " '" + t[decl].text +
                 "'; move it behind a System-owned context object");
    }
}

void
FileLinter::checkOwnership()
{
    const auto &t = src_.tokens;
    for (const auto &stmt : tree_.stmts) {
        if (tree_.scopes[stmt.scope].kind != ScopeKind::Class)
            continue;
        const std::string &cls = tree_.scopes[stmt.scope].name;
        if (listed(kOwnerClasses, cls))
            continue;
        size_t decl = declaratorOf(t, stmt, false);
        if (decl == std::string::npos)
            continue;
        // Member pattern `Type *name;` / `Type &name;`: the token
        // before the declarator must be the pointer/reference sigil
        // (smart-pointer members end in `>` instead).
        const auto at = static_cast<size_t>(
            std::find(stmt.toks.begin(), stmt.toks.end(), decl) -
            stmt.toks.begin());
        if (at == 0 || at >= stmt.toks.size())
            continue;
        const Token &sigil = t[stmt.toks[at - 1]];
        if (sigil.kind != TokKind::Punct ||
            (sigil.text != "*" && sigil.text != "&")) {
            continue;
        }
        // Type name: last identifier before the sigil run, skipping
        // cv-qualifiers.
        std::string type;
        for (size_t k2 = at - 1; k2-- > 0;) {
            const Token &tt = t[stmt.toks[k2]];
            if (tt.kind == TokKind::Punct &&
                (tt.text == "*" || tt.text == "&")) {
                continue;
            }
            if (tt.kind == TokKind::Identifier &&
                (tt.text == "const" || tt.text == "volatile")) {
                continue;
            }
            if (tt.kind == TokKind::Identifier)
                type = tt.text;
            break;
        }
        if (!listed(kOwnedTypes, type))
            continue;
        emit(t[decl].line, "R7", "ownership-escape",
             "class '" + (cls.empty() ? "<anonymous>" : cls) +
                 "' stores a raw " +
                 (sigil.text == "*" ? "pointer" : "reference") +
                 " to System-owned component type '" + type + "' ('" +
                 t[decl].text +
                 "'); only classes transitively owned by a System may "
                 "borrow core components (kOwnerClasses in "
                 "tools/lint/lint.cc)");
    }
}

void
FileLinter::checkLocks()
{
    for (const auto &tok : src_.tokens) {
        if (tok.kind == TokKind::Identifier && listed(kLockIdents, tok.text)) {
            emit(tok.line, "R8", "lock-discipline",
                 "'" + tok.text +
                     "' outside src/sweep: the simulator is "
                     "single-threaded by contract");
        }
    }
}

void
FileLinter::checkDeterminism()
{
    // A pointer-keyed ordered map, `map<T *, ...>`: its order follows
    // allocation addresses, which vary across runs just as hash order
    // does.
    auto pointerKeyed = [](const std::vector<Token> &t, size_t i) {
        if (i + 1 >= t.size() || t[i + 1].text != "<")
            return false;
        int depth = 0;
        for (size_t j = i + 1; j < t.size(); ++j) {
            if (t[j].kind != TokKind::Punct)
                continue;
            if (t[j].text == "<") {
                ++depth;
            } else if (t[j].text == ">") {
                if (--depth == 0)
                    return false;
            } else if ((t[j].text == "," && depth == 1) ||
                       t[j].text == ";") {
                return false;
            } else if (t[j].text == "*" && depth == 1) {
                return true;
            }
        }
        return false;
    };

    const auto &t = src_.tokens;
    for (size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokKind::Identifier)
            continue;
        if (listed(kUnorderedTypes, t[i].text)) {
            emit(t[i].line, "R9", "no-hash-ordered-state",
                 "'" + t[i].text +
                     "' iterates in hash order; use std::map, std::set "
                     "or a flat table so no stat, hook or dump can "
                     "depend on it");
        } else if ((t[i].text == "map" || t[i].text == "multimap") &&
                   pointerKeyed(t, i)) {
            emit(t[i].line, "R9", "no-hash-ordered-state",
                 "pointer-keyed '" + t[i].text +
                     "' iterates in allocation order; key it by a "
                     "stable id");
        }
    }
}

} // namespace

std::string
format(const Finding &f)
{
    return f.file + ":" + std::to_string(f.line) + ": [" + f.id + " " +
           f.name + "] " + f.message;
}

std::string
formatGithub(const Finding &f)
{
    // GitHub annotation commands treat the message as a single line;
    // properties also escape the ',' and ':' that delimit them.
    auto escape = [](const std::string &s, bool property) {
        std::string out;
        for (char c : s) {
            if (c == '%') out += "%25";
            else if (c == '\r') out += "%0D";
            else if (c == '\n') out += "%0A";
            else if (property && c == ',') out += "%2C";
            else if (property && c == ':') out += "%3A";
            else out += c;
        }
        return out;
    };
    auto prop = [&](const std::string &s) { return escape(s, true); };
    return "::error file=" + prop(f.file) + ",line=" +
           std::to_string(f.line) + ",title=" +
           prop("mtlb-lint " + f.id + " " + f.name) +
           "::" + escape(f.message, false);
}

std::vector<Finding>
runLint(const std::string &root)
{
    if (!fs::is_directory(root))
        throw std::runtime_error("mtlb-lint: no directory " + root);
    std::vector<Finding> findings;
    for (const std::string &rel : sourceFiles(root)) {
        const SourceFile src =
            tokenizeFile((fs::path(root) / rel).string(), rel);
        FileLinter(src, findings).run();
    }
    std::sort(findings.begin(), findings.end());
    findings.erase(std::unique(findings.begin(), findings.end()),
                   findings.end());
    return findings;
}

} // namespace mtlblint
