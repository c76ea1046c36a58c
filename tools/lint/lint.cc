#include "lint.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "lexer.hh"
#include "scopes.hh"

namespace fs = std::filesystem;

namespace mtlblint
{

namespace
{

std::string
trim(const std::string &s)
{
    auto b = s.find_first_not_of(" \t\r");
    auto e = s.find_last_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    return s.substr(b, e - b + 1);
}

bool
underDir(const std::string &rel, const std::string &dir)
{
    if (rel.size() < dir.size() || rel.compare(0, dir.size(), dir) != 0)
        return false;
    return rel.size() == dir.size() || rel[dir.size()] == '/' ||
           dir.back() == '/';
}

/** Repo-relative paths of all files under @p dirs with one of the
 *  given extensions, sorted for deterministic output. */
std::vector<std::string>
listFiles(const std::string &root, const std::vector<std::string> &dirs,
          const std::vector<std::string> &exts)
{
    std::vector<std::string> out;
    for (const auto &d : dirs) {
        fs::path base = fs::path(root) / d;
        if (!fs::exists(base))
            continue;
        for (const auto &ent : fs::recursive_directory_iterator(base)) {
            if (!ent.is_regular_file())
                continue;
            std::string ext = ent.path().extension().string();
            if (std::find(exts.begin(), exts.end(), ext) == exts.end())
                continue;
            out.push_back(
                fs::relative(ent.path(), fs::path(root)).generic_string());
        }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
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
    static const std::set<std::string> kSkipWords = {
        "using", "typedef", "extern", "friend", "template", "operator",
        "static_assert", "namespace", "return", "delete", "new",
        "if", "for", "while", "switch", "do", "case", "goto", "throw",
    };
    static const std::set<std::string> kAccess = {"public", "private",
                                                  "protected"};
    // An access specifier opens the statement (`private: Type x;`);
    // skip it rather than rejecting the member that follows.
    size_t first = 0;
    while (first + 1 < stmt.toks.size() &&
           t[stmt.toks[first]].kind == TokKind::Identifier &&
           kAccess.count(t[stmt.toks[first]].text) &&
           t[stmt.toks[first + 1]].text == ":") {
        first += 2;
    }
    for (size_t k = first; k < stmt.toks.size(); ++k) {
        size_t pi = stmt.toks[k];
        if (t[pi].kind == TokKind::Identifier && kSkipWords.count(t[pi].text))
            return std::string::npos;
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

} // namespace

// --------------------------------------------------------------------
// rules.cfg
// --------------------------------------------------------------------

RulesConfig
RulesConfig::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("mtlb-lint: cannot read rules file " +
                                 path);
    RulesConfig cfg;
    std::string line;
    int no = 0;
    while (std::getline(in, line)) {
        ++no;
        auto hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trim(line);
        if (line.empty())
            continue;
        std::istringstream iss(line);
        std::string dir, a, b, c;
        iss >> dir >> a;
        iss >> b;    // optional second operand
        iss >> c;    // optional third operand
        auto need3 = [&]() {
            if (c.empty()) {
                throw std::runtime_error(
                    path + ":" + std::to_string(no) + ": '" + dir +
                    "' needs three operands");
            }
        };
        if (a.empty()) {
            throw std::runtime_error(path + ":" + std::to_string(no) +
                                     ": '" + dir + "' needs an operand");
        }
        if (dir == "scan-dir") {
            cfg.scanDirs.push_back(a);
        } else if (dir == "global-dir") {
            cfg.globalDirs.push_back(a);
        } else if (dir == "r6-baseline") {
            cfg.r6Baseline = a;
        } else if (dir == "nonpod-type") {
            cfg.nonPodTypes.insert(a);
        } else if (dir == "owned-type") {
            cfg.ownedTypes.insert(a);
        } else if (dir == "owner-class") {
            cfg.ownerClasses.insert(a);
        } else if (dir == "lock-free-dir") {
            cfg.lockFreeDirs.push_back(a);
        } else if (dir == "lock-ident") {
            cfg.lockIdents.insert(a);
        } else if (dir == "guarded-member") {
            need3();
            cfg.guardedMembers.push_back({a, b, c});
        } else if (dir == "banned") {
            cfg.banned.insert(a);
        } else if (dir == "banned-exempt") {
            cfg.bannedExempt.push_back(a);
        } else if (dir == "guard-prefix") {
            cfg.guardPrefix = a;
        } else if (dir == "guard-strip") {
            cfg.guardStrip.push_back(a);
        } else {
            throw std::runtime_error(path + ":" + std::to_string(no) +
                                     ": unknown directive '" + dir + "'");
        }
    }
    return cfg;
}

std::string
format(const Finding &f)
{
    return f.file + ":" + std::to_string(f.line) + ": [" + f.id + " " +
           f.name + "] " + f.message +
           (f.allowed ? " (allowed)" : "");
}

namespace
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

std::string
formatGithub(const Finding &f)
{
    // GitHub annotation commands treat the message as a single line;
    // properties are escaped per the workflow-command grammar.
    auto prop = [](const std::string &s) {
        std::string out;
        for (char c : s) {
            if (c == '%') out += "%25";
            else if (c == '\r') out += "%0D";
            else if (c == '\n') out += "%0A";
            else if (c == ',') out += "%2C";
            else if (c == ':') out += "%3A";
            else out += c;
        }
        return out;
    };
    auto data = [](const std::string &s) {
        std::string out;
        for (char c : s) {
            if (c == '%') out += "%25";
            else if (c == '\r') out += "%0D";
            else if (c == '\n') out += "%0A";
            else out += c;
        }
        return out;
    };
    return "::error file=" + prop(f.file) + ",line=" +
           std::to_string(f.line) + ",title=" +
           prop("mtlb-lint " + f.id + " " + f.name) +
           "::" + data(f.message);
}

std::string
formatJson(const std::vector<Finding> &findings)
{
    std::ostringstream os;
    os << "{\n  \"findings\": [";
    size_t live = 0;
    for (size_t i = 0; i < findings.size(); ++i) {
        const Finding &f = findings[i];
        if (!f.allowed)
            ++live;
        os << (i ? ",\n    " : "\n    ") << "{\"file\": \""
           << jsonEscape(f.file) << "\", \"line\": " << f.line
           << ", \"rule\": \"" << f.id << "\", \"name\": \""
           << jsonEscape(f.name) << "\", \"message\": \""
           << jsonEscape(f.message) << "\", \"allowed\": "
           << (f.allowed ? "true" : "false") << "}";
    }
    os << (findings.empty() ? "" : "\n  ") << "],\n  \"count\": " << live
       << "\n}\n";
    return os.str();
}

// --------------------------------------------------------------------
// Rule runners
// --------------------------------------------------------------------

namespace
{

/** id -> long name for every rule the engine knows, so stale-allow
 *  can recognise annotations written either way. */
const std::map<std::string, std::string> &
ruleNames()
{
    static const std::map<std::string, std::string> kNames = {
        {"R5", "hygiene"},
        {"R6", "no-mutable-global-state"},
        {"R7", "ownership-escape"},
        {"R8", "lock-discipline"},
        {"R9", "no-hash-ordered-state"},
        {"SA", "stale-allow"},
    };
    return kNames;
}

/** Rule id for an allow() token ("R7" or "ownership-escape" -> "R7"),
 *  or "" when the token names no known rule (prose in a comment). */
std::string
ruleIdForToken(const std::string &tok)
{
    for (const auto &[id, name] : ruleNames()) {
        if (tok == id || tok == name)
            return id;
    }
    return "";
}

class Linter
{
  public:
    Linter(const std::string &root, const RulesConfig &cfg,
           const std::set<std::string> &only, bool keepAllowed)
        : root_(root), cfg_(cfg), only_(only), keepAllowed_(keepAllowed)
    {}

    std::vector<Finding> run();

  private:
    bool enabled(const std::string &id) const
    {
        return only_.empty() || only_.count(id);
    }

    /** Whether a check should execute. Stale-allow judges the other
     *  rules' suppressions, so enabling SA executes every check (its
     *  findings are then filtered to the enabled ids in emit()). */
    bool active(const std::string &id) const
    {
        return enabled(id) || enabled("SA");
    }

    /** Record which allow() entry suppressed a finding at @p line, so
     *  stale-allow can later flag the entries that suppressed
     *  nothing. Marks both spellings (id and long name) on whichever
     *  line carries the annotation. */
    void noteUse(const SourceFile &src, int line, const std::string &id,
                 const std::string &name)
    {
        for (int l : {line, line - 1}) {
            auto it = src.suppressions.find(l);
            if (it == src.suppressions.end())
                continue;
            for (const std::string &tok : {id, name}) {
                if (it->second.count(tok))
                    used_.emplace(src.path, l, tok);
            }
        }
    }

    void emit(const SourceFile &src, int line, const std::string &id,
              const std::string &name, const std::string &message)
    {
        const bool allowed = suppressed(src, line, id, name);
        if (allowed)
            noteUse(src, line, id, name);
        if (!enabled(id))
            return;     // executed only for stale-allow bookkeeping
        if (allowed && !keepAllowed_)
            return;
        findings_.push_back({src.path, line, id, name, message, allowed});
    }

    /** Emit bypassing the allow-annotation check. R6's ratchet uses
     *  this: an annotated global that is missing from the committed
     *  baseline must still be a finding, or annotations alone could
     *  grow the inventory. SA uses it too: a stale annotation cannot
     *  allow() itself away. */
    void emitRaw(const std::string &file, int line, const std::string &id,
                 const std::string &name, const std::string &message)
    {
        if (!enabled(id))
            return;
        findings_.push_back({file, line, id, name, message, false});
    }

    std::string abs(const std::string &rel) const
    {
        return (fs::path(root_) / rel).string();
    }

    const SourceFile &tokens(const std::string &rel);

    void checkHygiene();            // R5
    void checkGlobals();            // R6
    void checkOwnership();          // R7
    void checkLocks();              // R8
    void checkDeterminism();        // R9
    void checkStaleAllows();        // SA (after all other checks)

    const ScopeTree &scopes(const std::string &rel);

    std::string expectedGuard(const std::string &rel) const;

    const std::string root_;
    const RulesConfig &cfg_;
    const std::set<std::string> only_;
    const bool keepAllowed_;
    std::map<std::string, SourceFile> cache_;
    std::map<std::string, ScopeTree> scopeCache_;
    std::vector<Finding> findings_;
    /** Rule ids whose check actually executed (preconditions met). */
    std::set<std::string> assessed_;
    /** (file, line, allow-token) entries that suppressed a finding. */
    std::set<std::tuple<std::string, int, std::string>> used_;
};

const SourceFile &
Linter::tokens(const std::string &rel)
{
    auto it = cache_.find(rel);
    if (it == cache_.end())
        it = cache_.emplace(rel, tokenizeFile(abs(rel), rel)).first;
    return it->second;
}

const ScopeTree &
Linter::scopes(const std::string &rel)
{
    auto it = scopeCache_.find(rel);
    if (it == scopeCache_.end()) {
        const SourceFile &src = tokens(rel);
        it = scopeCache_.emplace(rel, buildScopes(src.tokens)).first;
    }
    return it->second;
}

std::string
Linter::expectedGuard(const std::string &rel) const
{
    std::string p = rel;
    for (const auto &strip : cfg_.guardStrip) {
        if (p.rfind(strip, 0) == 0) {
            p = p.substr(strip.size());
            break;
        }
    }
    std::string g = cfg_.guardPrefix;
    for (char c : p) {
        g += std::isalnum(static_cast<unsigned char>(c))
                 ? static_cast<char>(
                       std::toupper(static_cast<unsigned char>(c)))
                 : '_';
    }
    return g;
}

void
Linter::checkHygiene()
{
    if (!active("R5"))
        return;
    assessed_.insert("R5");
    auto files = listFiles(root_, cfg_.scanDirs, {".hh", ".cc"});
    for (const auto &rel : files) {
        bool exempt = false;
        for (const auto &d : cfg_.bannedExempt) {
            if (underDir(rel, d)) {
                exempt = true;
                break;
            }
        }
        const SourceFile &src = tokens(rel);

        if (!exempt) {
            for (const auto &tok : src.tokens) {
                if (tok.kind != TokKind::Identifier ||
                    !cfg_.banned.count(tok.text)) {
                    continue;
                }
                std::string why =
                    tok.text == "new"
                        ? "naked 'new' (use std::make_unique or a "
                          "container)"
                        : "banned nondeterminism source '" + tok.text +
                              "'";
                emit(src, tok.line, "R5", "hygiene", why);
            }
        }

        // Include-guard conformance for headers.
        if (rel.size() > 3 && rel.compare(rel.size() - 3, 3, ".hh") == 0) {
            std::string expect = expectedGuard(rel);
            int ifndefLine = 0;
            std::string ifndefMacro, defineMacro;
            bool inBlockComment = false;
            for (size_t li = 0;
                 li < src.lines.size() && defineMacro.empty(); ++li) {
                std::string line = trim(src.lines[li]);
                if (inBlockComment) {
                    if (line.find("*/") != std::string::npos)
                        inBlockComment = false;
                    continue;
                }
                if (line.empty() || line.rfind("//", 0) == 0)
                    continue;
                if (line.rfind("/*", 0) == 0) {
                    if (line.find("*/") == std::string::npos)
                        inBlockComment = true;
                    continue;
                }
                std::istringstream iss(line);
                std::string word;
                iss >> word;
                if (ifndefMacro.empty()) {
                    if (word == "#ifndef") {
                        iss >> ifndefMacro;
                        ifndefLine = static_cast<int>(li + 1);
                        continue;
                    }
                    if (word == "#pragma")
                        continue;   // handled below as non-conforming
                    break;          // first real content isn't a guard
                }
                if (word == "#define") {
                    iss >> defineMacro;
                } else {
                    break;
                }
            }
            if (ifndefMacro.empty()) {
                emit(src, 1, "R5", "hygiene",
                     "header has no include guard (expected #ifndef " +
                     expect + ")");
            } else if (ifndefMacro != expect) {
                emit(src, ifndefLine, "R5", "hygiene",
                     "include guard '" + ifndefMacro +
                     "' does not match the path-derived macro '" + expect +
                     "'");
            } else if (defineMacro != expect) {
                emit(src, ifndefLine, "R5", "hygiene",
                     "include guard #ifndef " + expect +
                     " is not followed by a matching #define");
            }
        }
    }
}

void
Linter::checkGlobals()
{
    if (!active("R6") || cfg_.globalDirs.empty())
        return;
    assessed_.insert("R6");

    // The committed ratchet baseline: `<file> <symbol>` per line.
    struct BaseEntry
    {
        std::string file, symbol;
        int line = 0;
        bool used = false;
    };
    std::vector<BaseEntry> baseline;
    const std::string basePath = cfg_.r6Baseline;
    if (!basePath.empty() && fs::exists(abs(basePath))) {
        std::ifstream in(abs(basePath));
        std::string line;
        int no = 0;
        while (std::getline(in, line)) {
            ++no;
            std::string t = trim(line);
            if (t.empty() || t[0] == '#')
                continue;
            BaseEntry e;
            std::istringstream iss(t);
            iss >> e.file >> e.symbol;
            e.line = no;
            baseline.push_back(e);
        }
    }
    auto inBaseline = [&](const std::string &file, const std::string &sym) {
        bool hit = false;
        for (auto &e : baseline) {
            if (e.file == file && e.symbol == sym)
                e.used = hit = true;
        }
        return hit;
    };

    for (const auto &rel : listFiles(root_, cfg_.globalDirs,
                                     {".hh", ".cc"})) {
        const SourceFile &src = tokens(rel);
        const ScopeTree &tree = scopes(rel);
        const auto &t = src.tokens;
        for (const auto &stmt : tree.stmts) {
            const ScopeKind k = tree.scopes[stmt.scope].kind;
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
                if (cfg_.nonPodTypes.count(tok.text))
                    nonPod = true;
            }
            const bool fnScope =
                k == ScopeKind::Func || k == ScopeKind::Block;
            // Namespace-scope definitions always count; inside
            // functions and classes only `static` storage is global
            // state (plain locals / data members are instance state).
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
            const std::string sym = t[decl].text;
            const int line = t[decl].line;

            if (suppressed(src, line, "R6", "no-mutable-global-state")) {
                noteUse(src, line, "R6", "no-mutable-global-state");
                if (inBaseline(rel, sym)) {
                    if (keepAllowed_ && enabled("R6")) {
                        findings_.push_back(
                            {rel, line, "R6", "no-mutable-global-state",
                             "mutable global '" + sym +
                                 "' (annotated, baselined)",
                             true});
                    }
                } else {
                    emitRaw(rel, line, "R6", "no-mutable-global-state",
                            "mutable global '" + sym +
                                "' is allow-annotated but not in the "
                                "ratchet baseline " +
                                basePath +
                                "; the inventory may only shrink");
                }
            } else {
                emit(src, line, "R6", "no-mutable-global-state",
                     "mutable " +
                         std::string(fnScope ? "function-local static"
                                             : k == ScopeKind::Class
                                                   ? "static data member"
                                                   : "namespace-scope "
                                                     "variable") +
                         " '" + sym +
                         "'; move it behind a System-owned context "
                         "object (or annotate and baseline it)");
            }
        }
    }

    // Stale baseline entries are findings too: the ratchet only turns
    // one way, so a refactored-away global must also leave the file.
    for (const auto &e : baseline) {
        if (!e.used) {
            emitRaw(basePath, e.line, "R6", "no-mutable-global-state",
                    "stale baseline entry '" + e.file + " " + e.symbol +
                        "' has no matching annotated global; delete it");
        }
    }
}

void
Linter::checkOwnership()
{
    if (!active("R7") || cfg_.ownedTypes.empty())
        return;
    assessed_.insert("R7");
    for (const auto &rel : listFiles(root_, cfg_.scanDirs,
                                     {".hh", ".cc"})) {
        const SourceFile &src = tokens(rel);
        const ScopeTree &tree = scopes(rel);
        const auto &t = src.tokens;
        for (const auto &stmt : tree.stmts) {
            if (tree.scopes[stmt.scope].kind != ScopeKind::Class)
                continue;
            const std::string &cls = tree.scopes[stmt.scope].name;
            if (cfg_.ownerClasses.count(cls))
                continue;
            size_t decl = declaratorOf(t, stmt, false);
            if (decl == std::string::npos)
                continue;
            // Member pattern `Type *name;` / `Type &name;`: the token
            // before the declarator must be the pointer/reference
            // sigil (smart-pointer members end in `>` instead).
            size_t at = stmt.toks.size();
            for (size_t k2 = 0; k2 < stmt.toks.size(); ++k2) {
                if (stmt.toks[k2] == decl) {
                    at = k2;
                    break;
                }
            }
            if (at == std::string::npos || at == 0 ||
                at >= stmt.toks.size()) {
                continue;
            }
            const Token &sigil = t[stmt.toks[at - 1]];
            if (sigil.kind != TokKind::Punct ||
                (sigil.text != "*" && sigil.text != "&")) {
                continue;
            }
            // Type name: last identifier before the sigil run,
            // skipping cv-qualifiers.
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
            if (!cfg_.ownedTypes.count(type))
                continue;
            emit(src, t[decl].line, "R7", "ownership-escape",
                 "class '" + (cls.empty() ? "<anonymous>" : cls) +
                     "' stores a raw " +
                     (sigil.text == "*" ? "pointer" : "reference") +
                     " to System-owned component type '" + type +
                     "' ('" + t[decl].text +
                     "'); only classes transitively owned by a System "
                     "may borrow core components (rules.cfg "
                     "owner-class)");
        }
    }
}

void
Linter::checkLocks()
{
    if (!active("R8") ||
        (cfg_.lockIdents.empty() && cfg_.guardedMembers.empty())) {
        return;
    }
    assessed_.insert("R8");

    // Hot-path purity: simulator-core directories are single-threaded
    // by contract and must not mention locks or atomics at all.
    if (!cfg_.lockIdents.empty()) {
        for (const auto &rel : listFiles(root_, cfg_.lockFreeDirs,
                                         {".hh", ".cc"})) {
            const SourceFile &src = tokens(rel);
            for (const auto &tok : src.tokens) {
                if (tok.kind == TokKind::Identifier &&
                    cfg_.lockIdents.count(tok.text)) {
                    emit(src, tok.line, "R8", "lock-discipline",
                         "'" + tok.text +
                             "' in simulator-core directory: the hot "
                             "path is single-threaded by contract and "
                             "must stay lock- and atomic-free");
                }
            }
        }
    }

    // Guarded members: every access must be downstream of a
    // lock_guard/unique_lock/scoped_lock naming the right mutex in an
    // enclosing scope.
    static const std::set<std::string> kLockTakers = {
        "lock_guard", "unique_lock", "scoped_lock"};
    for (const auto &gm : cfg_.guardedMembers) {
        if (!fs::exists(abs(gm.file)))
            continue;
        const SourceFile &src = tokens(gm.file);
        const ScopeTree &tree = scopes(gm.file);
        const auto &t = src.tokens;

        struct LockEvent
        {
            size_t pos;
            int scope;
        };
        std::vector<LockEvent> locks;
        for (size_t i = 0; i < t.size(); ++i) {
            if (t[i].kind != TokKind::Identifier ||
                !kLockTakers.count(t[i].text)) {
                continue;
            }
            // Scan the constructor argument list for the mutex name:
            // find the declaration's opening paren / brace first.
            size_t open = i;
            while (open < t.size() &&
                   !(t[open].kind == TokKind::Punct &&
                     (t[open].text == "(" || t[open].text == "{")) &&
                   !(t[open].kind == TokKind::Punct &&
                     t[open].text == ";")) {
                ++open;
            }
            if (open >= t.size() || t[open].text == ";")
                continue;
            bool names = false;
            int depth = 0;
            for (size_t k2 = open; k2 < t.size(); ++k2) {
                if (t[k2].kind == TokKind::Punct) {
                    if (t[k2].text == "(" || t[k2].text == "{")
                        ++depth;
                    else if (t[k2].text == ")" || t[k2].text == "}") {
                        if (--depth == 0)
                            break;
                    }
                } else if (t[k2].kind == TokKind::Identifier &&
                           t[k2].text == gm.mutex) {
                    names = true;
                }
            }
            if (names)
                locks.push_back({i, tree.scopeOf[i]});
        }

        for (size_t i = 0; i < t.size(); ++i) {
            if (t[i].kind != TokKind::Identifier ||
                t[i].text != gm.member) {
                continue;
            }
            const int sc = tree.scopeOf[i];
            if (tree.enclosingFunc(sc) == -1)
                continue;   // declaration / ctor-init, not an access
            bool held = false;
            for (const auto &le : locks) {
                if (le.pos < i && tree.isAncestor(le.scope, sc)) {
                    held = true;
                    break;
                }
            }
            if (!held) {
                emit(src, t[i].line, "R8", "lock-discipline",
                     "access to guarded member '" + gm.member +
                         "' without holding '" + gm.mutex +
                         "' (no lock_guard/unique_lock/scoped_lock in "
                         "an enclosing scope)");
            }
        }
    }
}

void
Linter::checkDeterminism()
{
    if (!active("R9"))
        return;
    assessed_.insert("R9");

    static const std::set<std::string> kUnorderedTypes = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};

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

    for (const auto &rel : listFiles(root_, cfg_.scanDirs, {".hh", ".cc"})) {
        const SourceFile &src = tokens(rel);
        const auto &t = src.tokens;
        for (size_t i = 0; i < t.size(); ++i) {
            if (t[i].kind != TokKind::Identifier)
                continue;
            if (kUnorderedTypes.count(t[i].text)) {
                emit(src, t[i].line, "R9", "no-hash-ordered-state",
                     "'" + t[i].text +
                         "' iterates in hash order; use std::map, "
                         "std::set or a flat table so no stat, hook or "
                         "dump can depend on it");
            } else if ((t[i].text == "map" || t[i].text == "multimap") &&
                       pointerKeyed(t, i)) {
                emit(src, t[i].line, "R9", "no-hash-ordered-state",
                     "pointer-keyed '" + t[i].text +
                         "' iterates in allocation order; key it by a "
                         "stable id");
            }
        }
    }
}

void
Linter::checkStaleAllows()
{
    if (!enabled("SA"))
        return;
    for (const auto &rel :
         listFiles(root_, cfg_.scanDirs, {".hh", ".cc"})) {
        const SourceFile &src = tokens(rel);
        for (const auto &[line, toks] : src.suppressions) {
            for (const auto &tok : toks) {
                const std::string id = ruleIdForToken(tok);
                if (id.empty())
                    continue;   // prose, not a rule annotation
                if (!assessed_.count(id))
                    continue;   // rule did not execute this run
                if (used_.count({rel, line, tok}))
                    continue;
                emitRaw(rel, line, "SA", "stale-allow",
                        "suppression 'allow(" + tok +
                            ")' matches no " + id +
                            " finding; delete the stale annotation");
            }
        }
    }
}

std::vector<Finding>
Linter::run()
{
    checkHygiene();
    checkGlobals();
    checkOwnership();
    checkLocks();
    checkDeterminism();
    checkStaleAllows();     // last: judges the other rules' output
    std::sort(findings_.begin(), findings_.end());
    findings_.erase(std::unique(findings_.begin(), findings_.end(),
                                [](const Finding &a, const Finding &b) {
                                    return !(a < b) && !(b < a);
                                }),
                    findings_.end());
    return std::move(findings_);
}

} // namespace

std::vector<Finding>
runLint(const std::string &root, const RulesConfig &cfg,
        const std::set<std::string> &only, bool keepAllowed)
{
    for (const std::string &id : only) {
        if (ruleNames().count(id))
            continue;
        std::string known;
        for (const auto &[rule, name] : ruleNames())
            known += " " + rule;
        throw std::runtime_error("mtlb-lint: unknown rule id '" + id +
                                 "' (rules:" + known + ")");
    }
    return Linter(root, cfg, only, keepAllowed).run();
}

} // namespace mtlblint
