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

/** Dotted lower-case config key: `tlb.entries`, `kernel.frame_seed`. */
bool
looksLikeKey(const std::string &s)
{
    if (s.empty() || !std::islower(static_cast<unsigned char>(s[0])))
        return false;
    bool sawDot = false;
    char prev = '\0';
    for (char c : s) {
        if (c == '.') {
            if (prev == '\0' || prev == '.')
                return false;
            sawDot = true;
        } else if (!(std::islower(static_cast<unsigned char>(c)) ||
                     std::isdigit(static_cast<unsigned char>(c)) ||
                     c == '_')) {
            return false;
        }
        prev = c;
    }
    return sawDot && prev != '.';
}

/** Read a text file into lines; also harvest `mtlb-lint: allow`
 *  directives so .cfg/.md findings can be suppressed in place. */
SourceFile
rawFile(const std::string &path, const std::string &displayPath)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("mtlb-lint: cannot read " + path);
    SourceFile out;
    out.path = displayPath;
    std::string line;
    int no = 0;
    while (std::getline(in, line)) {
        out.lines.push_back(line);
        addSuppressionsFromLine(line, ++no, out);
    }
    return out;
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
        } else if (dir == "stat-adder") {
            cfg.statAdders.push_back(a);
        } else if (dir == "config-source") {
            cfg.configSource = a;
        } else if (dir == "config-file") {
            cfg.configFiles.push_back(a);
        } else if (dir == "config-dir") {
            cfg.configDirs.push_back(a);
        } else if (dir == "doc-file") {
            cfg.docFile = a;
        } else if (dir == "doc-section") {
            cfg.docSection = a;
            if (!b.empty())
                cfg.docSection += " " + b;
            if (!c.empty())
                cfg.docSection += " " + c;
            std::string rest;
            while (iss >> rest)
                cfg.docSection += " " + rest;
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
        } else if (dir == "det-sink") {
            cfg.detSinks.insert(a);
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
        {"R3", "stats-registration"},
        {"R4", "config-key-parity"},
        {"R5", "hygiene"},
        {"R6", "no-mutable-global-state"},
        {"R7", "ownership-escape"},
        {"R8", "lock-discipline"},
        {"R9", "determinism-taint"},
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

    void checkStats();              // R3
    void checkConfigParity();       // R4
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

void
Linter::checkStats()
{
    if (!active("R3") || cfg_.statAdders.empty())
        return;
    assessed_.insert("R3");
    static const std::set<std::string> kStatKinds = {
        "Scalar", "Average", "Histogram", "Formula",
    };

    auto headers = listFiles(root_, cfg_.scanDirs, {".hh"});
    auto sources = listFiles(root_, cfg_.scanDirs, {".hh", ".cc"});

    // Pass 1: every name registered anywhere via `name ( ... add* ... )`.
    std::set<std::string> registered;
    for (const auto &rel : sources) {
        const auto &t = tokens(rel).tokens;
        for (size_t i = 0; i + 1 < t.size(); ++i) {
            if (t[i].kind != TokKind::Identifier ||
                t[i + 1].kind != TokKind::Punct || t[i + 1].text != "(") {
                continue;
            }
            int depth = 0;
            for (size_t j = i + 1; j < t.size(); ++j) {
                if (t[j].kind == TokKind::Punct) {
                    if (t[j].text == "(") {
                        ++depth;
                    } else if (t[j].text == ")") {
                        if (--depth == 0)
                            break;
                    }
                } else if (t[j].kind == TokKind::Identifier &&
                           std::find(cfg_.statAdders.begin(),
                                     cfg_.statAdders.end(), t[j].text) !=
                               cfg_.statAdders.end()) {
                    registered.insert(t[i].text);
                    break;
                }
            }
        }
    }

    // Pass 2: member declarations `stats::<Kind> [&] name ;` in headers.
    for (const auto &rel : headers) {
        const SourceFile &src = tokens(rel);
        const auto &t = src.tokens;
        for (size_t i = 0; i + 3 < t.size(); ++i) {
            if (!(t[i].kind == TokKind::Identifier && t[i].text == "stats" &&
                  t[i + 1].kind == TokKind::Punct &&
                  t[i + 1].text == "::" &&
                  t[i + 2].kind == TokKind::Identifier &&
                  kStatKinds.count(t[i + 2].text))) {
                continue;
            }
            size_t j = i + 3;
            while (j < t.size() && t[j].kind == TokKind::Punct &&
                   (t[j].text == "&" || t[j].text == "*")) {
                ++j;
            }
            if (j + 1 >= t.size() || t[j].kind != TokKind::Identifier ||
                t[j + 1].kind != TokKind::Punct || t[j + 1].text != ";") {
                continue;   // function decl, param, etc.
            }
            if (!registered.count(t[j].text)) {
                emit(src, t[j].line, "R3", "stats-registration",
                     "stat member '" + t[j].text + "' (stats::" +
                     t[i + 2].text + ") is never registered via " +
                     "a stat-group add* call");
            }
        }
    }
}

void
Linter::checkConfigParity()
{
    if (!active("R4") || cfg_.configSource.empty() ||
        !fs::exists(abs(cfg_.configSource))) {
        return;
    }
    assessed_.insert("R4");

    struct KeyRef
    {
        std::string file;
        int line;
    };

    // Keys the parser accepts, from string literals in configSource.
    const SourceFile &parserSrc = tokens(cfg_.configSource);
    std::map<std::string, KeyRef> parserKeys;
    for (const auto &tok : parserSrc.tokens) {
        if (tok.kind == TokKind::String && looksLikeKey(tok.text)) {
            parserKeys.emplace(tok.text,
                               KeyRef{parserSrc.path, tok.line});
        }
    }

    // Keys set in .cfg files.
    std::vector<std::string> cfgFiles = cfg_.configFiles;
    for (const auto &d : cfg_.configDirs) {
        for (const auto &rel : listFiles(root_, {d}, {".cfg"}))
            cfgFiles.push_back(rel);
    }
    std::sort(cfgFiles.begin(), cfgFiles.end());
    cfgFiles.erase(std::unique(cfgFiles.begin(), cfgFiles.end()),
                   cfgFiles.end());

    std::map<std::string, KeyRef> cfgKeys;
    std::vector<std::pair<std::string, SourceFile>> cfgSources;
    for (const auto &rel : cfgFiles) {
        if (!fs::exists(abs(rel)))
            continue;
        cfgSources.emplace_back(rel, rawFile(abs(rel), rel));
        const SourceFile &src = cfgSources.back().second;
        for (size_t li = 0; li < src.lines.size(); ++li) {
            std::string line = src.lines[li];
            auto hash = line.find('#');
            if (hash != std::string::npos)
                line = line.substr(0, hash);
            auto eq = line.find('=');
            if (eq == std::string::npos)
                continue;
            std::string key = trim(line.substr(0, eq));
            if (looksLikeKey(key)) {
                cfgKeys.emplace(key,
                                KeyRef{rel, static_cast<int>(li + 1)});
            }
        }
    }

    // Keys documented in the manual's key-reference section: backtick
    // spans that look like keys, between the doc-section heading and
    // the next same-level heading.
    std::map<std::string, KeyRef> docKeys;
    SourceFile docSrc;
    if (!cfg_.docFile.empty() && fs::exists(abs(cfg_.docFile))) {
        docSrc = rawFile(abs(cfg_.docFile), cfg_.docFile);
        bool inSection = cfg_.docSection.empty();
        bool sectionSeen = cfg_.docSection.empty();
        // A heading "matches" the configured section when its text
        // (after the markdown hashes) starts with docSection, e.g.
        // docSection "5." matches "## 5. Configuration keys".
        auto headingText = [](const std::string &line) -> std::string {
            size_t p = 0;
            while (p < line.size() && line[p] == '#')
                ++p;
            if (p == 0)
                return "";      // not a heading
            while (p < line.size() && line[p] == ' ')
                ++p;
            return line.substr(p);
        };
        for (size_t li = 0; li < docSrc.lines.size(); ++li) {
            const std::string &line = docSrc.lines[li];
            if (!cfg_.docSection.empty() && !line.empty() &&
                line[0] == '#') {
                inSection =
                    headingText(line).rfind(cfg_.docSection, 0) == 0;
                sectionSeen = sectionSeen || inSection;
            }
            if (!inSection)
                continue;
            size_t pos = 0;
            while ((pos = line.find('`', pos)) != std::string::npos) {
                auto close = line.find('`', pos + 1);
                if (close == std::string::npos)
                    break;
                std::string span = line.substr(pos + 1, close - pos - 1);
                if (looksLikeKey(span)) {
                    docKeys.emplace(span,
                                    KeyRef{cfg_.docFile,
                                           static_cast<int>(li + 1)});
                }
                pos = close + 1;
            }
        }
        // If the configured heading never matched, the key-reference
        // scan read nothing — a silently disabled check. Manual
        // restructuring must update doc-section in rules.cfg.
        if (!sectionSeen) {
            emit(docSrc, 1, "R4", "config-key-parity",
                 "doc-section heading '" + cfg_.docSection +
                     "' not found in " + cfg_.docFile +
                     "; the manual key-reference scan matched nothing "
                     "(update doc-section in rules.cfg)");
        }
    }

    // Parser keys must be set somewhere or documented.
    for (const auto &[key, ref] : parserKeys) {
        if (!cfgKeys.count(key) && !docKeys.count(key)) {
            emit(parserSrc, ref.line, "R4", "config-key-parity",
                 "config key '" + key +
                 "' is accepted by the parser but neither set in any "
                 ".cfg nor documented in the manual's key reference");
        }
    }
    // .cfg keys must be accepted by the parser (dead-key detection).
    for (const auto &[key, ref] : cfgKeys) {
        if (!parserKeys.count(key)) {
            for (const auto &[rel, src] : cfgSources) {
                if (rel == ref.file) {
                    emit(src, ref.line, "R4", "config-key-parity",
                         "config key '" + key +
                         "' is set here but not accepted by the parser "
                         "(dead key)");
                    break;
                }
            }
        }
    }
    // Documented keys must be accepted by the parser.
    for (const auto &[key, ref] : docKeys) {
        if (!parserKeys.count(key)) {
            emit(docSrc, ref.line, "R4", "config-key-parity",
                 "manual documents config key '" + key +
                 "' which the parser does not accept");
        }
    }
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
    if (!active("R9") || cfg_.detSinks.empty())
        return;
    assessed_.insert("R9");

    static const std::set<std::string> kUnorderedTypes = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};

    const auto files = listFiles(root_, cfg_.scanDirs, {".hh", ".cc"});

    // Pass A: names of variables/members declared with an unordered
    // type, functions returning one by reference, and pointer-keyed
    // ordered maps (iteration order = allocation order: just as
    // nondeterministic across runs with ASLR or allocator changes).
    std::set<std::string> unorderedNames;
    std::map<std::string, std::string> why;     // name -> description
    for (const auto &rel : files) {
        const auto &t = tokens(rel).tokens;
        for (size_t i = 0; i < t.size(); ++i) {
            if (t[i].kind != TokKind::Identifier)
                continue;
            bool unordered = kUnorderedTypes.count(t[i].text) > 0;
            bool ptrKeyed = false;
            if (!unordered &&
                (t[i].text == "map" || t[i].text == "multimap")) {
                // Pointer-keyed ordered map: `map<T *, ...>`.
                if (i + 1 < t.size() && t[i + 1].text == "<") {
                    int depth = 0;
                    for (size_t j = i + 1; j < t.size(); ++j) {
                        if (t[j].kind != TokKind::Punct)
                            continue;
                        if (t[j].text == "<") {
                            ++depth;
                        } else if (t[j].text == ">") {
                            if (--depth == 0)
                                break;
                        } else if (t[j].text == "," && depth == 1) {
                            break;
                        } else if (t[j].text == "*" && depth == 1) {
                            ptrKeyed = true;
                        } else if (t[j].text == ";") {
                            break;
                        }
                    }
                }
            }
            if (!unordered && !ptrKeyed)
                continue;
            if (i + 1 >= t.size() || t[i + 1].text != "<")
                continue;
            size_t j = skipAngles(t, i + 1);
            while (j < t.size() &&
                   ((t[j].kind == TokKind::Punct &&
                     (t[j].text == "&" || t[j].text == "*")) ||
                    (t[j].kind == TokKind::Identifier &&
                     t[j].text == "const"))) {
                ++j;
            }
            if (j >= t.size() || t[j].kind != TokKind::Identifier)
                continue;
            const std::string &name = t[j].text;
            unorderedNames.insert(name);
            why.emplace(name, unordered
                                  ? "unordered container"
                                  : "pointer-keyed map (iteration "
                                    "order tracks allocation)");
        }
    }
    if (unorderedNames.empty())
        return;

    // Pass B: a function that both iterates one of those names and
    // reaches a determinism sink (stats recording / observer hook
    // call) is tainted.
    for (const auto &rel : files) {
        const SourceFile &src = tokens(rel);
        const ScopeTree &tree = scopes(rel);
        const auto &t = src.tokens;

        struct IterEvent
        {
            int func;
            int line;
            std::string name;
        };
        std::vector<IterEvent> iters;
        std::set<int> sinkFuncs;

        for (size_t i = 0; i < t.size(); ++i) {
            if (t[i].kind != TokKind::Identifier)
                continue;
            const int func = tree.enclosingFunc(tree.scopeOf[i]);
            if (func == -1)
                continue;

            // Sink: member call of a det-sink name.
            if (cfg_.detSinks.count(t[i].text) && i > 0 &&
                t[i - 1].kind == TokKind::Punct &&
                (t[i - 1].text == "." || t[i - 1].text == "->")) {
                sinkFuncs.insert(func);
                continue;
            }

            // Iteration: range-for whose range expression mentions an
            // unordered name...
            if (t[i].text == "for" && i + 1 < t.size() &&
                t[i + 1].text == "(") {
                int depth = 0;
                size_t colon = 0, close = 0;
                for (size_t j = i + 1; j < t.size(); ++j) {
                    if (t[j].kind != TokKind::Punct)
                        continue;
                    if (t[j].text == "(") {
                        ++depth;
                    } else if (t[j].text == ")") {
                        if (--depth == 0) {
                            close = j;
                            break;
                        }
                    } else if (t[j].text == ":" && depth == 1 &&
                               !colon) {
                        colon = j;
                    }
                }
                if (colon && close) {
                    for (size_t j = colon + 1; j < close; ++j) {
                        if (t[j].kind == TokKind::Identifier &&
                            unorderedNames.count(t[j].text)) {
                            iters.push_back(
                                {func, t[j].line, t[j].text});
                            break;
                        }
                    }
                }
                continue;
            }

            // ... or explicit iterator walks: name.begin()/cbegin().
            if ((t[i].text == "begin" || t[i].text == "cbegin") &&
                i >= 2 && t[i - 1].kind == TokKind::Punct &&
                (t[i - 1].text == "." || t[i - 1].text == "->") &&
                t[i - 2].kind == TokKind::Identifier &&
                unorderedNames.count(t[i - 2].text)) {
                iters.push_back({func, t[i].line, t[i - 2].text});
            }
        }

        for (const auto &ev : iters) {
            if (!sinkFuncs.count(ev.func))
                continue;
            auto w = why.find(ev.name);
            emit(src, ev.line, "R9", "determinism-taint",
                 "iteration over " +
                     (w == why.end() ? std::string("unordered container")
                                     : w->second) +
                     " '" + ev.name +
                     "' in a function that records stats or fires "
                     "observer hooks; use an ordered container or "
                     "sort before iterating");
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
    checkStats();
    checkConfigParity();
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
