#include "callgraph.hh"

#include <algorithm>

namespace mtlblint
{

namespace
{

/** Resolution unit of a path: `src/os/kernel.cc` and
 *  `src/os/kernel.hh` are one unit, so an implementation file sees
 *  its own header's inline helpers and nothing else's. */
std::string
unitOf(const std::string &file)
{
    auto dot = file.rfind('.');
    return dot == std::string::npos ? file : file.substr(0, dot);
}

/** Identifiers that look like calls but never are. */
bool
nonCallKeyword(const std::string &s)
{
    return s == "if" || s == "for" || s == "while" || s == "switch" ||
           s == "catch" || s == "return" || s == "sizeof" ||
           s == "static_assert" || s == "decltype" || s == "noexcept" ||
           s == "alignof";
}

/**
 * Recover the (class, name, line) of the function whose body brace
 * sits at token index @p open. Walks left over cv/ref qualifiers and
 * constructor-initializer groups (`: a_(x), b_{y}`) until the
 * parameter list, then reads the identifier before it. Returns false
 * for headers this walk cannot name (operator overloads, lambdas
 * assigned at namespace scope).
 */
bool
fnHeader(const std::vector<Token> &t, size_t open, std::string &cls,
         std::string &name, int &line)
{
    static const std::set<std::string> kQual = {
        "const", "noexcept", "override", "final", "mutable"};
    size_t k = open;
    for (int guard = 0; guard < 256; ++guard) {
        while (k > 0) {
            const Token &p = t[k - 1];
            if (p.kind == TokKind::Identifier && kQual.count(p.text)) {
                --k;
                continue;
            }
            if (p.kind == TokKind::Punct && p.text == "&") {
                --k;
                continue;
            }
            break;
        }
        if (k == 0)
            return false;
        const Token &p = t[k - 1];
        if (p.kind != TokKind::Punct || (p.text != ")" && p.text != "}"))
            return false;
        const std::string openTxt = p.text == ")" ? "(" : "{";
        int depth = 1;
        size_t m = k - 1;
        while (m > 0 && depth > 0) {
            --m;
            if (t[m].kind != TokKind::Punct)
                continue;
            if (t[m].text == p.text)
                ++depth;
            else if (t[m].text == openTxt)
                --depth;
        }
        if (depth != 0 || m == 0)
            return false;
        if (t[m - 1].kind != TokKind::Identifier)
            return false;
        const size_t nameIdx = m - 1;
        // Start of the (possibly qualified) id: `stats::Group(...)`.
        size_t chainStart = nameIdx;
        while (chainStart >= 2 &&
               t[chainStart - 1].kind == TokKind::Punct &&
               t[chainStart - 1].text == "::" &&
               t[chainStart - 2].kind == TokKind::Identifier) {
            chainStart -= 2;
        }
        size_t beforeIdx = chainStart;
        const bool tilde = beforeIdx > 0 &&
                           t[beforeIdx - 1].kind == TokKind::Punct &&
                           t[beforeIdx - 1].text == "~";
        if (tilde)
            --beforeIdx;
        // A ',' or ':' in front means this group was a member
        // initializer, not the parameter list; keep walking left.
        if (beforeIdx > 0 && t[beforeIdx - 1].kind == TokKind::Punct &&
            (t[beforeIdx - 1].text == "," ||
             t[beforeIdx - 1].text == ":")) {
            k = beforeIdx - 1;
            continue;
        }
        name = (tilde ? "~" : "") + t[nameIdx].text;
        line = t[nameIdx].line;
        cls.clear();
        if (nameIdx >= 2 && t[nameIdx - 1].kind == TokKind::Punct &&
            t[nameIdx - 1].text == "::" &&
            t[nameIdx - 2].kind == TokKind::Identifier) {
            cls = t[nameIdx - 2].text;
        }
        return true;
    }
    return false;
}

} // namespace

void
CallGraph::addFile(const SourceFile &src, const ScopeTree &tree,
                   const RulesConfig &cfg)
{
    const auto &t = src.tokens;
    for (size_t si = 0; si < tree.scopes.size(); ++si) {
        const Scope &sc = tree.scopes[si];
        if (sc.kind != ScopeKind::Func)
            continue;
        std::string cls, name;
        int line = 0;
        if (!fnHeader(t, sc.open, cls, name, line))
            continue;
        if (cls.empty()) {
            const int c = tree.enclosingClass(sc.parent);
            if (c != -1)
                cls = tree.scopes[c].name;
        }
        FnDef fn;
        fn.file = src.path;
        fn.cls = cls;
        fn.name = name;
        fn.line = line;
        fn.open = sc.open;
        fn.close = sc.close;
        FnSummary sum;

        for (size_t i = sc.open + 1; i < sc.close && i < t.size(); ++i) {
            // Lambdas (Block scopes) belong to their enclosing named
            // function; local-class methods do not.
            if (tree.enclosingFunc(tree.scopeOf[i]) != static_cast<int>(si))
                continue;
            if (t[i].kind != TokKind::Identifier)
                continue;

            // Per-core container subscript (R11).
            auto pc = cfg.percoreContainers.find(t[i].text);
            if (pc != cfg.percoreContainers.end() && i + 1 < t.size() &&
                t[i + 1].kind == TokKind::Punct && t[i + 1].text == "[") {
                int depth = 0;
                std::string idx;
                for (size_t j = i + 1; j < t.size(); ++j) {
                    if (t[j].kind == TokKind::Punct) {
                        if (t[j].text == "[") {
                            if (++depth == 1)
                                continue;
                        } else if (t[j].text == "]") {
                            if (--depth == 0)
                                break;
                        }
                    }
                    idx += t[j].text;
                }
                fn.subscripts.push_back(
                    {t[i].text, idx, i, t[i].line});
                if (pc->second.empty() || idx != pc->second)
                    sum.touchesPerCore = true;
                continue;
            }

            if (nonCallKeyword(t[i].text))
                continue;
            size_t after = i + 1;
            if (after < t.size() && t[after].kind == TokKind::Punct &&
                t[after].text == "<") {
                size_t past = skipAngles(t, after);
                if (past > after + 1 && past < t.size() &&
                    t[past].kind == TokKind::Punct && t[past].text == "(") {
                    after = past;
                }
            }
            if (after >= t.size() || t[after].kind != TokKind::Punct ||
                t[after].text != "(") {
                continue;
            }
            CallSite c;
            c.name = t[i].text;
            c.pos = i;
            c.line = t[i].line;
            if (i > 0 && t[i - 1].kind == TokKind::Punct &&
                (t[i - 1].text == "." || t[i - 1].text == "->")) {
                c.member = true;
                if (i >= 2 && t[i - 2].kind == TokKind::Identifier)
                    c.receiver = t[i - 2].text;
            }

            // Direct facts.
            if (c.name == cfg.epochCall)
                sum.bumpsEpoch = true;
            if (!cfg.flushCall.empty() && c.name == cfg.flushCall)
                sum.flushesBatch = true;
            if (c.member && cfg.hooks.count(c.name))
                sum.hooksFired.insert(c.name);
            if (c.member) {
                for (const auto &m : cfg.mutators) {
                    if (m.method == c.name &&
                        (m.receiver.empty() || m.receiver == c.receiver)) {
                        sum.mutates = true;
                        break;
                    }
                }
            }
            fn.calls.push_back(std::move(c));
        }

        byName_[fn.name].push_back(fns_.size());
        fns_.push_back(std::move(fn));
        sums_.push_back(std::move(sum));
    }
}

std::vector<size_t>
CallGraph::resolve(const std::string &file, const std::string &name) const
{
    std::vector<size_t> out;
    auto it = byName_.find(name);
    if (it == byName_.end())
        return out;
    const std::string unit = unitOf(file);
    for (size_t i : it->second) {
        if (unitOf(fns_[i].file) == unit)
            out.push_back(i);
    }
    return out;
}

bool
CallGraph::mustAll(const std::string &file, const std::string &name,
                   bool FnSummary::*bit) const
{
    const auto cand = resolve(file, name);
    if (cand.empty())
        return false;
    for (size_t i : cand) {
        if (!(sums_[i].*bit))
            return false;
    }
    return true;
}

bool
CallGraph::mayAny(const std::string &file, const std::string &name,
                  bool FnSummary::*bit) const
{
    for (size_t i : resolve(file, name)) {
        if (sums_[i].*bit)
            return true;
    }
    return false;
}

bool
CallGraph::callMustBump(const std::string &file,
                        const std::string &name) const
{
    return mustAll(file, name, &FnSummary::bumpsEpoch);
}

bool
CallGraph::callMustFlush(const std::string &file,
                         const std::string &name) const
{
    return mustAll(file, name, &FnSummary::flushesBatch);
}

bool
CallGraph::callMayMutate(const std::string &file,
                         const std::string &name) const
{
    return mayAny(file, name, &FnSummary::mutates);
}

bool
CallGraph::callMayTouchPerCore(const std::string &file,
                               const std::string &name) const
{
    return mayAny(file, name, &FnSummary::touchesPerCore);
}

bool
CallGraph::callMayReadUnprotected(const std::string &file,
                                  const std::string &name) const
{
    return mayAny(file, name, &FnSummary::unprotectedRead);
}

std::set<std::string>
CallGraph::callMustHooks(const std::string &file,
                         const std::string &name) const
{
    std::set<std::string> out;
    const auto cand = resolve(file, name);
    if (cand.empty())
        return out;
    out = sums_[cand[0]].hooksFired;
    for (size_t k = 1; k < cand.size() && !out.empty(); ++k) {
        std::set<std::string> next;
        for (const auto &h : sums_[cand[k]].hooksFired) {
            if (out.count(h))
                next.insert(h);
        }
        out = std::move(next);
    }
    return out;
}

bool
CallGraph::isReaderCall(const CallSite &c, const RulesConfig &cfg) const
{
    if (!c.member)
        return false;
    for (const auto &r : cfg.r12Readers) {
        if (r.method == c.name &&
            (r.receiver.empty() || r.receiver == c.receiver)) {
            return true;
        }
    }
    return false;
}

void
CallGraph::propagate(const RulesConfig &cfg)
{
    // Phase 1: all facts except unprotectedRead. Bits (and hook sets)
    // only grow, so the loop terminates on cyclic graphs.
    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t i = 0; i < fns_.size(); ++i) {
            FnSummary &s = sums_[i];
            const std::string &file = fns_[i].file;
            for (const auto &c : fns_[i].calls) {
                if (!s.bumpsEpoch && callMustBump(file, c.name))
                    s.bumpsEpoch = changed = true;
                if (!s.flushesBatch && callMustFlush(file, c.name))
                    s.flushesBatch = changed = true;
                if (!s.mutates && callMayMutate(file, c.name))
                    s.mutates = changed = true;
                if (!s.touchesPerCore &&
                    callMayTouchPerCore(file, c.name)) {
                    s.touchesPerCore = changed = true;
                }
                for (const auto &h : callMustHooks(file, c.name)) {
                    if (s.hooksFired.insert(h).second)
                        changed = true;
                }
            }
        }
    }

    // Phase 2: unprotectedRead, against the settled flush facts. A
    // function reads unprotected when some reader call (direct, or
    // through a callee that reads unprotected) has no flush event at
    // an earlier position in the body.
    changed = true;
    while (changed) {
        changed = false;
        for (size_t i = 0; i < fns_.size(); ++i) {
            FnSummary &s = sums_[i];
            if (s.unprotectedRead)
                continue;
            const std::string &file = fns_[i].file;
            bool flushed = false;
            for (const auto &c : fns_[i].calls) {
                if ((!cfg.flushCall.empty() && c.name == cfg.flushCall) ||
                    callMustFlush(file, c.name)) {
                    flushed = true;
                    continue;
                }
                if (!flushed && (isReaderCall(c, cfg) ||
                                 callMayReadUnprotected(file, c.name))) {
                    s.unprotectedRead = changed = true;
                    break;
                }
            }
        }
    }
}

} // namespace mtlblint
