#include "scopes.hh"

#include <set>

namespace mtlblint
{

bool
classKeyword(const std::string &s)
{
    return s == "class" || s == "struct" || s == "union" || s == "enum";
}

ScopeTree
buildScopes(const std::vector<Token> &t)
{
    ScopeTree tree;
    tree.scopes.push_back({ScopeKind::File, "", -1});
    tree.scopeOf.assign(t.size(), 0);
    std::vector<int> stack = {0};

    // Pending statement (token indices) per open scope.
    std::vector<std::vector<size_t>> pending(1);

    auto flush = [&]() {
        if (pending.back().empty())
            return;
        tree.stmts.push_back(Stmt{stack.back(), std::move(pending.back())});
        pending.back().clear();
    };

    int ppLine = -1;    // line of an in-flight preprocessor directive
    for (size_t i = 0; i < t.size(); ++i) {
        const Token &tok = t[i];
        tree.scopeOf[i] = stack.back();
        if (ppLine != -1 && tok.line == ppLine)
            continue;
        ppLine = -1;
        if (tok.kind == TokKind::Punct && tok.text == "#") {
            ppLine = tok.line;
            continue;
        }

        if (tok.kind == TokKind::Punct && tok.text == "{") {
            const auto &p = pending.back();
            const ScopeKind outer = tree.scopes[stack.back()].kind;
            const bool outerIsType =
                outer == ScopeKind::File || outer == ScopeKind::Namespace ||
                outer == ScopeKind::Class;

            ScopeKind kind = ScopeKind::Block;
            std::string name;
            bool sawNamespace = false, sawClass = false;
            size_t angle = 0;
            bool inTemplateIntro = false;
            std::string lastIdent;
            std::string classNameAfterKeyword;
            bool wantClassName = false;
            for (size_t pi : p) {
                const Token &pt = t[pi];
                if (pt.kind == TokKind::Identifier) {
                    if (pt.text == "template") {
                        inTemplateIntro = true;
                    } else if (!inTemplateIntro) {
                        if (pt.text == "namespace")
                            sawNamespace = true;
                        else if (classKeyword(pt.text))
                            sawClass = wantClassName = true;
                        else if (wantClassName &&
                                 classNameAfterKeyword.empty())
                            classNameAfterKeyword = pt.text;
                        lastIdent = pt.text;
                    }
                } else if (pt.kind == TokKind::Punct) {
                    if (pt.text == "<") {
                        ++angle;
                    } else if (pt.text == ">") {
                        if (angle && --angle == 0)
                            inTemplateIntro = false;
                    }
                }
            }
            const Token *prev = p.empty() ? nullptr : &t[p.back()];
            // A function body's brace may trail cv/ref/virt
            // qualifiers: `run(...) const noexcept override {`. Skip
            // them so the `)`-rule still sees the parameter list.
            static const std::set<std::string> kFnQualifiers = {
                "const", "noexcept", "override", "final", "mutable"};
            const Token *effPrev = nullptr;
            for (size_t q = p.size(); q-- > 0;) {
                const Token &qt = t[p[q]];
                if (qt.kind == TokKind::Identifier &&
                    kFnQualifiers.count(qt.text)) {
                    continue;
                }
                if (qt.kind == TokKind::Punct && qt.text == "&")
                    continue;   // ref-qualifier
                effPrev = &qt;
                break;
            }
            if (sawNamespace) {
                kind = ScopeKind::Namespace;
                name = lastIdent == "namespace" ? "" : lastIdent;
            } else if (prev && prev->kind == TokKind::String) {
                kind = ScopeKind::Namespace;    // extern "C" { }
            } else if (effPrev && effPrev->kind == TokKind::Punct &&
                       effPrev->text == ")") {
                kind = outerIsType ? ScopeKind::Func : ScopeKind::Block;
            } else if (sawClass) {
                kind = ScopeKind::Class;
                name = classNameAfterKeyword;
            } else if (prev &&
                       (prev->kind == TokKind::Identifier ||
                        (prev->kind == TokKind::Punct &&
                         (prev->text == "=" || prev->text == "," ||
                          prev->text == "(" || prev->text == "[" ||
                          prev->text == ">")))) {
                // Braced initialiser (or a lambda body after a
                // trailing return type; both are expression context).
                kind = prev->kind == TokKind::Identifier &&
                               prev->text == "return"
                           ? ScopeKind::Block
                           : ScopeKind::Init;
            } else {
                kind = outerIsType ? ScopeKind::Init : ScopeKind::Block;
            }

            // An Init brace stays part of its statement; everything
            // else terminates the pending statement (recorded so
            // e.g. a function signature is visible at its scope).
            if (kind == ScopeKind::Init)
                pending.back().push_back(i);
            else
                flush();

            Scope s;
            s.kind = kind;
            s.name = name;
            s.parent = stack.back();
            tree.scopes.push_back(s);
            stack.push_back(static_cast<int>(tree.scopes.size() - 1));
            pending.emplace_back();
            tree.scopeOf[i] = stack.back();
            continue;
        }
        if (tok.kind == TokKind::Punct && tok.text == "}") {
            if (stack.size() > 1) {
                flush();
                const ScopeKind closed = tree.scopes[stack.back()].kind;
                tree.scopeOf[i] = stack.back();
                stack.pop_back();
                pending.pop_back();
                // A closed initialiser remains part of the enclosing
                // statement; a closed class awaits its declarator
                // (`struct X { } x;` is rare but legal) - keep the
                // brace markers in the pending statement for both.
                if (closed == ScopeKind::Init) {
                    pending.back().push_back(i);
                } else {
                    pending.back().clear();
                }
            }
            continue;
        }
        if (tok.kind == TokKind::Punct && tok.text == ";") {
            flush();
            continue;
        }
        pending.back().push_back(i);
    }
    flush();    // trailing unterminated statement
    return tree;
}

size_t
skipAngles(const std::vector<Token> &t, size_t i)
{
    size_t depth = 0;
    for (size_t j = i; j < t.size(); ++j) {
        if (t[j].kind != TokKind::Punct)
            continue;
        if (t[j].text == "<") {
            ++depth;
        } else if (t[j].text == ">") {
            if (--depth == 0)
                return j + 1;
        } else if (t[j].text == ";") {
            break;      // malformed / not a template argument list
        }
    }
    return i + 1;
}

} // namespace mtlblint
