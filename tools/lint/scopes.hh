/**
 * @file
 * Scope tree over the mtlb-lint token stream.
 *
 * A single structural pass classifying every brace (namespace, class,
 * function body, control-flow block, braced initialiser) and
 * collecting the statements at each scope's own level. Shared by the
 * structural rules (R6-R9).
 */

#ifndef MTLBSIM_TOOLS_LINT_SCOPES_HH
#define MTLBSIM_TOOLS_LINT_SCOPES_HH

#include <string>
#include <vector>

#include "lexer.hh"

namespace mtlblint
{

enum class ScopeKind
{
    File,       ///< top level (treated as namespace scope)
    Namespace,  ///< namespace { } / extern "C" { }
    Class,      ///< class / struct / union / enum body
    Func,       ///< function body (brace follows a parameter list)
    Block,      ///< control-flow block / lambda body inside a function
    Init,       ///< braced initialiser
};

struct Scope
{
    ScopeKind kind = ScopeKind::File;
    std::string name;       ///< class/namespace name when known
    int parent = -1;
};

/**
 * A statement at some scope's own level: the indices of its tokens,
 * child-scope braces included as single '{' / '}' markers (their
 * contents belong to the child).
 */
struct Stmt
{
    int scope = 0;
    std::vector<size_t> toks;
};

struct ScopeTree
{
    std::vector<Scope> scopes;      ///< [0] is the File scope
    std::vector<int> scopeOf;       ///< token index -> innermost scope
    std::vector<Stmt> stmts;        ///< namespace/class-level statements

    bool
    isAncestor(int anc, int scope) const
    {
        for (int s = scope; s != -1; s = scopes[s].parent) {
            if (s == anc)
                return true;
        }
        return false;
    }

    /** Innermost enclosing Func scope, or -1. */
    int
    enclosingFunc(int scope) const
    {
        for (int s = scope; s != -1; s = scopes[s].parent) {
            if (scopes[s].kind == ScopeKind::Func)
                return s;
        }
        return -1;
    }
};

/** True for the class-head keywords (class/struct/union/enum). */
bool classKeyword(const std::string &s);

/**
 * One linear pass classifying every brace and collecting per-scope
 * statements. Brace classification looks at the pending statement
 * tokens: a `namespace` keyword opens a Namespace, a class-head
 * keyword (outside a leading `template <...>` group) opens a Class,
 * a brace after `)` opens a Func at namespace/class scope and a
 * Block inside a function, and a brace after an identifier / `=` /
 * `,` is a braced initialiser. Preprocessor lines are skipped
 * wholesale (a `#` swallows the rest of its source line).
 */
ScopeTree buildScopes(const std::vector<Token> &t);

/** Token index just past a balanced `<...>` group starting at the
 *  `<` at @p i, or i+1 if it never closes. */
size_t skipAngles(const std::vector<Token> &t, size_t i);

} // namespace mtlblint

#endif // MTLBSIM_TOOLS_LINT_SCOPES_HH
