/**
 * @file
 * Minimal C++ tokenizer for mtlb-lint.
 *
 * Deliberately not a real C++ front end: mtlb-lint's rules need only
 * identifiers, punctuation, and line numbers, with comments, string
 * literals, and character literals reliably skipped so that a banned
 * identifier inside a diagnostic message or a comment never fires a
 * rule. Preprocessor directives are tokenized like ordinary text
 * ('#' is a punctuator), which is exactly what the include-guard
 * check wants.
 *
 * Dependency-free by design (standard library only): the linter must
 * build and run without the simulator or any third-party library.
 */

#ifndef MTLBSIM_TOOLS_LINT_LEXER_HH
#define MTLBSIM_TOOLS_LINT_LEXER_HH

#include <string>
#include <vector>

namespace mtlblint
{

enum class TokKind
{
    Identifier,     ///< identifiers and keywords
    Number,
    String,         ///< string literal (contents dropped)
    CharLit,
    Punct,          ///< any punctuator, one token per character run
};

struct Token
{
    TokKind kind = TokKind::Punct;
    std::string text;
    int line = 1;
};

/** A tokenized source file. */
struct SourceFile
{
    std::string path;               ///< as given (repo-relative)
    std::vector<Token> tokens;
};

/** Tokenize @p text as C++ source. @p path is recorded verbatim. */
SourceFile tokenize(const std::string &path, const std::string &text);

/** Read a file and tokenize it. Throws std::runtime_error on IO
 *  failure. */
SourceFile tokenizeFile(const std::string &path,
                        const std::string &displayPath);

} // namespace mtlblint

#endif // MTLBSIM_TOOLS_LINT_LEXER_HH
