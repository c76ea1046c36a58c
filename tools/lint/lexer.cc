#include "lexer.hh"

#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace mtlblint
{

namespace
{

bool
isIdentStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

} // namespace

SourceFile
tokenize(const std::string &path, const std::string &text)
{
    SourceFile out;
    out.path = path;

    size_t i = 0;
    const size_t n = text.size();
    int line = 1;

    auto peek = [&](size_t off) -> char {
        return i + off < n ? text[i + off] : '\0';
    };

    while (i < n) {
        char c = text[i];
        if (c == '\n') {
            ++line;
            ++i;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }
        // Line comment. A backslash immediately before the newline
        // splices the next source line into the comment (the
        // preprocessor's line-continuation rule applies to // text
        // too), so keep consuming — and keep counting lines — until
        // an unescaped newline ends it.
        if (c == '/' && peek(1) == '/') {
            size_t start = i;
            while (i < n) {
                if (text[i] == '\n') {
                    size_t back = i;
                    while (back > start && text[back - 1] == '\r')
                        --back;
                    if (back > start && text[back - 1] == '\\') {
                        ++line;
                        ++i;
                        continue;
                    }
                    break;
                }
                ++i;
            }
            continue;
        }
        // Block comment.
        if (c == '/' && peek(1) == '*') {
            i += 2;
            while (i < n && !(text[i] == '*' && peek(1) == '/')) {
                if (text[i] == '\n')
                    ++line;
                ++i;
            }
            if (i < n)
                i += 2;
            continue;
        }
        // Raw string literal: R"delim( ... )delim"
        if (c == 'R' && peek(1) == '"') {
            size_t j = i + 2;
            std::string delim;
            while (j < n && text[j] != '(')
                delim.push_back(text[j++]);
            std::string close = ")" + delim + "\"";
            size_t end = text.find(close, j);
            int startLine = line;
            size_t bodyEnd = end == std::string::npos ? n : end;
            std::string content = text.substr(j + 1, bodyEnd - j - 1);
            end = end == std::string::npos ? n : end + close.size();
            for (size_t k = i; k < end; ++k) {
                if (text[k] == '\n')
                    ++line;
            }
            out.tokens.push_back({TokKind::String, content, startLine});
            i = end;
            continue;
        }
        // String / char literal (handles escapes). Contents are kept
        // verbatim (minus surrounding quotes).
        if (c == '"' || c == '\'') {
            char quote = c;
            int startLine = line;
            size_t start = ++i;
            while (i < n && text[i] != quote) {
                if (text[i] == '\\') {
                    ++i;
                    if (i < n && text[i] == '\n')
                        ++line;     // spliced literal line
                } else if (text[i] == '\n') {
                    ++line;     // unterminated; keep going defensively
                }
                ++i;
            }
            std::string content = text.substr(start, i - start);
            if (i < n)
                ++i;    // past closing quote
            out.tokens.push_back({
                quote == '"' ? TokKind::String : TokKind::CharLit,
                content, startLine});
            continue;
        }
        if (isIdentStart(c)) {
            size_t start = i;
            while (i < n && isIdentChar(text[i]))
                ++i;
            out.tokens.push_back({TokKind::Identifier,
                                  text.substr(start, i - start), line});
            continue;
        }
        if (std::isdigit(static_cast<unsigned char>(c))) {
            size_t start = i;
            while (i < n &&
                   (isIdentChar(text[i]) || text[i] == '.' ||
                    ((text[i] == '+' || text[i] == '-') &&
                     (text[i - 1] == 'e' || text[i - 1] == 'E')) ||
                    // C++14 digit separator: 100'000 is one number,
                    // not a number followed by a char literal.
                    (text[i] == '\'' && i + 1 < n &&
                     isIdentChar(text[i + 1])))) {
                ++i;
            }
            out.tokens.push_back({TokKind::Number,
                                  text.substr(start, i - start), line});
            continue;
        }
        // Punctuator: one character at a time except -> and :: which
        // the rules want as single tokens.
        if (c == '-' && peek(1) == '>') {
            out.tokens.push_back({TokKind::Punct, "->", line});
            i += 2;
            continue;
        }
        if (c == ':' && peek(1) == ':') {
            out.tokens.push_back({TokKind::Punct, "::", line});
            i += 2;
            continue;
        }
        out.tokens.push_back({TokKind::Punct, std::string(1, c), line});
        ++i;
    }

    return out;
}

SourceFile
tokenizeFile(const std::string &path, const std::string &displayPath)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("mtlb-lint: cannot read " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return tokenize(displayPath, ss.str());
}

} // namespace mtlblint
