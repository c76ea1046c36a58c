#include "stats/json.hh"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "base/logging.hh"

namespace mtlbsim::json
{

std::string
formatNumber(double v)
{
    // The printer must be a pure function of the double so that dump
    // -> parse -> dump is a fixed point: integral values print as
    // integers (the parser reads them back exactly), everything else
    // uses %.17g, which round-trips IEEE doubles.
    char buf[40];
    if (std::floor(v) == v && std::fabs(v) < 9007199254740992.0) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
    } else {
        std::snprintf(buf, sizeof(buf), "%.17g", v);
    }
    return buf;
}

bool
Value::asBool() const
{
    panicIf(kind_ != Kind::Bool, "json: not a bool");
    return bool_;
}

double
Value::asNumber() const
{
    panicIf(kind_ != Kind::Number, "json: not a number");
    return number_;
}

std::optional<std::uint64_t>
Value::asUnsigned() const
{
    panicIf(kind_ != Kind::Number, "json: not a number");
    if (exact_)
        return integer_;
    // 2^64 is the first double past the uint64 range, and a NaN
    // fails every comparison; the cast below is then exact.
    if (number_ >= 0.0 && number_ < 0x1p64 &&
        number_ == std::floor(number_))
        return static_cast<std::uint64_t>(number_);
    return std::nullopt;
}

const std::string &
Value::asString() const
{
    panicIf(kind_ != Kind::String, "json: not a string");
    return string_;
}

const Value::Array &
Value::items() const
{
    panicIf(kind_ != Kind::Array, "json: not an array");
    return array_;
}

const Value::Object &
Value::members() const
{
    panicIf(kind_ != Kind::Object, "json: not an object");
    return object_;
}

void
Value::push(Value v)
{
    panicIf(kind_ != Kind::Array, "json: push on a non-array");
    array_.push_back(std::move(v));
}

Value &
Value::set(const std::string &key, Value v)
{
    panicIf(kind_ != Kind::Object, "json: set on a non-object");
    for (auto &[k, existing] : object_) {
        if (k == key) {
            existing = std::move(v);
            return existing;
        }
    }
    object_.emplace_back(key, std::move(v));
    return object_.back().second;
}

const Value *
Value::find(const std::string &key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : object_) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

namespace
{

void
dumpString(std::ostream &os, const std::string &s)
{
    os << '"';
    for (const char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\t': os << "\\t"; break;
          case '\r': os << "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

void
newlineIndent(std::ostream &os, unsigned indent, unsigned depth)
{
    if (indent == 0)
        return;
    os << '\n';
    for (unsigned i = 0; i < indent * depth; ++i)
        os << ' ';
}

} // namespace

void
Value::dumpImpl(std::ostream &os, unsigned indent, unsigned depth) const
{
    switch (kind_) {
      case Kind::Null:
        os << "null";
        break;
      case Kind::Bool:
        os << (bool_ ? "true" : "false");
        break;
      case Kind::Number:
        // An unsigned integer prints its exact digits. JSON has no
        // NaN/inf; guard them to null (see header).
        if (exact_)
            os << std::to_string(integer_);
        else if (!std::isfinite(number_))
            os << "null";
        else
            os << formatNumber(number_);
        break;
      case Kind::String:
        dumpString(os, string_);
        break;
      case Kind::Array:
        if (array_.empty()) {
            os << "[]";
            break;
        }
        os << '[';
        for (std::size_t i = 0; i < array_.size(); ++i) {
            if (i)
                os << ',';
            newlineIndent(os, indent, depth + 1);
            array_[i].dumpImpl(os, indent, depth + 1);
        }
        newlineIndent(os, indent, depth);
        os << ']';
        break;
      case Kind::Object:
        if (object_.empty()) {
            os << "{}";
            break;
        }
        os << '{';
        for (std::size_t i = 0; i < object_.size(); ++i) {
            if (i)
                os << ',';
            newlineIndent(os, indent, depth + 1);
            dumpString(os, object_[i].first);
            os << (indent ? ": " : ":");
            object_[i].second.dumpImpl(os, indent, depth + 1);
        }
        newlineIndent(os, indent, depth);
        os << '}';
        break;
    }
}

void
Value::dump(std::ostream &os, unsigned indent) const
{
    dumpImpl(os, indent, 0);
}

std::string
Value::dumped(unsigned indent) const
{
    std::ostringstream os;
    dump(os, indent);
    return os.str();
}

namespace
{

/** Recursive-descent parser over an in-memory document. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Value
    document()
    {
        Value v = value();
        skipWs();
        fail(pos_ != text_.size(), "trailing characters");
        return v;
    }

  private:
    [[noreturn]] void
    syntaxError(const std::string &what)
    {
        fatal("json parse error at byte ", pos_, ": ", what);
    }

    void
    fail(bool condition, const std::string &what)
    {
        if (condition)
            syntaxError(what);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        fail(pos_ >= text_.size(), "unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        fail(peek() != c,
             std::string("expected '") + c + "', got '" + peek() + "'");
        ++pos_;
    }

    bool
    consumeLiteral(const char *lit)
    {
        const std::size_t n = std::string(lit).size();
        if (text_.compare(pos_, n, lit) != 0)
            return false;
        pos_ += n;
        return true;
    }

    Value
    value()
    {
        skipWs();
        const char c = peek();
        if (c == '{' || c == '[') {
            if (++depth_ > maxDepth) {
                syntaxError("nesting deeper than " +
                            std::to_string(maxDepth) + " levels");
            }
            Value v = c == '{' ? object() : array();
            --depth_;
            return v;
        }
        if (c == '"')
            return Value(string());
        if (consumeLiteral("null"))
            return Value();
        if (consumeLiteral("true"))
            return Value(true);
        if (consumeLiteral("false"))
            return Value(false);
        return number();
    }

    Value
    object()
    {
        expect('{');
        Value v = Value::object();
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        for (;;) {
            skipWs();
            const std::string key = string();
            skipWs();
            expect(':');
            v.set(key, value());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    Value
    array()
    {
        expect('[');
        Value v = Value::array();
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        for (;;) {
            v.push(value());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        for (;;) {
            fail(pos_ >= text_.size(), "unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            fail(pos_ >= text_.size(), "unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 't': out += '\t'; break;
              case 'r': out += '\r'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'u': {
                fail(pos_ + 4 > text_.size(), "truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= h - '0';
                    else if (h >= 'a' && h <= 'f')
                        code |= h - 'a' + 10;
                    else if (h >= 'A' && h <= 'F')
                        code |= h - 'A' + 10;
                    else
                        syntaxError("bad \\u escape digit");
                }
                // The printer only emits \u for control characters;
                // decode the basic-multilingual-plane code point as
                // UTF-8 and reject surrogates.
                fail(code >= 0xd800 && code <= 0xdfff,
                     "surrogate pairs are not supported");
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xc0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                } else {
                    out += static_cast<char>(0xe0 | (code >> 12));
                    out += static_cast<char>(
                        0x80 | ((code >> 6) & 0x3f));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                }
                break;
              }
              default:
                syntaxError("unknown escape");
            }
        }
    }

    Value
    number()
    {
        const std::size_t begin = pos_;
        const bool negative = peek() == '-';
        if (negative)
            ++pos_;
        auto digits = [&] {
            std::size_t n = 0;
            while (pos_ < text_.size() && text_[pos_] >= '0' &&
                   text_[pos_] <= '9') {
                ++pos_;
                ++n;
            }
            return n;
        };
        fail(digits() == 0, "expected a number");
        bool whole = !negative;
        if (pos_ < text_.size() && text_[pos_] == '.') {
            whole = false;
            ++pos_;
            fail(digits() == 0, "expected digits after '.'");
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            whole = false;
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            fail(digits() == 0, "expected exponent digits");
        }
        // A plain run of digits is an unsigned integer, kept exact
        // unless it overflows 64 bits.
        if (whole) {
            errno = 0;
            const unsigned long long n =
                std::strtoull(text_.c_str() + begin, nullptr, 10);
            if (errno != ERANGE)
                return Value(static_cast<std::uint64_t>(n));
        }
        return Value(std::strtod(text_.c_str() + begin, nullptr));
    }

    /** Each nesting level recurses once, so the depth is capped
     *  well above the printer's deepest documents (about a dozen
     *  levels) and far below what would overflow the stack. */
    static constexpr unsigned maxDepth = 64;

    const std::string &text_;
    std::size_t pos_ = 0;
    unsigned depth_ = 0;
};

} // namespace

Value
Value::parse(const std::string &text)
{
    return Parser(text).document();
}

Value
Value::parse(std::istream &in)
{
    std::ostringstream buf;
    buf << in.rdbuf();
    return parse(buf.str());
}

} // namespace mtlbsim::json
