/**
 * @file
 * A minimal, dependency-free JSON value with deterministic
 * serialization.
 *
 * The statistics layer serializes runs into golden files that are
 * compared byte-for-byte across thread counts and re-runs, so the
 * printer must be a pure function of the value:
 *
 *  - objects preserve insertion order (no hash-map reordering);
 *  - an unsigned integer (a std::uint64_t, or a plain run of digits
 *    that fits one) is kept exact and prints its digits, at any
 *    size;
 *  - other numbers are doubles: they print as integers when integral
 *    below 2^53, and with "%.17g" otherwise, which round-trips
 *    doubles exactly;
 *  - non-finite numbers (NaN, +/-inf) serialize as null — JSON has
 *    no spelling for them, and a dump -> parse -> dump cycle is a
 *    fixed point (null stays null).
 *
 * The parser accepts exactly what the printer emits plus ordinary
 * interchange JSON (whitespace, escapes, nested containers). Parse
 * errors report fatal() with the byte offset.
 */

#pragma once

#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace mtlbsim::json
{

/** One JSON value: null, bool, number, string, array, or object. */
class Value
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    using Array = std::vector<Value>;
    using Member = std::pair<std::string, Value>;
    /** Insertion-ordered object representation. */
    using Object = std::vector<Member>;

    Value() = default;
    Value(bool b) : kind_(Kind::Bool), bool_(b) {}
    Value(double v) : kind_(Kind::Number), number_(v) {}
    Value(int v) : Value(static_cast<double>(v)) {}
    Value(unsigned v) : Value(std::uint64_t{v}) {}
    Value(std::int64_t v) : Value(static_cast<double>(v)) {}
    Value(std::uint64_t v)
        : kind_(Kind::Number), number_(static_cast<double>(v)),
          integer_(v), exact_(true)
    {}
    Value(std::string s) : kind_(Kind::String), string_(std::move(s)) {}
    Value(const char *s) : kind_(Kind::String), string_(s) {}

    /** Make an empty array / object (a default Value is null). */
    static Value array() { Value v; v.kind_ = Kind::Array; return v; }
    static Value object() { Value v; v.kind_ = Kind::Object; return v; }

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** Typed accessors; panic when the kind does not match. */
    bool asBool() const;
    /** The number as a double, for callers that divide; an unsigned
     *  integer above 2^53 rounds. */
    double asNumber() const;
    /** The number as an unsigned integer, exactly, when it is a whole
     *  number in [0, 2^64); nullopt otherwise. */
    std::optional<std::uint64_t> asUnsigned() const;
    const std::string &asString() const;
    const Array &items() const;
    const Object &members() const;

    /** Append to an array (panics on non-arrays). */
    void push(Value v);

    /** Set a key in an object, replacing an existing member in place
     *  or appending a new one (panics on non-objects). */
    Value &set(const std::string &key, Value v);

    /** Object member lookup; null when absent or not an object. */
    const Value *find(const std::string &key) const;

    /**
     * Serialize. @p indent > 0 pretty-prints with that many spaces
     * per level; 0 emits the compact single-line form. Both forms
     * are deterministic.
     */
    void dump(std::ostream &os, unsigned indent = 2) const;

    /** dump() into a string. */
    std::string dumped(unsigned indent = 2) const;

    /** Parse one JSON document; fatal() on malformed input. */
    static Value parse(const std::string &text);

    /** Parse an entire stream. */
    static Value parse(std::istream &in);

  private:
    void dumpImpl(std::ostream &os, unsigned indent,
                  unsigned depth) const;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0;
    /** The exact value of an unsigned integer (exact_ set), which
     *  number_ holds rounded. */
    std::uint64_t integer_ = 0;
    bool exact_ = false;
    std::string string_;
    Array array_;
    Object object_;
};

/** The deterministic number spelling used by Value::dump(). */
std::string formatNumber(double v);

} // namespace mtlbsim::json
