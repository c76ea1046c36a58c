#include "stats/golden.hh"

#include <cmath>
#include <fstream>
#include <sstream>

#include "base/logging.hh"

namespace mtlbsim::stats
{

std::string
GoldenDiff::describe() const
{
    std::ostringstream os;
    os << path << ": ";
    if (std::isnan(expected))
        os << "unexpected (absent from the golden file), got "
           << json::formatNumber(actual);
    else if (std::isnan(actual))
        os << "missing (golden expects "
           << json::formatNumber(expected) << ")";
    else
        os << "expected " << json::formatNumber(expected) << ", got "
           << json::formatNumber(actual) << " (drift "
           << json::formatNumber(actual - expected) << ")";
    return os.str();
}

namespace
{

/** One flattened leaf: a number, or a non-numeric value compared for
 *  exact equality via its compact JSON spelling. */
struct Leaf
{
    bool numeric = false;
    double number = 0.0;
    std::string text;
};

void
flattenInto(const json::Value &value, const std::string &prefix,
            std::map<std::string, Leaf> &out)
{
    auto join = [&](const std::string &seg) {
        return prefix.empty() ? seg : prefix + "." + seg;
    };
    switch (value.kind()) {
      case json::Value::Kind::Object:
        for (const auto &[key, member] : value.members())
            flattenInto(member, join(key), out);
        break;
      case json::Value::Kind::Array: {
        std::size_t i = 0;
        for (const auto &item : value.items())
            flattenInto(item, join(std::to_string(i++)), out);
        break;
      }
      case json::Value::Kind::Number:
        out[prefix] = {true, value.asNumber(), ""};
        break;
      case json::Value::Kind::Null:
        // The dumper's NaN-guard writes null for non-finite numbers;
        // treat it as NaN so null == null compares clean.
        out[prefix] = {true, std::nan(""), ""};
        break;
      default:
        out[prefix] = {false, 0.0, value.dumped(0)};
        break;
    }
}

} // namespace

std::map<std::string, double>
flattenNumeric(const json::Value &value)
{
    std::map<std::string, Leaf> leaves;
    flattenInto(value, "", leaves);
    std::map<std::string, double> out;
    for (const auto &[path, leaf] : leaves) {
        if (leaf.numeric)
            out[path] = leaf.number;
    }
    return out;
}

std::vector<GoldenDiff>
compareGolden(const json::Value &expected, const json::Value &actual)
{
    std::map<std::string, Leaf> want, got;
    flattenInto(expected, "", want);
    flattenInto(actual, "", got);

    const double nan = std::nan("");
    std::vector<GoldenDiff> diffs;

    for (const auto &[path, w] : want) {
        auto it = got.find(path);
        if (it == got.end()) {
            diffs.push_back({path, w.numeric ? w.number : nan, nan});
            continue;
        }
        const Leaf &g = it->second;
        if (w.numeric != g.numeric) {
            diffs.push_back({path, w.numeric ? w.number : nan,
                             g.numeric ? g.number : nan});
            continue;
        }
        if (!w.numeric) {
            if (w.text != g.text)
                diffs.push_back({path, nan, nan});
            continue;
        }
        if (std::isnan(w.number) && std::isnan(g.number))
            continue;
        if (g.number != w.number)
            diffs.push_back({path, w.number, g.number});
    }
    for (const auto &[path, g] : got) {
        if (!want.count(path))
            diffs.push_back({path, nan, g.numeric ? g.number : nan});
    }
    return diffs;
}

void
writeGoldenFile(const std::string &path, const json::Value &value)
{
    std::ofstream out(path);
    fatalIf(!out, "cannot write golden file: ", path);
    value.dump(out);
    out << '\n';
    fatalIf(!out.good(), "short write to golden file: ", path);
}

json::Value
readGoldenFile(const std::string &path)
{
    std::ifstream in(path);
    fatalIf(!in, "cannot open golden file: ", path);
    return json::Value::parse(in);
}

} // namespace mtlbsim::stats
