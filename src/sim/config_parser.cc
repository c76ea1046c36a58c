#include "sim/config_parser.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <sstream>
#include <type_traits>

#include "base/logging.hh"

namespace mtlbsim
{

std::uint64_t
parseCount(const std::string &what, const std::string &text,
           std::uint64_t max)
{
    // Anything but plain digits is rejected: std::stoull would accept
    // a leading '-' and wrap it, and atoi stops at the first bad
    // character without a word.
    auto is_digit = [](char ch) { return ch >= '0' && ch <= '9'; };
    fatalIf(text.empty() || !is_digit(text[0]), what, ": '", text,
            "' is not an unsigned integer");
    std::uint64_t count = 0;
    for (const char ch : text) {
        fatalIf(!is_digit(ch), what, ": trailing characters in '", text,
                "'");
        const auto digit = static_cast<std::uint64_t>(ch - '0');
        fatalIf(count > (max - digit) / 10, what, ": ", text,
                " is out of range (at most ", max, ")");
        count = count * 10 + digit;
    }
    return count;
}

double
parsePositive(const std::string &what, const std::string &text)
{
    // strtod alone would skip leading blanks, stop at the first bad
    // character, and read "inf" and "nan".
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    fatalIf(std::isspace(static_cast<unsigned char>(text[0])) ||
                *end != '\0' || !std::isfinite(value) || !(value > 0.0),
            what, ": '", text, "' is not a finite number greater than 0");
    return value;
}

double
parseScale(const std::string &what, const std::string &text)
{
    const double scale = parsePositive(what, text);
    fatalIf(scale > 1.0, what, ": '", text, "' is not in (0, 1]");
    return scale;
}

namespace
{

std::string
trim(const std::string &s)
{
    const auto begin = s.find_first_not_of(" \t");
    if (begin == std::string::npos)
        return "";
    const auto end = s.find_last_not_of(" \t");
    return s.substr(begin, end - begin + 1);
}

/**
 * Store @p value, a decimal count of @p unit-sized units, into
 * @p dest, rejecting a count whose scaled value does not fit
 * @p dest's width, which a narrowing cast would truncate silently.
 */
template <typename T>
void
setUnsigned(T &dest, const std::string &key, const std::string &value,
            std::uint64_t unit = 1)
{
    static_assert(std::is_unsigned_v<T>);
    dest = static_cast<T>(
        parseCount("config key '" + key + "'", value,
                   std::numeric_limits<T>::max() / unit) *
        unit);
}

bool
parseBool(const std::string &key, const std::string &value)
{
    std::string v = value;
    std::transform(v.begin(), v.end(), v.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (v == "true" || v == "1" || v == "yes" || v == "on")
        return true;
    if (v == "false" || v == "0" || v == "no" || v == "off")
        return false;
    fatal("config key '", key, "': '", value, "' is not a boolean");
}

/** Table of setters keyed by option name. */
using Setter =
    std::function<void(SystemConfig &, const std::string &key,
                       const std::string &value)>;

/** Build the setter table. Constructed on demand instead of cached
 *  in a function-local static: the table is only consulted while
 *  parsing configuration (never on the simulated hot path), and a
 *  cached table would be a mutable global that the contract check's
 *  R6 (tools/contract_check.py) reports. */
std::map<std::string, Setter>
makeSetters()
{
    return {
        {"cores",
         [](SystemConfig &c, const auto &k, const auto &v) {
             setUnsigned(c.cores, k, v);
             fatalIf(c.cores == 0, "config key '", k,
                     "': a machine needs at least one core");
         }},
        {"sched.quantum",
         [](SystemConfig &c, const auto &k, const auto &v) {
             setUnsigned(c.sched.quantum, k, v);
         }},
        {"sched.switch_cycles",
         [](SystemConfig &c, const auto &k, const auto &v) {
             setUnsigned(c.sched.switchCycles, k, v);
         }},
        {"tlb.entries",
         [](SystemConfig &c, const auto &k, const auto &v) {
             setUnsigned(c.tlbEntries, k, v);
             fatalIf(c.tlbEntries == 0 || c.tlbEntries > Tlb::maxEntries,
                     "config key '", k, "': a TLB holds 1 to ",
                     Tlb::maxEntries, " entries");
         }},
        {"mtlb.enabled",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.mtlbEnabled = parseBool(k, v);
         }},
        {"mtlb.entries",
         [](SystemConfig &c, const auto &k, const auto &v) {
             setUnsigned(c.mtlb.numEntries, k, v);
         }},
        {"mtlb.assoc",
         [](SystemConfig &c, const auto &k, const auto &v) {
             setUnsigned(c.mtlb.associativity, k, v);
         }},
        {"mtlb.writeback_bits",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.mtlb.writeBackAccessBits = parseBool(k, v);
         }},
        {"mtlb.port_cycles",
         [](SystemConfig &c, const auto &k, const auto &v) {
             setUnsigned(c.mtlb.portOccupancyCycles, k, v);
         }},
        {"mem.installed_mb",
         [](SystemConfig &c, const auto &k, const auto &v) {
             setUnsigned(c.installedBytes, k, v, 1024 * 1024);
         }},
        {"mem.shadow_mb",
         [](SystemConfig &c, const auto &k, const auto &v) {
             setUnsigned(c.shadow.size, k, v, 1024 * 1024);
         }},
        {"cache.size_kb",
         [](SystemConfig &c, const auto &k, const auto &v) {
             setUnsigned(c.cache.sizeBytes, k, v, 1024);
         }},
        {"cache.virtually_indexed",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.cache.virtuallyIndexed = parseBool(k, v);
         }},
        {"dram.row_hit_cycles",
         [](SystemConfig &c, const auto &k, const auto &v) {
             setUnsigned(c.dram.rowHitMmcCycles, k, v);
         }},
        {"dram.row_miss_cycles",
         [](SystemConfig &c, const auto &k, const auto &v) {
             setUnsigned(c.dram.rowMissMmcCycles, k, v);
         }},
        {"dram.banks",
         [](SystemConfig &c, const auto &k, const auto &v) {
             setUnsigned(c.dram.numBanks, k, v);
         }},
        {"stream_buffers.enabled",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.streamBuffers.enabled = parseBool(k, v);
         }},
        {"stream_buffers.count",
         [](SystemConfig &c, const auto &k, const auto &v) {
             setUnsigned(c.streamBuffers.numBuffers, k, v);
         }},
        {"stream_buffers.depth",
         [](SystemConfig &c, const auto &k, const auto &v) {
             setUnsigned(c.streamBuffers.depth, k, v);
         }},
        {"cpu.load_use_overlap",
         [](SystemConfig &c, const auto &k, const auto &v) {
             setUnsigned(c.cpu.loadUseOverlap, k, v);
         }},
        {"cpu.store_buffer",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.cpu.storeBuffer = parseBool(k, v);
         }},
        {"cpu.batch_enable",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.cpu.batchEnable = parseBool(k, v);
         }},
        {"kernel.all_shadow",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.kernel.allShadowMode = parseBool(k, v);
         }},
        {"kernel.online_promotion",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.kernel.onlinePromotion = parseBool(k, v);
         }},
        {"kernel.promotion_threshold",
         [](SystemConfig &c, const auto &k, const auto &v) {
             setUnsigned(c.kernel.promotionThresholdCycles, k, v);
         }},
        {"kernel.honor_explicit_remap",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.kernel.honorExplicitRemap = parseBool(k, v);
         }},
        {"kernel.frame_seed",
         [](SystemConfig &c, const auto &k, const auto &v) {
             setUnsigned(c.kernel.frameSeed, k, v);
         }},
        {"kernel.ipi_cycles",
         [](SystemConfig &c, const auto &k, const auto &v) {
             setUnsigned(c.kernel.ipiCycles, k, v);
         }},
        {"check.enabled",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.check.enabled = parseBool(k, v);
         }},
        {"check.interval",
         [](SystemConfig &c, const auto &k, const auto &v) {
             setUnsigned(c.check.interval, k, v);
             fatalIf(c.check.interval == 0, "config key '", k,
                     "': audit interval must be non-zero");
         }},
        {"check.panic",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.check.panicOnViolation = parseBool(k, v);
         }},
    };
}

} // namespace

void
ConfigParser::set(const std::string &key, const std::string &value)
{
    const auto table = makeSetters();
    auto it = table.find(key);
    fatalIf(it == table.end(), "unknown config key '", key,
            "' (see ConfigParser::knownKeys())");
    it->second(config_, key, trim(value));
}

void
ConfigParser::parseStream(std::istream &in)
{
    std::string line;
    unsigned line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trim(line);
        if (line.empty())
            continue;
        const auto eq = line.find('=');
        fatalIf(eq == std::string::npos, "config line ", line_no,
                ": expected 'key = value', got '", line, "'");
        set(trim(line.substr(0, eq)), trim(line.substr(eq + 1)));
    }
}

void
ConfigParser::parseFile(const std::string &path)
{
    std::ifstream in(path);
    fatalIf(!in, "cannot open config file: ", path);
    parseStream(in);
}

std::vector<std::string>
ConfigParser::parseArgs(int argc, char **argv)
{
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        const std::string token = argv[i];
        const auto eq = token.find('=');
        if (eq == std::string::npos) {
            positional.push_back(token);
            continue;
        }
        set(trim(token.substr(0, eq)), trim(token.substr(eq + 1)));
    }
    return positional;
}

std::vector<std::string>
ConfigParser::knownKeys()
{
    std::vector<std::string> keys;
    for (const auto &[key, setter] : makeSetters())
        keys.push_back(key);
    return keys;
}

} // namespace mtlbsim
