/**
 * @file
 * Tests for the key=value configuration layer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "sim/config_parser.hh"

using namespace mtlbsim;

TEST(ConfigParserTest, DefaultsArePaperMachine)
{
    ConfigParser parser;
    const SystemConfig &c = parser.config();
    EXPECT_EQ(c.tlbEntries, 96u);
    EXPECT_TRUE(c.mtlbEnabled);
    EXPECT_EQ(c.mtlb.numEntries, 128u);
    EXPECT_EQ(c.mtlb.associativity, 2u);
    EXPECT_EQ(c.cache.sizeBytes, 512u * 1024);
}

TEST(ConfigParserTest, SetIndividualKeys)
{
    ConfigParser parser;
    parser.set("tlb.entries", "64");
    parser.set("mtlb.enabled", "false");
    parser.set("mem.installed_mb", "128");
    parser.set("cache.size_kb", "256");
    EXPECT_EQ(parser.config().tlbEntries, 64u);
    EXPECT_FALSE(parser.config().mtlbEnabled);
    EXPECT_EQ(parser.config().installedBytes, Addr{128} << 20);
    EXPECT_EQ(parser.config().cache.sizeBytes, Addr{256} << 10);
}

TEST(ConfigParserTest, DeletedHostSpeedKeysAreFatal)
{
    // cpu.batch_enable is the only host-speed key: a config still
    // sizing the retired L0 or batch window must fail loudly.
    ConfigParser parser;
    EXPECT_THROW(parser.set("cpu.l0_entries", "512"), FatalError);
    EXPECT_THROW(parser.set("cpu.batch_window", "4096"), FatalError);
}

TEST(ConfigParserTest, BooleanSpellings)
{
    ConfigParser parser;
    for (const char *t : {"true", "1", "yes", "on", "TRUE", "On"}) {
        parser.set("mtlb.enabled", t);
        EXPECT_TRUE(parser.config().mtlbEnabled) << t;
    }
    for (const char *f : {"false", "0", "no", "off", "False"}) {
        parser.set("mtlb.enabled", f);
        EXPECT_FALSE(parser.config().mtlbEnabled) << f;
    }
}

TEST(ConfigParserTest, UnknownKeyIsFatal)
{
    ConfigParser parser;
    EXPECT_THROW(parser.set("tlb.entriess", "64"), FatalError);
    EXPECT_THROW(parser.set("", "64"), FatalError);
}

TEST(ConfigParserTest, BadValuesAreFatal)
{
    ConfigParser parser;
    EXPECT_THROW(parser.set("tlb.entries", "many"), FatalError);
    EXPECT_THROW(parser.set("tlb.entries", "64x"), FatalError);
    EXPECT_THROW(parser.set("mtlb.enabled", "maybe"), FatalError);
}

TEST(ConfigParserTest, NegativeUnsignedValuesAreFatal)
{
    // std::stoull accepts a leading '-' and wraps it: -1 would become
    // a 4294967295-entry TLB.
    ConfigParser parser;
    EXPECT_THROW(parser.set("tlb.entries", "-1"), FatalError);
    EXPECT_THROW(parser.set("cores", "-2"), FatalError);
    EXPECT_THROW(parser.set("check.interval", "-1000"), FatalError);
    EXPECT_THROW(parser.set("mem.installed_mb", "-64"), FatalError);
    EXPECT_EQ(parser.config().tlbEntries, 96u);     // left untouched
}

TEST(ConfigParserTest, ValuesBeyondTheFieldWidthAreFatal)
{
    // 2^32 + 64 and 2^32 + 2 would truncate to 64 and 2 in 32-bit
    // fields.
    ConfigParser parser;
    EXPECT_THROW(parser.set("tlb.entries", "4294967360"), FatalError);
    EXPECT_THROW(parser.set("cores", "4294967298"), FatalError);
    EXPECT_THROW(parser.set("dram.banks", "4294967296"), FatalError);
    // Scaled keys must fit after scaling: 2^44 MB is 2^64 bytes.
    EXPECT_THROW(parser.set("mem.installed_mb", "17592186044416"),
                 FatalError);
    EXPECT_THROW(parser.set("cache.size_kb", "18014398509481984"),
                 FatalError);
    // Beyond 64 bits altogether.
    EXPECT_THROW(parser.set("kernel.frame_seed", "18446744073709551616"),
                 FatalError);
    EXPECT_EQ(parser.config().tlbEntries, 96u);
    EXPECT_EQ(parser.config().cores, 1u);
}

TEST(ConfigParserTest, CommandLineNumbersPassTheSameCheck)
{
    // The tools' numeric flags use the config values' check, with
    // the flag named in the error.
    EXPECT_EQ(parseCount("--ops", "10", 100), 10u);
    EXPECT_THROW(parseCount("--ops", "10x", 100), FatalError);
    EXPECT_THROW(parseCount("--ops", "-1", 100), FatalError);
    EXPECT_THROW(parseCount("--ops", "101", 100), FatalError);
    try {
        parseCount("--jobs", "banana", 100);
        FAIL() << "banana parsed";
    } catch (const FatalError &e) {
        EXPECT_EQ(std::string(e.what()),
                  "--jobs: 'banana' is not an unsigned integer");
    }
    EXPECT_EQ(parsePositive("--scale", "0.25"), 0.25);
    for (const char *bad : {"0.01x", "0", "-0.5", "inf", "nan", " 1", ""})
        EXPECT_THROW(parsePositive("--scale", bad), FatalError) << bad;
    // A workload scale is also at most 1.
    EXPECT_EQ(parseScale("--scale", "1"), 1.0);
    EXPECT_EQ(parseScale("--scale", "0.05"), 0.05);
    for (const char *bad : {"1.0001", "2", "1e3", "0", "nan", "0.5x"})
        EXPECT_THROW(parseScale("--scale", bad), FatalError) << bad;
}

TEST(ConfigParserTest, ValuesAtTheFieldWidthParse)
{
    ConfigParser parser;
    parser.set("mtlb.entries", "4294967295");
    EXPECT_EQ(parser.config().mtlb.numEntries, 4294967295u);
    parser.set("kernel.frame_seed", "18446744073709551615");
    EXPECT_EQ(parser.config().kernel.frameSeed, ~std::uint64_t{0});
    parser.set("mem.installed_mb", "17592186044415");
    EXPECT_EQ(parser.config().installedBytes,
              Addr{17592186044415} << 20);
    parser.set("cache.size_kb", "0064");
    EXPECT_EQ(parser.config().cache.sizeBytes, Addr{64} << 10);
    EXPECT_THROW(parser.set("tlb.entries", "+64"), FatalError);
}

TEST(ConfigParserTest, OversizedTlbIsFatalNotACrash)
{
    // The TLB sizes its entry array and lookup index from this value,
    // so an absurd one must stop with a FatalError before allocating:
    // at the key, and at the TLB for configs built in code.
    ConfigParser parser;
    EXPECT_THROW(parser.set("tlb.entries", "4294967295"), FatalError);
    EXPECT_THROW(parser.set("tlb.entries", "0"), FatalError);
    parser.set("tlb.entries", "1048576");
    SystemConfig config = parser.config();
    config.tlbEntries = 4294967295u;
    EXPECT_THROW(System sys(config), FatalError);
}

TEST(ConfigParserTest, StreamWithCommentsAndBlanks)
{
    std::istringstream in(R"(
# the paper's sensitivity sweep point
mtlb.entries = 256     # doubled
mtlb.assoc   = 4

tlb.entries=128
)");
    ConfigParser parser;
    parser.parseStream(in);
    EXPECT_EQ(parser.config().mtlb.numEntries, 256u);
    EXPECT_EQ(parser.config().mtlb.associativity, 4u);
    EXPECT_EQ(parser.config().tlbEntries, 128u);
}

TEST(ConfigParserTest, MalformedLineIsFatal)
{
    std::istringstream in("tlb.entries 96\n");
    ConfigParser parser;
    EXPECT_THROW(parser.parseStream(in), FatalError);
}

TEST(ConfigParserTest, ParseArgsSeparatesPositionals)
{
    const char *argv[] = {"prog", "em3d", "tlb.entries=64", "0.5",
                          "stream_buffers.enabled=true"};
    ConfigParser parser;
    const auto pos =
        parser.parseArgs(5, const_cast<char **>(argv));
    ASSERT_EQ(pos.size(), 2u);
    EXPECT_EQ(pos[0], "em3d");
    EXPECT_EQ(pos[1], "0.5");
    EXPECT_EQ(parser.config().tlbEntries, 64u);
    EXPECT_TRUE(parser.config().streamBuffers.enabled);
}

TEST(ConfigParserTest, KnownKeysCoverEverySection)
{
    const auto keys = ConfigParser::knownKeys();
    EXPECT_GE(keys.size(), 20u);
    auto has = [&](const std::string &k) {
        return std::find(keys.begin(), keys.end(), k) != keys.end();
    };
    EXPECT_TRUE(has("tlb.entries"));
    EXPECT_TRUE(has("mtlb.assoc"));
    EXPECT_TRUE(has("kernel.online_promotion"));
    EXPECT_TRUE(has("stream_buffers.depth"));
    EXPECT_TRUE(has("dram.banks"));
}

TEST(ConfigParserTest, ParsedConfigBuildsAWorkingSystem)
{
    std::istringstream in(R"(
tlb.entries = 64
mtlb.entries = 64
mtlb.assoc = 1
mem.installed_mb = 64
kernel.online_promotion = true
)");
    ConfigParser parser;
    parser.parseStream(in);
    System sys(parser.config());
    sys.kernel().addressSpace().addRegion("d", 0x10000000, 1 << 20,
                                          {});
    sys.cpu().load(0x10000000);
    EXPECT_GT(sys.totalCycles(), 0u);
}

TEST(ConfigParserTest, FileRoundTrip)
{
    const auto path = (std::filesystem::temp_directory_path() /
                       "mtlbsim_cfg_test.cfg")
                          .string();
    {
        std::ofstream out(path);
        out << "mtlb.writeback_bits = true\n";
        out << "kernel.promotion_threshold = 12345\n";
    }
    ConfigParser parser;
    parser.parseFile(path);
    EXPECT_TRUE(parser.config().mtlb.writeBackAccessBits);
    EXPECT_EQ(parser.config().kernel.promotionThresholdCycles,
              12345u);
    std::remove(path.c_str());
    EXPECT_THROW(parser.parseFile("/nonexistent.cfg"), FatalError);
}

#ifdef MTLBSIM_REPO_ROOT

namespace
{

/** The key column of docs/manual.md §5: every backticked key in the
 *  first cell of a table row, between the "## 5." heading and the
 *  next "## " one. */
std::vector<std::string>
manualKeys()
{
    std::ifstream in(std::string(MTLBSIM_REPO_ROOT) + "/docs/manual.md");
    EXPECT_TRUE(in.good());
    std::vector<std::string> keys;
    bool inSection = false;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("## ", 0) == 0)
            inSection = line.rfind("## 5.", 0) == 0;
        if (!inSection || line.rfind("| `", 0) != 0)
            continue;
        const std::string cell = line.substr(0, line.find('|', 1));
        for (auto open = cell.find('`'); open != std::string::npos;) {
            const auto close = cell.find('`', open + 1);
            keys.push_back(cell.substr(open + 1, close - open - 1));
            open = cell.find('`', close + 1);
        }
    }
    return keys;
}

} // namespace

TEST(ConfigParserTest, ManualAndShippedConfigsAgreeWithTheParser)
{
    // Manual §5 lists exactly the keys the parser accepts, each once.
    auto documented = manualKeys();
    auto known = ConfigParser::knownKeys();
    std::sort(documented.begin(), documented.end());
    std::sort(known.begin(), known.end());
    std::vector<std::string> undocumented, unknown;
    std::set_difference(known.begin(), known.end(), documented.begin(),
                        documented.end(), std::back_inserter(undocumented));
    std::set_difference(documented.begin(), documented.end(), known.begin(),
                        known.end(), std::back_inserter(unknown));
    EXPECT_TRUE(undocumented.empty())
        << "accepted by the parser, missing from manual §5: "
        << ::testing::PrintToString(undocumented);
    EXPECT_TRUE(unknown.empty())
        << "in manual §5 (or listed twice), unknown to the parser: "
        << ::testing::PrintToString(unknown);

    // Every shipped config loads; an unknown key there is fatal.
    std::vector<std::filesystem::path> configs;
    for (const auto &entry : std::filesystem::directory_iterator(
             std::filesystem::path(MTLBSIM_REPO_ROOT) / "configs")) {
        if (entry.path().extension() == ".cfg")
            configs.push_back(entry.path());
    }
    EXPECT_FALSE(configs.empty());
    for (const auto &path : configs) {
        ConfigParser parser;
        EXPECT_NO_THROW(parser.parseFile(path.string())) << path;
    }
}

#endif // MTLBSIM_REPO_ROOT
