/**
 * @file
 * Tests for the JSON statistics layer: the json::Value printer and
 * parser (dump -> parse -> re-dump must be a fixed point), the
 * toJson() serializers of every stat kind with their edge cases
 * (empty Average), and the golden-file flatten/compare machinery.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#include "base/random.hh"
#include "stats/golden.hh"
#include "stats/json.hh"
#include "stats/stats.hh"

using namespace mtlbsim;
using namespace mtlbsim::stats;

// --- json::Value fundamentals -----------------------------------

TEST(Json, ScalarKinds)
{
    EXPECT_TRUE(json::Value().isNull());
    EXPECT_TRUE(json::Value(true).asBool());
    EXPECT_DOUBLE_EQ(json::Value(2.5).asNumber(), 2.5);
    EXPECT_EQ(json::Value("hi").asString(), "hi");
}

TEST(Json, ObjectPreservesInsertionOrder)
{
    auto v = json::Value::object();
    v.set("zebra", 1);
    v.set("apple", 2);
    v.set("mango", 3);
    EXPECT_EQ(v.dumped(0), "{\"zebra\":1,\"apple\":2,\"mango\":3}");
    // Replacing a key keeps its slot.
    v.set("apple", 9);
    EXPECT_EQ(v.dumped(0), "{\"zebra\":1,\"apple\":9,\"mango\":3}");
}

TEST(Json, FindAndAccessors)
{
    auto v = json::Value::object();
    v.set("n", 4.0);
    ASSERT_NE(v.find("n"), nullptr);
    EXPECT_DOUBLE_EQ(v.find("n")->asNumber(), 4.0);
    EXPECT_EQ(v.find("absent"), nullptr);
    EXPECT_THROW(v.asNumber(), PanicError);
    EXPECT_THROW(json::Value(1.0).asString(), PanicError);
}

TEST(Json, NumberFormattingIntegralVsFractional)
{
    EXPECT_EQ(json::formatNumber(0), "0");
    EXPECT_EQ(json::formatNumber(-17), "-17");
    EXPECT_EQ(json::formatNumber(1e15), "1000000000000000");
    EXPECT_EQ(json::Value(0.5).dumped(0), "0.5");
    // Above 2^53 integers are not exactly representable; the %.17g
    // form is used instead of a (wrong) integer spelling.
    EXPECT_EQ(json::formatNumber(1e300), "1.0000000000000001e+300");
}

TEST(Json, NonFiniteNumbersSerializeAsNull)
{
    const double nan = std::nan("");
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(json::Value(nan).dumped(0), "null");
    EXPECT_EQ(json::Value(inf).dumped(0), "null");
    EXPECT_EQ(json::Value(-inf).dumped(0), "null");
}

TEST(Json, StringEscaping)
{
    auto v = json::Value("a\"b\\c\nd\te\x01");
    const std::string dumped = v.dumped(0);
    EXPECT_EQ(dumped, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    EXPECT_EQ(json::Value::parse(dumped).asString(), v.asString());
}

TEST(Json, ParseBasics)
{
    const auto v = json::Value::parse(
        " { \"a\": [1, 2.5, -3e2], \"b\": {\"c\": null}, "
        "\"d\": true } ");
    EXPECT_DOUBLE_EQ(v.find("a")->items()[2].asNumber(), -300.0);
    EXPECT_TRUE(v.find("b")->find("c")->isNull());
    EXPECT_TRUE(v.find("d")->asBool());
}

TEST(Json, ParseErrorsAreFatal)
{
    EXPECT_THROW(json::Value::parse("{"), FatalError);
    EXPECT_THROW(json::Value::parse("[1,]"), FatalError);
    EXPECT_THROW(json::Value::parse("nul"), FatalError);
    EXPECT_THROW(json::Value::parse("{\"a\":1} tail"), FatalError);
    EXPECT_THROW(json::Value::parse("\"unterminated"), FatalError);
    EXPECT_THROW(json::Value::parse("1.2.3"), FatalError);
    // Deep nesting is an error naming the offset, not a stack
    // overflow.
    EXPECT_THROW(json::Value::parse(std::string(300000, '[')),
                 FatalError);
    std::string objects;
    for (int i = 0; i < 100000; ++i)
        objects += "{\"a\":";
    EXPECT_THROW(json::Value::parse(objects), FatalError);
    try {
        json::Value::parse(std::string(100, '['));
        ADD_FAILURE() << "100 nested arrays parsed";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("at byte 64: nesting"),
                  std::string::npos)
            << e.what();
    }
}

/** dump -> parse -> dump is a fixed point for a whole tree. */
TEST(Json, RoundTripIsFixedPoint)
{
    auto v = json::Value::object();
    v.set("int", 42);
    v.set("neg", -7);
    v.set("frac", 0.1);
    v.set("tiny", 1.0000000000000002);
    v.set("nan", std::nan(""));
    v.set("str", "line\nbreak");
    auto arr = json::Value::array();
    for (int i = 0; i < 5; ++i)
        arr.push(json::Value(i / 3.0));
    v.set("arr", std::move(arr));
    v.set("empty_obj", json::Value::object());
    v.set("empty_arr", json::Value::array());

    const std::string once = v.dumped();
    const auto parsed = json::Value::parse(once);
    EXPECT_EQ(parsed.dumped(), once);
    // Compact form is a fixed point too.
    EXPECT_EQ(json::Value::parse(v.dumped(0)).dumped(0), v.dumped(0));
}

/** Property: any double the simulator can produce survives a dump ->
 *  parse cycle exactly (or both end up NaN). */
TEST(Json, NumberRoundTripProperty)
{
    Random rng(0x71e57);
    for (int i = 0; i < 2000; ++i) {
        double v;
        switch (i % 4) {
          case 0:   // counter-like
            v = static_cast<double>(rng.below(1u << 30));
            break;
          case 1:   // ratio-like
            v = static_cast<double>(rng.below(1'000'000)) /
                static_cast<double>(rng.below(1'000'000) + 1);
            break;
          case 2:   // big cycle counts
            v = static_cast<double>(rng.next() >> 11);
            break;
          default:  // raw bit patterns (skip non-finite)
            std::uint64_t bits = rng.next();
            std::memcpy(&v, &bits, sizeof(v));
            if (!std::isfinite(v))
                v = 0.0;
            break;
        }
        const std::string dumped = json::Value(v).dumped(0);
        const auto parsed = json::Value::parse(dumped);
        EXPECT_DOUBLE_EQ(parsed.asNumber(), v) << "spelled " << dumped;
        EXPECT_EQ(parsed.dumped(0), dumped);
    }
}

// --- stat-kind serializers ---------------------------------------

TEST(StatsJson, ScalarToJson)
{
    StatGroup g("g");
    Scalar &s = g.addScalar("s", "");
    s = 12;
    const auto v = s.toJson();
    EXPECT_EQ(v.find("kind")->asString(), "scalar");
    EXPECT_DOUBLE_EQ(v.find("value")->asNumber(), 12.0);
}

TEST(StatsJson, EmptyAverageOmitsMinMax)
{
    StatGroup g("g");
    Average &a = g.addAverage("a", "");
    const auto v = a.toJson();
    EXPECT_DOUBLE_EQ(v.find("count")->asNumber(), 0.0);
    EXPECT_DOUBLE_EQ(v.find("mean")->asNumber(), 0.0);
    // The +/-inf tracking sentinels must not leak into output.
    EXPECT_EQ(v.find("min"), nullptr);
    EXPECT_EQ(v.find("max"), nullptr);
    EXPECT_EQ(v.dumped(0).find("inf"), std::string::npos);
}

TEST(StatsJson, EmptyAveragePrintsZeroNotInf)
{
    StatGroup g("g");
    g.addAverage("a", "");
    std::ostringstream os;
    g.print(os);
    EXPECT_EQ(os.str().find("inf"), std::string::npos);
}

TEST(StatsJson, PopulatedAverageReportsMinMax)
{
    StatGroup g("g");
    Average &a = g.addAverage("a", "");
    a.sample(3);
    a.sample(-1);
    const auto v = a.toJson();
    EXPECT_DOUBLE_EQ(v.find("min")->asNumber(), -1.0);
    EXPECT_DOUBLE_EQ(v.find("max")->asNumber(), 3.0);
    // reset() returns to the omitted form.
    a.reset();
    EXPECT_EQ(a.toJson().find("min"), nullptr);
}

TEST(StatsJson, GroupTreeStructureAndOrder)
{
    StatGroup parent("system");
    StatGroup child("tlb");
    parent.addChild(&child);
    parent.addScalar("uptime", "") = 7;
    child.addScalar("misses", "") = 3;
    child.addScalar("hits", "") = 5;

    const auto v = parent.toJson();
    EXPECT_DOUBLE_EQ(
        v.find("stats")->find("uptime")->find("value")->asNumber(),
        7.0);
    const auto *tlb = v.find("groups")->find("tlb");
    ASSERT_NE(tlb, nullptr);
    // Registration order, not alphabetical.
    EXPECT_EQ(tlb->find("stats")->members()[0].first, "misses");
    EXPECT_EQ(tlb->find("stats")->members()[1].first, "hits");

    const std::string dumped = v.dumped();
    EXPECT_EQ(json::Value::parse(dumped).dumped(), dumped);
}

// --- golden flatten/compare --------------------------------------

TEST(Golden, FlattenNumeric)
{
    const auto v = json::Value::parse(
        "{\"a\": 1, \"b\": {\"c\": 2.5, \"d\": \"str\"}, "
        "\"e\": [10, 20]}");
    const auto flat = flattenNumeric(v);
    EXPECT_DOUBLE_EQ(flat.at("a"), 1.0);
    EXPECT_DOUBLE_EQ(flat.at("b.c"), 2.5);
    EXPECT_DOUBLE_EQ(flat.at("e.0"), 10.0);
    EXPECT_DOUBLE_EQ(flat.at("e.1"), 20.0);
    EXPECT_EQ(flat.count("b.d"), 0u);
}

TEST(Golden, CompareIdenticalIsClean)
{
    const auto v = json::Value::parse(
        "{\"x\": 5, \"y\": {\"z\": 1.25}, \"s\": \"em3d\"}");
    EXPECT_TRUE(compareGolden(v, v).empty());
}

TEST(Golden, CompareFlagsAnyDrift)
{
    // The comparison is exact: a counter off by one and a derived
    // value off in its last bit both drift; equal leaves do not.
    const double mean = 0.1 + 0.2;
    const double nextUp = std::nextafter(mean, 1.0);
    auto want = json::Value::object();
    want.set("x", 100);
    want.set("y", 50);
    want.set("mean", mean);
    auto got = json::Value::object();
    got.set("x", 101);
    got.set("y", 50);
    got.set("mean", nextUp);

    const auto diffs = compareGolden(want, got);
    ASSERT_EQ(diffs.size(), 2u);
    EXPECT_EQ(diffs[0].path, "mean");
    EXPECT_EQ(diffs[0].expected, mean);
    EXPECT_EQ(diffs[0].actual, nextUp);
    EXPECT_EQ(diffs[1].path, "x");
    EXPECT_DOUBLE_EQ(diffs[1].expected, 100.0);
    EXPECT_DOUBLE_EQ(diffs[1].actual, 101.0);
}

TEST(Golden, CompareFlagsMissingAndExtraKeys)
{
    const auto want = json::Value::parse("{\"x\": 1, \"gone\": 2}");
    const auto got = json::Value::parse("{\"x\": 1, \"new\": 3}");
    const auto diffs = compareGolden(want, got);
    ASSERT_EQ(diffs.size(), 2u);
}

TEST(Golden, CompareNonNumericLeaves)
{
    const auto want = json::Value::parse("{\"name\": \"em3d\"}");
    const auto same = json::Value::parse("{\"name\": \"em3d\"}");
    const auto other = json::Value::parse("{\"name\": \"radix\"}");
    EXPECT_TRUE(compareGolden(want, same).empty());
    EXPECT_EQ(compareGolden(want, other).size(), 1u);
}

TEST(Golden, NullsCompareClean)
{
    // A NaN-guarded value serializes as null on both sides.
    const auto v = json::Value::parse("{\"ratio\": null}");
    EXPECT_TRUE(compareGolden(v, v).empty());
    const auto num = json::Value::parse("{\"ratio\": 0.5}");
    EXPECT_EQ(compareGolden(v, num).size(), 1u);
}

TEST(Golden, DescribeMentionsPathAndValues)
{
    GoldenDiff d{"metrics.total_cycles", 100.0, 110.0};
    const std::string text = d.describe();
    EXPECT_NE(text.find("metrics.total_cycles"), std::string::npos);
    EXPECT_NE(text.find("100"), std::string::npos);
    EXPECT_NE(text.find("110"), std::string::npos);
}
