/**
 * @file
 * Unit tests for the statistics package.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "base/logging.hh"
#include "stats/stats.hh"

using namespace mtlbsim;
using namespace mtlbsim::stats;

TEST(Scalar, StartsAtZero)
{
    StatGroup g("g");
    Scalar &s = g.addScalar("s", "a scalar");
    EXPECT_EQ(s.value(), 0u);
}

TEST(Scalar, IncrementAndAdd)
{
    StatGroup g("g");
    Scalar &s = g.addScalar("s", "");
    ++s;
    s += 2;
    EXPECT_EQ(s.value(), 3u);
}

TEST(Scalar, IncludedCountsShowInEveryRead)
{
    // "sum" includes a host counter and "part", which includes a host
    // counter of its own. Each read reports the own count plus every
    // included one right after any increment, with no call between.
    StatGroup g("g");
    Scalar &part = g.addScalar("part", "");
    Scalar &sum = g.addScalar("sum", "");
    std::uint64_t inner = 0;
    std::uint64_t outer = 0;
    part.include(&inner);
    sum.include(&outer);
    sum.include(&part);

    auto expect_sum = [&](std::uint64_t want) {
        const std::string digits = std::to_string(want);
        EXPECT_EQ(sum.value(), want);
        EXPECT_EQ(sum.toJson().find("value")->dumped(0), digits);
        std::ostringstream os;
        sum.print(os, "g.");
        EXPECT_NE(os.str().find(" " + digits + "\n"), std::string::npos)
            << os.str();
    };
    expect_sum(0);
    ++sum;
    expect_sum(1);
    outer += 2;
    expect_sum(3);
    ++inner;
    expect_sum(4);
    part += 10;
    expect_sum(14);
    EXPECT_EQ(part.value(), 11u);
    ++inner;
    ++outer;
    expect_sum(16);
}

TEST(AverageStat, EmptyIsZero)
{
    StatGroup g("g");
    Average &a = g.addAverage("a", "");
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_EQ(a.min(), 0u);
    EXPECT_EQ(a.max(), 0u);
}

TEST(AverageStat, TracksMoments)
{
    StatGroup g("g");
    Average &a = g.addAverage("a", "");
    a.sample(2);
    a.sample(4);
    a.sample(9);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_EQ(a.sum(), 15u);
    EXPECT_DOUBLE_EQ(a.mean(), 5.0);
    EXPECT_EQ(a.min(), 2u);
    EXPECT_EQ(a.max(), 9u);
}

TEST(StatGroupTest, PrintEmitsPrefixedLines)
{
    StatGroup parent("sys");
    StatGroup child("cache");
    Scalar &s = child.addScalar("hits", "cache hits");
    parent.addChild(&child);
    s += 7;
    std::ostringstream os;
    parent.print(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("sys.cache.hits"), std::string::npos);
    EXPECT_NE(text.find("7"), std::string::npos);
    EXPECT_NE(text.find("cache hits"), std::string::npos);
}

TEST(StatGroupTest, PrintShowsCountsExactly)
{
    StatGroup g("g");
    Scalar &s = g.addScalar("ops", "");
    Average &a = g.addAverage("lat", "");
    s += 1'234'566;
    ++s;
    a.sample(700'000);
    a.sample(400'001);
    std::ostringstream os;
    g.print(os);
    const std::string text = os.str();
    EXPECT_NE(text.find(" 1234567"), std::string::npos) << text;

    // Each line's value is spelled exactly as the JSON tree spells
    // the same stat: "g.ops" is stats.ops.value, "g.lat.min" is
    // stats.lat.min.
    const json::Value tree = g.toJson();
    std::istringstream in(text);
    unsigned lines = 0;
    for (std::string line; std::getline(in, line); ++lines) {
        std::istringstream fields(line);
        std::string name, value;
        fields >> name >> value;
        const std::string path = name.substr(2);
        const auto dot = path.find('.');
        const json::Value *stat =
            tree.find("stats")->find(path.substr(0, dot));
        ASSERT_NE(stat, nullptr) << line;
        const json::Value *field =
            stat->find(dot == std::string::npos ? "value"
                                                : path.substr(dot + 1));
        ASSERT_NE(field, nullptr) << line;
        EXPECT_EQ(value, field->dumped(0)) << line;
    }
    EXPECT_EQ(lines, 5u);
}

TEST(StatGroupTest, NullChildPanics)
{
    StatGroup g("g");
    EXPECT_THROW(g.addChild(nullptr), PanicError);
}

TEST(AverageStat, PrintIncludesSubfields)
{
    StatGroup g("g");
    Average &a = g.addAverage("lat", "latency");
    a.sample(4);
    std::ostringstream os;
    g.print(os);
    EXPECT_NE(os.str().find("lat.mean"), std::string::npos);
    EXPECT_NE(os.str().find("lat.count"), std::string::npos);
}
