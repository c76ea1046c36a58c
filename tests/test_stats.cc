/**
 * @file
 * Unit tests for the statistics package.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "stats/stats.hh"

using namespace mtlbsim;
using namespace mtlbsim::stats;

TEST(Scalar, StartsAtZero)
{
    StatGroup g("g");
    Scalar &s = g.addScalar("s", "a scalar");
    EXPECT_EQ(s.value(), 0.0);
}

TEST(Scalar, IncrementAndAdd)
{
    StatGroup g("g");
    Scalar &s = g.addScalar("s", "");
    ++s;
    s += 2.5;
    EXPECT_DOUBLE_EQ(s.value(), 3.5);
}

TEST(Scalar, AssignAndReset)
{
    StatGroup g("g");
    Scalar &s = g.addScalar("s", "");
    s = 9;
    EXPECT_DOUBLE_EQ(s.value(), 9.0);
    s.reset();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(AverageStat, EmptyIsZero)
{
    StatGroup g("g");
    Average &a = g.addAverage("a", "");
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_DOUBLE_EQ(a.min(), 0.0);
    EXPECT_DOUBLE_EQ(a.max(), 0.0);
}

TEST(AverageStat, TracksMoments)
{
    StatGroup g("g");
    Average &a = g.addAverage("a", "");
    a.sample(2);
    a.sample(4);
    a.sample(9);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.sum(), 15.0);
    EXPECT_DOUBLE_EQ(a.mean(), 5.0);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 9.0);
}

TEST(AverageStat, ResetClearsEverything)
{
    StatGroup g("g");
    Average &a = g.addAverage("a", "");
    a.sample(5);
    a.reset();
    EXPECT_EQ(a.count(), 0u);
    a.sample(1);
    EXPECT_DOUBLE_EQ(a.min(), 1.0);
    EXPECT_DOUBLE_EQ(a.max(), 1.0);
}

TEST(StatGroupTest, FindLocatesByName)
{
    StatGroup g("g");
    g.addScalar("hits", "");
    EXPECT_NE(g.find("hits"), nullptr);
    EXPECT_EQ(g.find("misses"), nullptr);
}

TEST(StatGroupTest, ResetAllRecursesIntoChildren)
{
    StatGroup parent("p");
    StatGroup child("c");
    Scalar &ps = parent.addScalar("s", "");
    Scalar &cs = child.addScalar("s", "");
    parent.addChild(&child);
    ps = 1;
    cs = 2;
    parent.resetAll();
    EXPECT_DOUBLE_EQ(ps.value(), 0.0);
    EXPECT_DOUBLE_EQ(cs.value(), 0.0);
}

TEST(StatGroupTest, PrintEmitsPrefixedLines)
{
    StatGroup parent("sys");
    StatGroup child("cache");
    Scalar &s = child.addScalar("hits", "cache hits");
    parent.addChild(&child);
    s = 7;
    std::ostringstream os;
    parent.print(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("sys.cache.hits"), std::string::npos);
    EXPECT_NE(text.find("7"), std::string::npos);
    EXPECT_NE(text.find("cache hits"), std::string::npos);
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
