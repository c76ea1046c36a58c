/**
 * @file
 * Tests for debug tracing: the flag-list parser, the mask read once
 * from MTLBSIM_DEBUG, and debugPrintf's output.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <ostream>
#include <string>

#include "base/debug.hh"

using namespace mtlbsim;
using debug::Flag;
using debug::bit;
using testing::internal::CaptureStderr;
using testing::internal::GetCapturedStderr;

namespace
{

// Select Kernel, and not MTLB, before anything reads the mask: it is
// read once, on the first debug::enabled() call, after this runs.
const bool kKernelSelected = ::setenv("MTLBSIM_DEBUG", "Kernel", 1) == 0;

/** Streamable probe that records whether it was ever formatted. */
struct Probe
{
    bool *flagged;
};

std::ostream &
operator<<(std::ostream &os, const Probe &p)
{
    *p.flagged = true;
    return os;
}

} // namespace

TEST(DebugFlags, ParseFlagsReadsACommaList)
{
    EXPECT_EQ(debug::parseFlags("MTLB,Kernel"),
              bit(Flag::Mtlb) | bit(Flag::Kernel));
    EXPECT_EQ(debug::parseFlags("MTLB"), bit(Flag::Mtlb));
    EXPECT_EQ(debug::parseFlags("Kernel,"), bit(Flag::Kernel));
}

TEST(DebugFlags, ParseFlagsAllSelectsEveryFlag)
{
    EXPECT_EQ(debug::parseFlags("All"),
              bit(Flag::Mtlb) | bit(Flag::Kernel));
}

TEST(DebugFlags, ParseFlagsEmptySelectsNothing)
{
    CaptureStderr();
    EXPECT_EQ(debug::parseFlags(""), 0u);
    EXPECT_EQ(debug::parseFlags(","), 0u);
    EXPECT_EQ(GetCapturedStderr(), "");
}

TEST(DebugFlags, UnknownNameWarnsOnceAndNamesTheKnownOnes)
{
    CaptureStderr();
    EXPECT_EQ(debug::parseFlags("Bogus,MTLB"), bit(Flag::Mtlb));
    const std::string err = GetCapturedStderr();
    EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
    EXPECT_EQ(err.rfind("warn: ", 0), 0u) << err;
    EXPECT_NE(err.find("'Bogus'"), std::string::npos) << err;
    EXPECT_NE(err.find("Kernel, MTLB, All"), std::string::npos) << err;
}

TEST(DebugFlags, EnvironmentSelectsOnlyTheNamedFlags)
{
    ASSERT_TRUE(kKernelSelected);
    EXPECT_TRUE(debug::enabled(Flag::Kernel));
    EXPECT_FALSE(debug::enabled(Flag::Mtlb));
}

TEST(DebugFlags, PrintfIsSilentForAnUnselectedFlag)
{
    // Nothing reaches stderr, and the message is never assembled.
    bool assembled = false;
    CaptureStderr();
    debugPrintf(Flag::Mtlb, Probe{&assembled});
    EXPECT_EQ(GetCapturedStderr(), "");
    EXPECT_FALSE(assembled);
}

TEST(DebugFlags, PrintfPrefixesTheFlagName)
{
    bool assembled = false;
    CaptureStderr();
    debugPrintf(Flag::Kernel, "remap ", 3, " pages", Probe{&assembled});
    EXPECT_EQ(GetCapturedStderr(), "Kernel: remap 3 pages\n");
    EXPECT_TRUE(assembled);
}
