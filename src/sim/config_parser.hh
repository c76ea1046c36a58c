/**
 * @file
 * Key=value configuration for SystemConfig.
 *
 * A small, dependency-free configuration layer so experiments can be
 * described in files and on command lines instead of C++:
 *
 *     # the paper's default machine
 *     tlb.entries = 96
 *     mtlb.enabled = true
 *     mtlb.entries = 128
 *     mtlb.assoc = 2
 *     mem.installed_mb = 256
 *
 * Unknown keys are fatal (catching typos beats silently ignoring
 * them). Booleans accept true/false/1/0; sizes ending in _mb/_kb are
 * plain integers in those units.
 */

#pragma once

#include <cstdint>
#include <istream>
#include <string>
#include <vector>

#include "sim/system.hh"

namespace mtlbsim
{

/**
 * Parse @p text as a plain decimal count no larger than @p max: the
 * check every unsigned config value and every numeric command-line
 * flag passes. A sign, a blank, a unit or any other character, and
 * a larger count, are a FatalError naming @p what (a config key or a
 * flag).
 */
std::uint64_t parseCount(const std::string &what, const std::string &text,
                         std::uint64_t max);

/** Parse @p text as a finite number greater than 0, with nothing
 *  after it; anything else is a FatalError naming @p what. */
double parsePositive(const std::string &what, const std::string &text);

/** Parse @p text as a workload scale: what parsePositive() accepts,
 *  up to 1 (makeWorkload's range), so a command line fails once, up
 *  front, and not in every job it starts. */
double parseScale(const std::string &what, const std::string &text);

/**
 * Parses option assignments into a SystemConfig.
 */
class ConfigParser
{
  public:
    /** Start from the library defaults (the paper's machine). */
    ConfigParser() = default;

    /** Start from an existing configuration. */
    explicit ConfigParser(const SystemConfig &base) : config_(base) {}

    /** Apply one "key = value" (or "key=value") assignment. */
    void set(const std::string &key, const std::string &value);

    /** Apply a whole stream: one assignment per line; '#' comments
     *  and blank lines are ignored. */
    void parseStream(std::istream &in);

    /** Apply a config file. */
    void parseFile(const std::string &path);

    /** Apply "key=value" command-line tokens; returns tokens that
     *  were not assignments (e.g. positional arguments). */
    std::vector<std::string> parseArgs(int argc, char **argv);

    const SystemConfig &config() const { return config_; }

    /** Names of every accepted key (for --help output). */
    static std::vector<std::string> knownKeys();

  private:
    SystemConfig config_;
};

} // namespace mtlbsim
