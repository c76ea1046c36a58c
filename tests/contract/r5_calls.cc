/**
 * @file
 * Contract fixture for R5 hygiene: banned calls. The check must report
 * exactly the lines marked with a rule (expect_contract_findings.cmake).
 */

#include <chrono>
#include <cstdlib>
#include <memory>
#include <random>
#include <vector>

namespace mtlbsim
{

int *
nakedNew()
{
    return new int(7); // R5
}

// make_unique's and a container's operator new calls belong to
// libstdc++, not to this file.
std::unique_ptr<int>
viaMakeUnique()
{
    return std::make_unique<int>(7);
}

void
grow(std::vector<int> &v)
{
    v.push_back(1);
}

int
randomness()
{
    std::random_device device; // R5
    const int r = std::rand(); // R5
    return r + static_cast<int>(device()); // R5
}

long
wallClock()
{
    const auto t = std::chrono::steady_clock::now(); // R5
    return t.time_since_epoch().count();
}

const char *
environment()
{
    return std::getenv("MTLBSIM_DEBUG"); // R5 unless src/base/debug.cc
}

} // namespace mtlbsim
