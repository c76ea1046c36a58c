/**
 * @file
 * Contract fixture for R5 hygiene in a header whose code only a test
 * object compiles: r5_includer.cc includes it and has no code of its
 * own, so every line of that object's code lies in this file. The
 * check must report exactly the lines marked with a rule
 * (expect_contract_findings.cmake).
 */

#pragma once

#include <cstdlib>
#include <memory>

namespace mtlbsim
{

int *
headerNew()
{
    return new int(7); // R5
}

std::unique_ptr<int>
headerMakeUnique()
{
    return std::make_unique<int>(std::rand()); // R5
}

} // namespace mtlbsim
