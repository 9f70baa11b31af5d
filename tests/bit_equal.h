// Bit-pattern equality for golden comparisons of complex samples.
//
// `==` on cplx treats -0.0 and +0.0 as equal and NaN as unequal to itself,
// yet a sign-of-zero change flips std::arg between +π and -π downstream.
// A bit-identity contract is checked on the bits of both parts instead.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iomanip>

#include "zz/common/types.h"

namespace zz::test {

/// Success iff the real parts and the imaginary parts of a and b have
/// identical IEEE bit patterns; the failure message shows both in hex.
inline ::testing::AssertionResult bits_equal(cplx a, cplx b) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  if (bits(a.real()) == bits(b.real()) && bits(a.imag()) == bits(b.imag()))
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << std::setprecision(17) << a << " vs " << b << std::hex
         << " (bits " << bits(a.real()) << "," << bits(a.imag()) << " vs "
         << bits(b.real()) << "," << bits(b.imag()) << ")";
}

}  // namespace zz::test
