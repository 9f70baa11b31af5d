// Bit-pattern equality for golden comparisons of complex samples.
//
// `==` on cplx treats -0.0 and +0.0 as equal and NaN as unequal to itself,
// yet a sign-of-zero change flips std::arg between +π and -π downstream.
// A bit-identity contract is checked on the bits of both parts instead.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
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

/// bits_equal, except that a NaN part matches any NaN part. An operation
/// on two NaN operands returns one of them, picked by operand order — an
/// order the compiler chooses for commutative operations, differently even
/// in two compilations of one scalar expression — so the sign and payload
/// of a NaN carry no contract; that a part is NaN does.
inline ::testing::AssertionResult bits_equal_or_nan(cplx a, cplx b) {
  const auto nan_or = [](double x, double y, double& xs, double& ys) {
    xs = x;
    ys = y;
    if (std::isnan(x) && std::isnan(y)) xs = ys = 0.0;
  };
  double ar, br, ai, bi;
  nan_or(a.real(), b.real(), ar, br);
  nan_or(a.imag(), b.imag(), ai, bi);
  if (bits_equal(cplx{ar, ai}, cplx{br, bi})) return ::testing::AssertionSuccess();
  return bits_equal(a, b);
}

}  // namespace zz::test
