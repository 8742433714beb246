// Output checks of the benchmark, computed apart from the factorization:
// a bench-side symmetric SpMV from the lower triangle, a bench-side
// triangular product, and plain bit comparisons. Each returns a Check
// whose message names the first violation.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "api/solver.h"
#include "sparse/csc.h"
#include "util/common.h"
#include "util/stats.h"

namespace perfbench {

using sympiler::CscMatrix;
using sympiler::value_t;

struct Check {
  bool ok = true;
  std::string message;
  explicit operator bool() const { return ok; }
};

/// Relative residual tolerance of every solve: ||b - A x||_inf must stay
/// under kResidualTol * (||A||_inf ||x||_inf + ||b||_inf). The inputs are
/// strictly diagonally dominant, so a correct double-precision solve lands
/// near 1e-16.
inline constexpr double kResidualTol = 1e-10;

/// y = A x with A symmetric, given as its lower triangle.
void symmetric_lower_matvec(const CscMatrix& a_lower,
                            std::span<const value_t> x, std::span<value_t> y);

/// A x = b for A given as its lower triangle.
[[nodiscard]] Check check_solve(const CscMatrix& a_lower,
                                std::span<const value_t> b,
                                std::span<const value_t> x);

/// L x = b for a lower-triangular L (a factor from factor_csc()).
[[nodiscard]] Check check_trisolve(const CscMatrix& l,
                                   std::span<const value_t> b,
                                   std::span<const value_t> x);

/// Bitwise equality of two result vectors.
[[nodiscard]] Check check_identical(std::span<const value_t> expected,
                                    std::span<const value_t> got,
                                    const char* what);

/// A restart op must have served its plan from the store.
[[nodiscard]] Check check_store_loaded(const sympiler::api::FactorReport& r);

/// A drift op must have missed the plan cache exactly once.
[[nodiscard]] Check check_drift_miss(const sympiler::CacheStats& before,
                                     const sympiler::CacheStats& after);

/// 64-bit digest of a factor's pattern and value bits, for bit-identity
/// checks without keeping a copy of each reference factor.
[[nodiscard]] std::uint64_t factor_digest(const CscMatrix& l);

}  // namespace perfbench
