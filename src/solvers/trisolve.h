// Sparse triangular solve variants — the paper's Figure 1 codes.
//
//  (b) trisolve_naive     : visits every column.
//  (c) trisolve_library   : skips columns whose x entry is zero (the Eigen
//                           implementation; symbolic coupled to numeric).
//  (d) trisolve_decoupled : iterates a precomputed reach-set only.
//
// The Sympiler-generated variants (VS-Block, VI-Prune, peeling, ...) live
// in core/trisolve_executor.h; these are the library baselines.
#pragma once

#include <span>

#include "sparse/csc.h"
#include "util/common.h"

namespace sympiler::solvers {

/// Figure 1b. x holds b on entry, the solution on exit.
/// Throws numerical_error on a zero diagonal.
void trisolve_naive(const CscMatrix& l, std::span<value_t> x);

/// The same sweep over a factor whose pattern and values are stored apart
/// (a simplicial plan's pattern, an executor's values); `lx` holds
/// pattern.nnz() values and pattern.values is not read.
void trisolve_naive(const CscMatrix& pattern, std::span<const value_t> lx,
                    std::span<value_t> x);

/// Figure 1c: the guarded library loop (`if (x[j] != 0)`).
void trisolve_library(const CscMatrix& l, std::span<value_t> x);

/// Figure 1d: decoupled loop over a topologically ordered reach-set.
void trisolve_decoupled(const CscMatrix& l, std::span<const index_t> reach_set,
                        std::span<value_t> x);

/// Backward solve L^T x = b with L stored lower CSC (used to complete
/// A x = b after Cholesky). x holds b on entry, the solution on exit.
void trisolve_transpose(const CscMatrix& l, std::span<value_t> x);
void trisolve_transpose(const CscMatrix& pattern, std::span<const value_t> lx,
                        std::span<value_t> x);

/// Flop count of a sparse-RHS solve restricted to `reach_set`
/// (1 div + 2 flops per off-diagonal nonzero of each reached column).
[[nodiscard]] double trisolve_flops(const CscMatrix& l,
                                    std::span<const index_t> reach_set);

}  // namespace sympiler::solvers
