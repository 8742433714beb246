#include "solvers/trisolve.h"

namespace sympiler::solvers {

namespace {

inline void column_update(const CscMatrix& l, const value_t* lx, index_t j,
                          std::span<value_t> x) {
  const index_t pdiag = l.col_begin(j);
  const value_t piv = lx[pdiag];
  if (piv == 0.0) throw numerical_error("trisolve: zero diagonal");
  const value_t xj = x[j] / piv;
  x[j] = xj;
  for (index_t p = pdiag + 1; p < l.col_end(j); ++p)
    x[l.rowind[p]] -= lx[p] * xj;
}

inline void column_update(const CscMatrix& l, index_t j,
                          std::span<value_t> x) {
  column_update(l, l.values.data(), j, x);
}

}  // namespace

void trisolve_naive(const CscMatrix& l, std::span<value_t> x) {
  trisolve_naive(l, l.values, x);
}

void trisolve_naive(const CscMatrix& pattern, std::span<const value_t> lx,
                    std::span<value_t> x) {
  SYMPILER_CHECK(pattern.rows() == pattern.cols() &&
                     static_cast<index_t>(x.size()) == pattern.cols() &&
                     static_cast<index_t>(lx.size()) == pattern.nnz(),
                 "trisolve: size mismatch");
  for (index_t j = 0; j < pattern.cols(); ++j)
    column_update(pattern, lx.data(), j, x);
}

void trisolve_library(const CscMatrix& l, std::span<value_t> x) {
  SYMPILER_CHECK(l.rows() == l.cols() &&
                     static_cast<index_t>(x.size()) == l.cols(),
                 "trisolve: size mismatch");
  for (index_t j = 0; j < l.cols(); ++j) {
    if (x[j] != 0.0) column_update(l, j, x);
  }
}

void trisolve_decoupled(const CscMatrix& l, std::span<const index_t> reach_set,
                        std::span<value_t> x) {
  for (const index_t j : reach_set) column_update(l, j, x);
}

void trisolve_transpose(const CscMatrix& l, std::span<value_t> x) {
  trisolve_transpose(l, l.values, x);
}

void trisolve_transpose(const CscMatrix& pattern, std::span<const value_t> lx,
                        std::span<value_t> x) {
  const CscMatrix& l = pattern;
  for (index_t j = l.cols() - 1; j >= 0; --j) {
    const index_t pdiag = l.col_begin(j);
    value_t s = x[j];
    for (index_t p = pdiag + 1; p < l.col_end(j); ++p)
      s -= lx[p] * x[l.rowind[p]];
    const value_t piv = lx[pdiag];
    if (piv == 0.0) throw numerical_error("trisolve^T: zero diagonal");
    x[j] = s / piv;
  }
}

double trisolve_flops(const CscMatrix& l, std::span<const index_t> reach_set) {
  double flops = 0.0;
  for (const index_t j : reach_set)
    flops += 1.0 + 2.0 * static_cast<double>(l.col_end(j) - l.col_begin(j) - 1);
  return flops;
}

}  // namespace sympiler::solvers
