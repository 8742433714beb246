#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

namespace perfbench {

namespace {

Check fail(std::string message) { return {false, std::move(message)}; }

double inf_norm(std::span<const value_t> v) {
  double m = 0.0;
  for (const value_t x : v) m = std::max(m, std::abs(x));
  return m;
}

/// Residual test shared by both solves; `ax` holds the product.
Check residual_check(std::span<const value_t> ax, std::span<const value_t> b,
                     std::span<const value_t> x, double a_norm,
                     const char* what) {
  double r = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    const double d = std::abs(b[i] - ax[i]);
    if (std::isnan(d)) return fail(std::string(what) + ": NaN in the residual");
    r = std::max(r, d);
  }
  const double scale = a_norm * inf_norm(x) + inf_norm(b);
  if (!(r <= kResidualTol * scale))
    return fail(std::string(what) + ": residual " + std::to_string(r) +
                " exceeds " + std::to_string(kResidualTol) + " x " +
                std::to_string(scale));
  return {};
}

}  // namespace

void symmetric_lower_matvec(const CscMatrix& a, std::span<const value_t> x,
                            std::span<value_t> y) {
  std::fill(y.begin(), y.end(), 0.0);
  for (sympiler::index_t j = 0; j < a.cols(); ++j)
    for (sympiler::index_t p = a.col_begin(j); p < a.col_end(j); ++p) {
      const sympiler::index_t i = a.rowind[p];
      y[i] += a.values[p] * x[j];
      if (i != j) y[j] += a.values[p] * x[i];
    }
}

Check check_solve(const CscMatrix& a, std::span<const value_t> b,
                  std::span<const value_t> x) {
  if (x.size() != b.size() || b.size() != static_cast<std::size_t>(a.cols()))
    return fail("solve: size mismatch");
  std::vector<value_t> ax(b.size());
  symmetric_lower_matvec(a, x, ax);
  // ||A||_inf of the symmetric matrix: row sums over both triangles.
  std::vector<double> rows(b.size(), 0.0);
  for (sympiler::index_t j = 0; j < a.cols(); ++j)
    for (sympiler::index_t p = a.col_begin(j); p < a.col_end(j); ++p) {
      rows[a.rowind[p]] += std::abs(a.values[p]);
      if (a.rowind[p] != j) rows[j] += std::abs(a.values[p]);
    }
  return residual_check(ax, b, x, inf_norm(rows), "solve");
}

Check check_trisolve(const CscMatrix& l, std::span<const value_t> b,
                     std::span<const value_t> x) {
  if (x.size() != b.size() || b.size() != static_cast<std::size_t>(l.cols()))
    return fail("trisolve: size mismatch");
  std::vector<value_t> lx(b.size(), 0.0);
  std::vector<double> rows(b.size(), 0.0);
  for (sympiler::index_t j = 0; j < l.cols(); ++j)
    for (sympiler::index_t p = l.col_begin(j); p < l.col_end(j); ++p) {
      lx[l.rowind[p]] += l.values[p] * x[j];
      rows[l.rowind[p]] += std::abs(l.values[p]);
    }
  return residual_check(lx, b, x, inf_norm(rows), "trisolve");
}

Check check_identical(std::span<const value_t> expected,
                      std::span<const value_t> got, const char* what) {
  if (expected.size() != got.size())
    return fail(std::string(what) + ": size mismatch");
  for (std::size_t i = 0; i < got.size(); ++i)
    if (std::memcmp(&expected[i], &got[i], sizeof(value_t)) != 0)
      return fail(std::string(what) + ": entry " + std::to_string(i) +
                  " differs from the reference bit for bit");
  return {};
}

Check check_store_loaded(const sympiler::api::FactorReport& r) {
  if (!r.store_loaded)
    return fail("restart: plan was not loaded from the store (" +
                r.to_string() + ")");
  return {};
}

Check check_drift_miss(const sympiler::CacheStats& before,
                       const sympiler::CacheStats& after) {
  if (after.misses != before.misses + 1 || after.hits != before.hits)
    return fail("drift: expected one cache miss and no hit, got " +
                std::to_string(after.misses - before.misses) + " misses, " +
                std::to_string(after.hits - before.hits) + " hits");
  return {};
}

std::uint64_t factor_digest(const CscMatrix& l) {
  std::uint64_t h = 0x243f6a8885a308d3ULL;
  auto mix = [&h](std::uint64_t w) {
    h ^= w + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h *= 0xff51afd7ed558ccdULL;
  };
  for (const auto v : l.colptr) mix(static_cast<std::uint32_t>(v));
  for (const auto v : l.rowind) mix(static_cast<std::uint32_t>(v));
  for (const value_t v : l.values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    mix(bits);
  }
  return h;
}

}  // namespace perfbench
