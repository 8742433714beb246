#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "gen/generators.h"
#include "sparse/ops.h"

namespace perfbench {

using sympiler::gen::GridOrder;
namespace gen = sympiler::gen;

std::vector<Pattern> recurring_patterns(bool smoke) {
  std::vector<Pattern> p;
  if (smoke) {
    p.push_back({"cbuckle", gen::block_structural(12, 12, 3, 101, GridOrder::NestedDissection)});
    p.push_back({"strip", gen::grid2d_laplacian(6, 300, GridOrder::Natural)});
    return p;
  }
  // Table-2 rows 1, 2 and 6 at suite size, plus a 30x1500 strip in the
  // regime of Dubcova2/thermomech_dM at a third of their size, so that
  // every op stays within about 5-150 ms.
  p.push_back({"cbuckle", gen::block_structural(68, 68, 3, 101, GridOrder::NestedDissection)});
  p.push_back({"Pres_Poisson", gen::grid2d_laplacian(122, 122, GridOrder::NestedDissection)});
  p.push_back({"msc23052", gen::block_structural(88, 88, 3, 106, GridOrder::NestedDissection)});
  p.push_back({"strip30x1500", gen::grid2d_laplacian(30, 1500, GridOrder::Natural)});
  return p;
}

std::vector<Pattern> restart_patterns(bool smoke) {
  std::vector<Pattern> p;
  if (smoke) {
    p.push_back({"cbuckle", gen::block_structural(12, 12, 3, 101, GridOrder::NestedDissection)});
    p.push_back({"strip", gen::grid2d_laplacian(6, 300, GridOrder::Natural)});
    return p;
  }
  // cbuckle and msc23052 persist by the compute-bound rule (estimated load
  // under a third of the measured build); Pres_Poisson and the 10x2000
  // strip (simplicial) sit under the 4 MiB always-persist floor.
  p.push_back({"cbuckle", gen::block_structural(68, 68, 3, 101, GridOrder::NestedDissection)});
  p.push_back({"Pres_Poisson", gen::grid2d_laplacian(122, 122, GridOrder::NestedDissection)});
  p.push_back({"msc23052", gen::block_structural(88, 88, 3, 106, GridOrder::NestedDissection)});
  p.push_back({"strip10x2000", gen::grid2d_laplacian(10, 2000, GridOrder::Natural)});
  return p;
}

std::vector<Pattern> drift_patterns(bool smoke) {
  std::vector<Pattern> p;
  if (smoke) {
    p.push_back({"strip", gen::grid2d_laplacian(6, 300, GridOrder::Natural)});
    p.push_back({"nd", gen::grid2d_laplacian(20, 20, GridOrder::NestedDissection)});
    return p;
  }
  p.push_back({"strip20x2500", gen::grid2d_laplacian(20, 2500, GridOrder::Natural)});
  p.push_back({"nd150x150", gen::grid2d_laplacian(150, 150, GridOrder::NestedDissection)});
  return p;
}

CscMatrix reseed_values(const CscMatrix& a_lower, std::uint64_t seed) {
  Rng rng(seed);
  CscMatrix out = a_lower;
  const index_t n = out.cols();
  std::vector<value_t> offsum(static_cast<std::size_t>(n), 0.0);
  for (index_t j = 0; j < n; ++j)
    for (index_t p = out.col_begin(j); p < out.col_end(j); ++p) {
      const index_t i = out.rowind[p];
      if (i == j) continue;
      const value_t v = out.values[p] * (0.5 + rng.uniform());
      out.values[p] = v;
      offsum[i] += std::abs(v);
      offsum[j] += std::abs(v);
    }
  for (index_t j = 0; j < n; ++j) {
    const index_t p = out.col_begin(j);  // diagonal-first lower triangle
    out.values[p] = offsum[j] * (1.05 + 0.2 * rng.uniform()) + 1e-3;
  }
  return out;
}

std::vector<value_t> dense_vector(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<value_t> v(static_cast<std::size_t>(n));
  for (value_t& x : v) x = 2.0 * rng.uniform() - 1.0;
  return v;
}

DriftEditor::DriftEditor(CscMatrix base, std::uint64_t seed)
    : base_(std::move(base)),
      full_(sympiler::symmetric_full_from_lower(base_)),
      rng_(seed) {}

bool DriftEditor::present(index_t row, index_t col) const {
  const auto first = base_.rowind.begin() + base_.col_begin(col);
  const auto last = base_.rowind.begin() + base_.col_end(col);
  if (std::binary_search(first, last, row)) return true;
  return std::any_of(edits_.begin(), edits_.end(), [&](const Edit& e) {
    return e.row == row && e.col == col;
  });
}

CscMatrix DriftEditor::step() {
  const index_t n = base_.cols();
  // Pick j, a neighbour k of j, and a neighbour i of k: (i, j) is a
  // distance-two pair. Bounded retries; every base pattern here has far
  // more distance-two pairs than a run can use.
  for (int attempt = 0;; ++attempt) {
    if (attempt >= 100000)
      throw std::runtime_error("drift: no unused distance-two pair left");
    const index_t j = rng_.below(n);
    const index_t kb = full_.col_begin(j), ke = full_.col_end(j);
    const index_t k = full_.rowind[kb + rng_.below(ke - kb)];
    const index_t ib = full_.col_begin(k), ie = full_.col_end(k);
    const index_t i = full_.rowind[ib + rng_.below(ie - ib)];
    if (i == j) continue;
    const index_t row = std::max(i, j), col = std::min(i, j);
    const std::uint64_t id =
        (static_cast<std::uint64_t>(row) << 32) | static_cast<std::uint32_t>(col);
    if (used_.count(id) != 0 || present(row, col)) continue;
    used_.insert(id);
    edits_.push_back({row, col, -(0.1 + 0.4 * rng_.uniform())});
    break;
  }
  if (edits_.size() > kDriftWindow) edits_.pop_front();

  std::vector<Edit> sorted(edits_.begin(), edits_.end());
  std::sort(sorted.begin(), sorted.end(), [](const Edit& x, const Edit& y) {
    return x.col != y.col ? x.col < y.col : x.row < y.row;
  });
  CscMatrix out(n, n, base_.nnz() + static_cast<index_t>(sorted.size()));
  std::size_t e = 0;
  index_t q = 0;
  for (index_t j = 0; j < n; ++j) {
    out.colptr[j] = q;
    for (index_t p = base_.col_begin(j); p < base_.col_end(j); ++p) {
      for (; e < sorted.size() && sorted[e].col == j &&
             sorted[e].row < base_.rowind[p];
           ++e, ++q) {
        out.rowind[q] = sorted[e].row;
        out.values[q] = sorted[e].value;
      }
      out.rowind[q] = base_.rowind[p];
      out.values[q] = base_.values[p];
      ++q;
    }
    for (; e < sorted.size() && sorted[e].col == j; ++e, ++q) {
      out.rowind[q] = sorted[e].row;
      out.values[q] = sorted[e].value;
    }
  }
  out.colptr[n] = q;
  for (const Edit& ed : sorted) {
    out.values[out.col_begin(ed.row)] += std::abs(ed.value);
    out.values[out.col_begin(ed.col)] += std::abs(ed.value);
  }
  return out;
}

}  // namespace perfbench
