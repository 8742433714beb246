#include "solvers/supernodal.h"

#include <algorithm>

#include "blas/kernels.h"
#include "sparse/ops.h"

namespace sympiler::solvers {

namespace {

/// Finish a layout from its row lists: panel offsets are nrows * width.
SupernodalLayout layout_from_rows(const SymbolicFactor& sym,
                                  SupernodePartition partition,
                                  SupernodeRows rows) {
  SupernodalLayout layout;
  layout.n = static_cast<index_t>(sym.parent.size());
  layout.sn = std::move(partition);
  layout.flops = sym.flops;
  layout.srow_ptr = std::move(rows.ptr);
  layout.srows = std::move(rows.rows);
  const index_t nsuper = layout.sn.count();
  layout.panel_ptr.assign(static_cast<std::size_t>(nsuper) + 1, 0);
  for (index_t s = 0; s < nsuper; ++s)
    layout.panel_ptr[s + 1] =
        layout.panel_ptr[s] +
        static_cast<std::int64_t>(layout.nrows(s)) * layout.width(s);
  return layout;
}

}  // namespace

SupernodalLayout SupernodalLayout::build(const SymbolicFactor& sym,
                                         SupernodePartition partition) {
  const auto n = static_cast<index_t>(sym.parent.size());
  SYMPILER_CHECK(partition.valid(n), "layout: invalid partition");
  SYMPILER_CHECK(sym.l_pattern.cols() == n,
                 "layout: symbolic factor carries no pattern of L");
  const CscMatrix& lp = sym.l_pattern;
  const index_t nsuper = partition.count();
  SupernodeRows rows;
  rows.ptr.assign(static_cast<std::size_t>(nsuper) + 1, 0);
  // The rows of supernode s are the pattern of its first column (the
  // supernodal invariant guarantees later columns' patterns are suffixes).
  for (index_t s = 0; s < nsuper; ++s) {
    const index_t c1 = partition.start[s];
    const index_t nrow = lp.col_end(c1) - lp.col_begin(c1);
    SYMPILER_CHECK(nrow >= partition.width(s),
                   "layout: supernode shorter than its width");
    rows.ptr[s + 1] = rows.ptr[s] + nrow;
  }
  rows.rows.resize(static_cast<std::size_t>(rows.ptr[nsuper]));
  for (index_t s = 0; s < nsuper; ++s) {
    const index_t c1 = partition.start[s];
    std::copy(lp.rowind.begin() + lp.col_begin(c1),
              lp.rowind.begin() + lp.col_end(c1),
              rows.rows.begin() + rows.ptr[s]);
  }
  return layout_from_rows(sym, std::move(partition), std::move(rows));
}

SupernodalLayout SupernodalLayout::build(const CscMatrix& upper,
                                         const SymbolicFactor& sym,
                                         SupernodePartition partition) {
  SupernodeRows rows =
      supernodal_fill_pattern(upper, sym.parent, sym.colcount, partition);
  return layout_from_rows(sym, std::move(partition), std::move(rows));
}

UpdateLists compute_update_lists(const SupernodalLayout& layout) {
  const index_t nsuper = layout.nsuper();
  // Simulate the cursor walk of each descendant over its row list twice:
  // pass 1 counts the (d, p1, p2) segments per target supernode, pass 2
  // writes them into the flat ptr/refs arrays — no per-supernode bucket
  // vectors, two allocations total.
  UpdateLists lists;
  lists.ptr.assign(static_cast<std::size_t>(nsuper) + 1, 0);
  for (index_t d = 0; d < nsuper; ++d) {
    const index_t* rows = layout.srows.data() + layout.srow_ptr[d];
    const index_t nrow = layout.nrows(d);
    index_t p = layout.width(d);
    while (p < nrow) {
      const index_t target = layout.sn.col_to_super[rows[p]];
      const index_t c2 = layout.sn.start[target + 1];
      while (p < nrow && rows[p] < c2) ++p;
      ++lists.ptr[target + 1];
    }
  }
  for (index_t s = 0; s < nsuper; ++s) lists.ptr[s + 1] += lists.ptr[s];
  lists.refs.resize(static_cast<std::size_t>(lists.ptr[nsuper]));
  std::vector<index_t> next(lists.ptr.begin(), lists.ptr.end() - 1);
  for (index_t d = 0; d < nsuper; ++d) {
    const index_t* rows = layout.srows.data() + layout.srow_ptr[d];
    const index_t nrow = layout.nrows(d);
    index_t p = layout.width(d);
    while (p < nrow) {
      const index_t target = layout.sn.col_to_super[rows[p]];
      const index_t c2 = layout.sn.start[target + 1];
      index_t q = p;
      while (q < nrow && rows[q] < c2) ++q;
      lists.refs[next[target]++] = {d, p, q};
      p = q;
    }
  }
  return lists;
}

void scatter_into_panels(const SupernodalLayout& layout,
                         const CscMatrix& a_lower, std::span<value_t> panels,
                         std::span<index_t> map) {
  SYMPILER_CHECK(static_cast<index_t>(map.size()) >= layout.n,
                 "scatter: map scratch too small");
  std::fill(panels.begin(), panels.end(), 0.0);
  for (index_t s = 0; s < layout.nsuper(); ++s) {
    const index_t c1 = layout.sn.start[s];
    const index_t c2 = layout.sn.start[s + 1];
    const index_t m = layout.nrows(s);
    const index_t* rows = layout.srows.data() + layout.srow_ptr[s];
    for (index_t t = 0; t < m; ++t) map[rows[t]] = t;
    value_t* panel = panels.data() + layout.panel_ptr[s];
    for (index_t j = c1; j < c2; ++j) {
      value_t* col = panel + static_cast<std::int64_t>(j - c1) * m;
      for (index_t p = a_lower.col_begin(j); p < a_lower.col_end(j); ++p) {
        const index_t i = a_lower.rowind[p];
        if (i < j) continue;
        col[map[i]] = a_lower.values[p];
      }
    }
  }
}

void scatter_into_panels(const SupernodalLayout& layout,
                         const CscMatrix& a_lower,
                         std::span<value_t> panels) {
  std::vector<index_t> map(static_cast<std::size_t>(layout.n), 0);
  scatter_into_panels(layout, a_lower, panels, map);
}

namespace {

/// L's shape and colptr from the layout: column j of supernode s holds
/// nrows(s) - (j - c1) entries, so the output arrays can be sized once up
/// front instead of growing by push_back.
CscMatrix csc_shell(const SupernodalLayout& layout) {
  const index_t n = layout.n;
  CscMatrix l(n, n);
  l.colptr[0] = 0;
  for (index_t s = 0; s < layout.nsuper(); ++s) {
    const index_t c1 = layout.sn.start[s];
    const index_t c2 = layout.sn.start[s + 1];
    const index_t m = layout.nrows(s);
    for (index_t j = c1; j < c2; ++j)
      l.colptr[j + 1] = l.colptr[j] + (m - (j - c1));
  }
  l.rowind.resize(static_cast<std::size_t>(l.colptr[n]));
  return l;
}

}  // namespace

CscMatrix layout_pattern(const SupernodalLayout& layout) {
  CscMatrix l = csc_shell(layout);
  for (index_t s = 0; s < layout.nsuper(); ++s) {
    const index_t c1 = layout.sn.start[s];
    const index_t* rows = layout.srows.data() + layout.srow_ptr[s];
    const index_t* rows_end = layout.srows.data() + layout.srow_ptr[s + 1];
    for (index_t j = c1; j < layout.sn.start[s + 1]; ++j)
      std::copy(rows + (j - c1), rows_end, l.rowind.begin() + l.colptr[j]);
  }
  return l;
}

CscMatrix panels_to_csc(const SupernodalLayout& layout,
                        std::span<const value_t> panels) {
  CscMatrix l = csc_shell(layout);
  l.values.resize(l.rowind.size());
  index_t* li = l.rowind.data();
  value_t* lx = l.values.data();
  for (index_t s = 0; s < layout.nsuper(); ++s) {
    const index_t c1 = layout.sn.start[s];
    const index_t c2 = layout.sn.start[s + 1];
    const index_t m = layout.nrows(s);
    const index_t* rows = layout.srows.data() + layout.srow_ptr[s];
    const value_t* panel = panels.data() + layout.panel_ptr[s];
    for (index_t j = c1; j < c2; ++j) {
      const index_t local = j - c1;
      const value_t* col = panel + static_cast<std::int64_t>(local) * m;
      index_t* ldst = li + l.colptr[j];
      value_t* xdst = lx + l.colptr[j];
      for (index_t t = local; t < m; ++t) {
        *ldst++ = rows[t];
        *xdst++ = col[t];
      }
    }
  }
  return l;
}

index_t max_tail_rows(const SupernodalLayout& layout) {
  index_t max_tail = 0;
  for (index_t s = 0; s < layout.nsuper(); ++s)
    max_tail = std::max(max_tail, layout.nrows(s) - layout.width(s));
  return max_tail;
}

void panel_forward_solve(const SupernodalLayout& layout,
                         std::span<const value_t> panels, std::span<value_t> x,
                         std::span<value_t> scratch) {
  value_t* xs = scratch.data();  // gathered tail segment, plan-sized
  for (index_t s = 0; s < layout.nsuper(); ++s) {
    const index_t c1 = layout.sn.start[s];
    const index_t w = layout.width(s);
    const index_t m = layout.nrows(s);
    const index_t* rows = layout.srows.data() + layout.srow_ptr[s];
    const value_t* panel = panels.data() + layout.panel_ptr[s];
    blas::trsv_lower(w, panel, m, x.data() + c1);
    if (m > w) {
      std::fill(xs, xs + (m - w), 0.0);
      blas::gemv_minus(m - w, w, panel + w, m, x.data() + c1, xs);
      for (index_t t = w; t < m; ++t) x[rows[t]] += xs[t - w];
    }
  }
}

void panel_forward_solve(const SupernodalLayout& layout,
                         std::span<const value_t> panels,
                         std::span<value_t> x) {
  std::vector<value_t> scratch(
      static_cast<std::size_t>(max_tail_rows(layout)));
  panel_forward_solve(layout, panels, x, scratch);
}

void panel_backward_solve(const SupernodalLayout& layout,
                          std::span<const value_t> panels, std::span<value_t> x,
                          std::span<value_t> scratch) {
  value_t* xg = scratch.data();
  for (index_t s = layout.nsuper() - 1; s >= 0; --s) {
    const index_t c1 = layout.sn.start[s];
    const index_t w = layout.width(s);
    const index_t m = layout.nrows(s);
    const index_t* rows = layout.srows.data() + layout.srow_ptr[s];
    const value_t* panel = panels.data() + layout.panel_ptr[s];
    if (m > w) {
      for (index_t t = w; t < m; ++t) xg[t - w] = x[rows[t]];
      blas::gemv_trans_minus(m - w, w, panel + w, m, xg, x.data() + c1);
    }
    blas::trsv_lower_transpose(w, panel, m, x.data() + c1);
  }
}

void panel_backward_solve(const SupernodalLayout& layout,
                          std::span<const value_t> panels,
                          std::span<value_t> x) {
  std::vector<value_t> scratch(
      static_cast<std::size_t>(max_tail_rows(layout)));
  panel_backward_solve(layout, panels, x, scratch);
}

void panel_forward_solve_multi(const SupernodalLayout& layout,
                               std::span<const value_t> panels, value_t* xp,
                               index_t nrhs, index_t ldp, value_t* tail) {
  for (index_t s = 0; s < layout.nsuper(); ++s) {
    const index_t c1 = layout.sn.start[s];
    const index_t w = layout.width(s);
    const index_t m = layout.nrows(s);
    const index_t* rows = layout.srows.data() + layout.srow_ptr[s];
    const value_t* panel = panels.data() + layout.panel_ptr[s];
    blas::trsm_lower_multi(w, nrhs, panel, m, xp + c1 * ldp, ldp);
    if (m > w) {
      std::fill(tail, tail + static_cast<std::int64_t>(m - w) * ldp, 0.0);
      blas::gemm_minus_multi(m - w, w, nrhs, panel + w, m, xp + c1 * ldp, ldp,
                             tail, ldp);
      for (index_t t = w; t < m; ++t) {
        value_t* dst = xp + rows[t] * ldp;
        const value_t* src = tail + static_cast<std::int64_t>(t - w) * ldp;
        for (index_t r = 0; r < nrhs; ++r) dst[r] += src[r];
      }
    }
  }
}

void panel_backward_solve_multi(const SupernodalLayout& layout,
                                std::span<const value_t> panels, value_t* xp,
                                index_t nrhs, index_t ldp, value_t* tail) {
  for (index_t s = layout.nsuper() - 1; s >= 0; --s) {
    const index_t c1 = layout.sn.start[s];
    const index_t w = layout.width(s);
    const index_t m = layout.nrows(s);
    const index_t* rows = layout.srows.data() + layout.srow_ptr[s];
    const value_t* panel = panels.data() + layout.panel_ptr[s];
    if (m > w) {
      for (index_t t = w; t < m; ++t) {
        const value_t* src = xp + rows[t] * ldp;
        value_t* dst = tail + static_cast<std::int64_t>(t - w) * ldp;
        for (index_t r = 0; r < nrhs; ++r) dst[r] = src[r];
      }
      blas::gemm_trans_minus_multi(m - w, w, nrhs, panel + w, m, tail, ldp,
                                   xp + c1 * ldp, ldp);
    }
    blas::trsm_lower_transpose_multi(w, nrhs, panel, m, xp + c1 * ldp, ldp);
  }
}

SupernodalCholesky::SupernodalCholesky(const CscMatrix& a_lower,
                                       SupernodeOptions opt) {
  const SymbolicFactor sym = symbolic_cholesky(a_lower);
  SupernodePartition part =
      supernodes_cholesky(sym.parent, sym.colcount, opt);
  layout_ = SupernodalLayout::build(sym, std::move(part));
  panels_.resize(static_cast<std::size_t>(layout_.total_values()));
}

void SupernodalCholesky::factorize(const CscMatrix& a_lower) {
  // The paper (section 4.2) notes that the libraries' numeric phase still
  // computes the transpose of A (to reach upper-triangle entries) and
  // performs reach-style bookkeeping. We reproduce both: the transpose
  // below and the dynamic descendant linked lists in the main loop.
  const CscMatrix upper = transpose(a_lower);
  (void)upper;  // accessed only for parity with the library's numeric cost

  const index_t nsuper = layout_.nsuper();
  scatter_into_panels(layout_, a_lower, panels_);

  // Dynamic update discovery: head[s] is a linked list of descendant
  // supernodes whose next un-consumed row block lands in s; cursor[d] is
  // the position of that block in d's row list.
  std::vector<index_t> head(static_cast<std::size_t>(nsuper), -1);
  std::vector<index_t> list_next(static_cast<std::size_t>(nsuper), -1);
  std::vector<index_t> cursor(static_cast<std::size_t>(nsuper), 0);
  std::vector<index_t> map(static_cast<std::size_t>(layout_.n), 0);

  // Workspace for gather-GEMM-scatter updates: at most max(m) x max(w).
  index_t max_m = 0, max_w = 0;
  for (index_t s = 0; s < nsuper; ++s) {
    max_m = std::max(max_m, layout_.nrows(s));
    max_w = std::max(max_w, layout_.width(s));
  }
  std::vector<value_t> work(static_cast<std::size_t>(max_m) * max_w);

  for (index_t s = 0; s < nsuper; ++s) {
    const index_t c1 = layout_.sn.start[s];
    const index_t c2 = layout_.sn.start[s + 1];
    const index_t w = layout_.width(s);
    const index_t m = layout_.nrows(s);
    const index_t* rows = layout_.srows.data() + layout_.srow_ptr[s];
    value_t* panel = panels_.data() + layout_.panel_ptr[s];
    for (index_t t = 0; t < m; ++t) map[rows[t]] = t;

    // Drain the dynamic descendant list of s.
    index_t d = head[s];
    head[s] = -1;
    while (d != -1) {
      const index_t d_next = list_next[d];
      const index_t* drows = layout_.srows.data() + layout_.srow_ptr[d];
      const index_t dm = layout_.nrows(d);
      const index_t dw = layout_.width(d);
      const value_t* dpanel = panels_.data() + layout_.panel_ptr[d];
      const index_t p1 = cursor[d];
      index_t p2 = p1;
      while (p2 < dm && drows[p2] < c2) ++p2;
      // Update block: C(mu x nu) = Ld[p1..dm) * Ld[p1..p2)^T.
      const index_t mu = dm - p1;
      const index_t nu = p2 - p1;
      value_t* cwork = work.data();
      std::fill(cwork, cwork + static_cast<std::int64_t>(mu) * nu, 0.0);
      blas::gemm_nt_minus(mu, nu, dw, dpanel + p1, dm, dpanel + p1, dm,
                          cwork, mu);
      // Scatter-subtract: C is "minus the update", so add it in.
      for (index_t cjj = 0; cjj < nu; ++cjj) {
        const index_t gcol = drows[p1 + cjj];  // in [c1, c2)
        value_t* dst = panel + static_cast<std::int64_t>(gcol - c1) * m;
        const value_t* src = cwork + static_cast<std::int64_t>(cjj) * mu;
        for (index_t r = cjj; r < mu; ++r) dst[map[drows[p1 + r]]] += src[r];
      }
      // Re-queue d for its next target supernode.
      if (p2 < dm) {
        cursor[d] = p2;
        const index_t target = layout_.sn.col_to_super[drows[p2]];
        list_next[d] = head[target];
        head[target] = d;
      }
      d = d_next;
    }

    // Dense factorization of the diagonal block + panel solve.
    blas::potrf_lower(w, panel, m);
    if (m > w)
      blas::trsm_right_lower_trans(m - w, w, panel, m, panel + w, m);

    // Queue s for its first ancestor target.
    if (m > w) {
      cursor[s] = w;
      const index_t target = layout_.sn.col_to_super[rows[w]];
      list_next[s] = head[target];
      head[target] = s;
    }
    (void)c1;
  }
  factorized_ = true;
}

void SupernodalCholesky::solve(std::span<value_t> bx) const {
  SYMPILER_CHECK(factorized_, "solve() before factorize()");
  SYMPILER_CHECK(static_cast<index_t>(bx.size()) == layout_.n,
                 "solve: size mismatch");
  panel_forward_solve(layout_, panels_, bx);
  panel_backward_solve(layout_, panels_, bx);
}

}  // namespace sympiler::solvers
