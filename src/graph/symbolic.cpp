#include "graph/symbolic.h"

#include <algorithm>
#include <limits>
#include <string>

#ifdef SYMPILER_HAS_OPENMP
#include <omp.h>
#endif

#include "graph/etree.h"
#include "sparse/ops.h"

namespace sympiler {

ERreach::ERreach(const CscMatrix& a_lower, std::span<const index_t> parent)
    : upper_(transpose(a_lower)),
      parent_(parent.begin(), parent.end()),
      mark_(static_cast<std::size_t>(a_lower.cols()), -1) {
  SYMPILER_CHECK(a_lower.rows() == a_lower.cols(), "ereach: not square");
  SYMPILER_CHECK(parent.size() == static_cast<std::size_t>(a_lower.cols()),
                 "ereach: parent size mismatch");
}

std::span<const index_t> ERreach::row_pattern(index_t i) {
  out_.clear();
  ++stamp_;
  mark_[i] = stamp_;  // never include the diagonal
  for (index_t p = upper_.col_begin(i); p < upper_.col_end(i); ++p) {
    const index_t j = upper_.rowind[p];  // A(i, j) != 0, j <= i
    if (j == i) continue;
    // Climb the etree from j towards i (the first marked node), collecting
    // unmarked nodes. Every collected column k satisfies L(i,k) != 0.
    stack_.clear();
    index_t v = j;
    while (v != -1 && v < i && mark_[v] != stamp_) {
      stack_.push_back(v);
      mark_[v] = stamp_;
      v = parent_[v];
    }
    for (const index_t k : stack_) out_.push_back(k);
  }
  // out_ currently holds paths ordered root-ward; sort ascending to get the
  // elimination (topological) order. Paths are disjoint ascending chains;
  // ascending column order is a valid topological order for row updates.
  std::sort(out_.begin(), out_.end());
  return {out_.data(), out_.size()};
}

std::vector<index_t> cholesky_counts(const CscMatrix& a_lower,
                                     std::span<const index_t> parent,
                                     std::span<const index_t> post) {
  const index_t n = a_lower.cols();
  SYMPILER_CHECK(parent.size() == static_cast<std::size_t>(n) &&
                     post.size() == static_cast<std::size_t>(n),
                 "cholesky_counts: parent/post size mismatch");
  // delta[j]: this column's own contribution before the up-tree
  // accumulation; leaves start at 1 (their diagonal), every skeleton entry
  // adds 1, each child and each leaf-overlap LCA subtracts 1.
  std::vector<index_t> delta(static_cast<std::size_t>(n), 0);
  std::vector<index_t> first(static_cast<std::size_t>(n), -1);
  std::vector<index_t> maxfirst(static_cast<std::size_t>(n), -1);
  std::vector<index_t> prevleaf(static_cast<std::size_t>(n), -1);
  std::vector<index_t> ancestor(static_cast<std::size_t>(n));
  // first[j] = postorder rank of j's first (deepest-leftmost) descendant.
  for (index_t k = 0; k < n; ++k) {
    index_t j = post[k];
    delta[j] = first[j] == -1 ? 1 : 0;  // j is a leaf of the etree
    for (; j != -1 && first[j] == -1; j = parent[j]) first[j] = k;
  }
  for (index_t v = 0; v < n; ++v) ancestor[v] = v;
  for (index_t k = 0; k < n; ++k) {
    const index_t j = post[k];
    if (parent[j] != -1) --delta[parent[j]];  // j passes its count up later
    for (index_t p = a_lower.col_begin(j); p < a_lower.col_end(j); ++p) {
      const index_t i = a_lower.rowind[p];
      if (i <= j) continue;  // diagonal: no skeleton edge
      // Leaf test (GNP Lemma): A(i, j) is a skeleton entry iff j's subtree
      // is disjoint from everything row i has seen so far.
      if (first[j] <= maxfirst[i]) continue;
      maxfirst[i] = first[j];
      const index_t jprev = prevleaf[i];
      prevleaf[i] = j;
      ++delta[j];
      if (jprev == -1) continue;  // first leaf of row i's subtree
      // Subsequent leaf: the paths from jprev and j overlap above their
      // LCA; subtract the double count there. Path-compressed union-find.
      index_t q = jprev;
      while (q != ancestor[q]) q = ancestor[q];
      for (index_t s = jprev; s != q;) {
        const index_t s_next = ancestor[s];
        ancestor[s] = q;
        s = s_next;
      }
      --delta[q];
    }
    if (parent[j] != -1) ancestor[j] = parent[j];
  }
  // Accumulate child deltas up the tree; parent[j] > j makes the forward
  // sweep see every child's final count before its parent needs it.
  std::vector<index_t> colcount(delta);
  for (index_t j = 0; j < n; ++j)
    if (parent[j] != -1) colcount[parent[j]] += colcount[j];
  return colcount;
}

std::int64_t checked_fill_nnz(std::span<const index_t> colcount) {
  std::int64_t nnz = 0;
  for (const index_t c : colcount) nnz += c;
  if (nnz > std::numeric_limits<index_t>::max())
    throw resource_exhausted_error(
        "symbolic: nnz(L) = " + std::to_string(nnz) +
        " exceeds the index type's range (" +
        std::to_string(std::numeric_limits<index_t>::max()) +
        "); reorder the matrix to reduce fill");
  return nnz;
}

CscMatrix cholesky_fill_pattern(const CscMatrix& upper,
                                std::span<const index_t> parent,
                                std::span<const index_t> colcount,
                                bool with_values,
                                std::vector<index_t>* row_offdiag) {
  const index_t n = upper.cols();
  SYMPILER_CHECK(parent.size() == static_cast<std::size_t>(n) &&
                     colcount.size() == static_cast<std::size_t>(n),
                 "cholesky_fill_pattern: size mismatch");
  const auto nnz = static_cast<std::size_t>(checked_fill_nnz(colcount));
  CscMatrix lp(n, n);
  lp.colptr[0] = 0;
  for (index_t j = 0; j < n; ++j)
    lp.colptr[j + 1] = lp.colptr[j] + colcount[j];
  lp.rowind.assign(nnz, 0);
  if (with_values) lp.values.assign(nnz, 0.0);
  if (row_offdiag != nullptr)
    row_offdiag->assign(static_cast<std::size_t>(n), 0);

#ifdef SYMPILER_HAS_OPENMP
  // Parallel fused sweep: the serial loop below writes column v's rows in
  // ascending row order — a pure pattern property — so contiguous row
  // chunks can count (pass 1), prefix-sum per-column write cursors, and
  // write (pass 2) independently, producing the byte-identical arrays.
  // Each chunk re-climbs the etree in pass 2; stamps are globally unique
  // row ids (pass 2 offsets them by n), so one mark array per thread
  // serves every chunk and both passes without resets.
  const auto nchunks = static_cast<index_t>(omp_get_max_threads());
  constexpr index_t kParallelFillMinCols = 2048;
  if (nchunks > 1 && n >= kParallelFillMinCols) {
    const index_t chunk = (n + nchunks - 1) / nchunks;
    std::vector<index_t> counts(static_cast<std::size_t>(nchunks) * n, 0);
#pragma omp parallel
    {
      std::vector<index_t> mark(static_cast<std::size_t>(n), -1);
#pragma omp for schedule(static, 1)
      for (index_t c = 0; c < nchunks; ++c) {
        index_t* cnt = counts.data() + static_cast<std::size_t>(c) * n;
        const index_t r1 = std::min(n, (c + 1) * chunk);
        for (index_t i = c * chunk; i < r1; ++i) {
          mark[i] = i;
          index_t emitted = 0;
          for (index_t p = upper.col_begin(i); p < upper.col_end(i); ++p)
            for (index_t v = upper.rowind[p];
                 v != -1 && v < i && mark[v] != i; v = parent[v]) {
              mark[v] = i;
              ++cnt[v];
              ++emitted;
            }
          if (row_offdiag != nullptr) (*row_offdiag)[i] = emitted;
        }
      }
      // Turn per-chunk counts into write cursors: chunk c's rows of column
      // v start after the diagonal plus every earlier chunk's rows —
      // exactly where the ascending serial sweep would put them.
#pragma omp for schedule(static)
      for (index_t v = 0; v < n; ++v) {
        index_t cur = lp.colptr[v] + 1;
        for (index_t c = 0; c < nchunks; ++c) {
          const index_t cc = counts[static_cast<std::size_t>(c) * n + v];
          counts[static_cast<std::size_t>(c) * n + v] = cur;
          cur += cc;
        }
        lp.rowind[lp.colptr[v]] = v;  // diagonal of column v first
      }
#pragma omp for schedule(static, 1)
      for (index_t c = 0; c < nchunks; ++c) {
        index_t* cursor = counts.data() + static_cast<std::size_t>(c) * n;
        const index_t r1 = std::min(n, (c + 1) * chunk);
        for (index_t i = c * chunk; i < r1; ++i) {
          const index_t tag = i + n;  // distinct from this row's pass-1 stamp
          mark[i] = tag;
          for (index_t p = upper.col_begin(i); p < upper.col_end(i); ++p)
            for (index_t v = upper.rowind[p];
                 v != -1 && v < i && mark[v] != tag; v = parent[v]) {
              mark[v] = tag;
              lp.rowind[cursor[v]++] = i;
            }
        }
      }
    }
    return lp;
  }
#endif
  std::vector<index_t> next(lp.colptr.begin(), lp.colptr.end() - 1);
  std::vector<index_t> mark(static_cast<std::size_t>(n), -1);
  for (index_t i = 0; i < n; ++i) {
    lp.rowind[next[i]++] = i;  // diagonal of column i first
    mark[i] = i;               // row stamp; never re-collect the diagonal
    index_t emitted = 0;
    for (index_t p = upper.col_begin(i); p < upper.col_end(i); ++p) {
      // Climb the etree from j towards i, emitting row i into every column
      // on the unvisited part of the path: exactly ereach(i), written at
      // its final position. Ascending i keeps each column's rows sorted.
      for (index_t v = upper.rowind[p]; v != -1 && v < i && mark[v] != i;
           v = parent[v]) {
        mark[v] = i;
        lp.rowind[next[v]++] = i;
        ++emitted;
      }
    }
    if (row_offdiag != nullptr) (*row_offdiag)[i] = emitted;
  }
  return lp;
}

namespace {

SymbolicFactor symbolic_cholesky_fused(const CscMatrix& a_lower,
                                       const CscMatrix& upper) {
  const index_t n = a_lower.cols();
  SYMPILER_CHECK(a_lower.rows() == n, "symbolic_cholesky: not square");
  SYMPILER_CHECK(a_lower.is_lower_triangular(),
                 "symbolic_cholesky: input must be the lower triangle");
  SymbolicFactor s;
  s.parent = elimination_tree_from_upper(upper);
  const std::vector<index_t> post = postorder(s.parent);
  s.colcount = cholesky_counts(a_lower, s.parent, post);
  s.l_pattern = cholesky_fill_pattern(upper, s.parent, s.colcount);
  s.fill_nnz = s.l_pattern.colptr[n];
  for (index_t j = 0; j < n; ++j) {
    const double cc = s.colcount[j];
    s.flops += cc * cc;  // cc divisions + (cc^2 - cc) mul/add, ~cc^2
  }
  return s;
}

}  // namespace

SymbolicFactor symbolic_cholesky(const CscMatrix& a_lower) {
  return symbolic_cholesky_fused(a_lower, transpose(a_lower));
}

SymbolicFactor symbolic_cholesky(const CscMatrix& a_lower,
                                 const CscMatrix& upper) {
  SYMPILER_CHECK(upper.cols() == a_lower.rows() &&
                     upper.rows() == a_lower.cols() &&
                     upper.nnz() == a_lower.nnz(),
                 "symbolic_cholesky: upper is not transpose(a_lower)");
  return symbolic_cholesky_fused(a_lower, upper);
}

SymbolicFactor symbolic_cholesky_naive(const CscMatrix& a_lower) {
  const index_t n = a_lower.cols();
  SYMPILER_CHECK(a_lower.rows() == n, "symbolic_cholesky: not square");
  SYMPILER_CHECK(a_lower.is_lower_triangular(),
                 "symbolic_cholesky: input must be the lower triangle");
  SymbolicFactor s;
  s.parent = elimination_tree(a_lower);
  s.colcount.assign(static_cast<std::size_t>(n), 1);  // diagonals
  ERreach er(a_lower, s.parent);

  // Pass 1: column counts. L(i,j) != 0 (i > j) iff j in ereach(i).
  for (index_t i = 0; i < n; ++i)
    for (const index_t j : er.row_pattern(i)) ++s.colcount[j];

  // Allocate the pattern.
  (void)checked_fill_nnz(s.colcount);
  s.l_pattern = CscMatrix(n, n);
  s.l_pattern.colptr[0] = 0;
  for (index_t j = 0; j < n; ++j)
    s.l_pattern.colptr[j + 1] = s.l_pattern.colptr[j] + s.colcount[j];
  s.fill_nnz = s.l_pattern.colptr[n];
  s.l_pattern.rowind.assign(static_cast<std::size_t>(s.fill_nnz), 0);
  s.l_pattern.values.assign(static_cast<std::size_t>(s.fill_nnz), 0.0);

  // Pass 2: fill row indices. Row i contributes the diagonal of column i
  // plus one entry per ereach column; visiting i in ascending order emits
  // each column's rows already sorted.
  std::vector<index_t> next(s.l_pattern.colptr.begin(),
                            s.l_pattern.colptr.end() - 1);
  for (index_t i = 0; i < n; ++i) {
    s.l_pattern.rowind[next[i]++] = i;  // diagonal first
    for (const index_t j : er.row_pattern(i))
      s.l_pattern.rowind[next[j]++] = i;
  }

  for (index_t j = 0; j < n; ++j) {
    const double cc = s.colcount[j];
    s.flops += cc * cc;  // cc divisions + (cc^2 - cc) mul/add, ~cc^2
  }
  return s;
}

CscMatrix symbolic_cholesky_reference(const CscMatrix& a_lower) {
  const index_t n = a_lower.cols();
  const std::vector<index_t> parent = elimination_tree(a_lower);
  const ChildLists cl = build_child_lists(parent);
  // Column patterns built in order; Eq. 1: Lj = Aj  U {j}  U ( U_{T(s)=j}
  // Ls \ {s} ).
  std::vector<std::vector<index_t>> cols(static_cast<std::size_t>(n));
  std::vector<char> mark(static_cast<std::size_t>(n), 0);
  for (index_t j = 0; j < n; ++j) {
    std::vector<index_t>& col = cols[j];
    col.push_back(j);
    mark[j] = 1;
    for (index_t p = a_lower.col_begin(j); p < a_lower.col_end(j); ++p) {
      const index_t i = a_lower.rowind[p];
      if (!mark[i]) {
        mark[i] = 1;
        col.push_back(i);
      }
    }
    for (index_t c = cl.head[j]; c != -1; c = cl.next[c]) {
      for (const index_t i : cols[c]) {
        if (i == c) continue;  // Ls \ {s}
        if (!mark[i]) {
          mark[i] = 1;
          col.push_back(i);
        }
      }
    }
    std::sort(col.begin(), col.end());
    for (const index_t i : col) mark[i] = 0;
  }
  CscMatrix l(n, n);
  for (index_t j = 0; j < n; ++j) {
    for (const index_t i : cols[j]) {
      l.rowind.push_back(i);
      l.values.push_back(0.0);
    }
    l.colptr[j + 1] = static_cast<index_t>(l.rowind.size());
  }
  return l;
}

}  // namespace sympiler
