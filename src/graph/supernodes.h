// Supernode detection — the paper's VS-Block block-sets (Table 1).
//
// Two inspection strategies are implemented, matching the paper:
//  * Cholesky: etree + column counts ("up-traversal"). Columns j-1, j merge
//    when colcount(j-1) == colcount(j) + 1 (equal ignoring the diagonal of
//    j-1) and j-1 is the only child of j in the etree (paper section 3.2).
//  * Triangular solve: node equivalence on DG_L. Consecutive columns merge
//    when the off-diagonal pattern of column j-1 equals the full pattern of
//    column j (outgoing edges go to the same destinations, paper 3.1).
#pragma once

#include <span>
#include <vector>

#include "sparse/csc.h"
#include "util/common.h"

namespace sympiler {

/// A partition of columns 0..n-1 into contiguous supernodes.
struct SupernodePartition {
  /// start[s]..start[s+1]-1 are the columns of supernode s; size nsuper+1.
  std::vector<index_t> start;
  /// column -> owning supernode; size n.
  std::vector<index_t> col_to_super;

  [[nodiscard]] index_t count() const {
    return static_cast<index_t>(start.size()) - 1;
  }
  [[nodiscard]] index_t width(index_t s) const {
    return start[s + 1] - start[s];
  }
  /// Mean supernode width in columns (paper's VS-Block threshold input
  /// is derived from participating supernode sizes).
  [[nodiscard]] double average_width() const;
  /// Mean width over supernodes of width >= 2 (the "participating" ones);
  /// 0 if none.
  [[nodiscard]] double average_width_participating() const;

  /// Check the partition tiles [0, n) contiguously.
  [[nodiscard]] bool valid(index_t n) const;

  /// Heap bytes of the partition arrays (plan-size accounting).
  [[nodiscard]] std::size_t bytes() const {
    return (start.size() + col_to_super.size()) * sizeof(index_t);
  }
};

/// Options controlling supernode formation.
struct SupernodeOptions {
  index_t max_width = 256;  ///< cap panel width to bound temp storage
  /// Relaxed amalgamation (extension; the paper runs with this OFF):
  /// allow merging j into the current supernode if the number of extra
  /// fill entries introduced stays within relax_ratio of the panel.
  bool relax = false;
  double relax_ratio = 0.2;
};

/// Cholesky strategy: fundamental supernodes from the etree + colcounts.
[[nodiscard]] SupernodePartition supernodes_cholesky(
    std::span<const index_t> parent, std::span<const index_t> colcount,
    const SupernodeOptions& opt = {});

/// Triangular-solve strategy: node equivalence on DG_L of a given factor L.
[[nodiscard]] SupernodePartition supernodes_node_equivalence(
    const CscMatrix& l, const SupernodeOptions& opt = {});

/// Verify the supernodal invariant against an explicit L pattern: within a
/// supernode the diagonal block is full lower-triangular and all columns
/// share the same below-block row set.
[[nodiscard]] bool supernodes_consistent(const SupernodePartition& sn,
                                         const CscMatrix& l_pattern);

/// Supernodal elimination forest: parent supernode of s is the supernode
/// owning etree-parent of s's last column (-1 for roots). Input `parent`
/// is the column etree.
[[nodiscard]] std::vector<index_t> supernode_etree(
    const SupernodePartition& sn, std::span<const index_t> parent);

/// Row lists of the supernodes of L: rows[ptr[s]..ptr[s+1]) is the
/// pattern of supernode s's first column, ascending — its own columns
/// (the dense diagonal block) first, then the rows below the block.
struct SupernodeRows {
  std::vector<index_t> ptr;   ///< nsuper + 1
  std::vector<index_t> rows;
};

/// Fill the row list of every supernode straight from `upper` =
/// transpose(A lower), without the column pattern of L. Row i of L reaches
/// the columns on the etree paths from each A(i, j), j < i, up to i; at
/// supernode granularity that is one climb of the supernodal etree per
/// entry, stopping at i's own supernode or at one already stamped for i.
/// Ascending i keeps every list sorted, and each list is presized from
/// colcount[first column]. O(|A| + |rows|) time, against O(|A| + |L|) for
/// filling every column. `sn` must be fundamental (supernodes_cholesky
/// output) for `parent` and `colcount`.
[[nodiscard]] SupernodeRows supernodal_fill_pattern(
    const CscMatrix& upper, std::span<const index_t> parent,
    std::span<const index_t> colcount, const SupernodePartition& sn);

}  // namespace sympiler
