// Bench-side input generation. Patterns come from the library's gen::
// generators; everything that varies with --seed (values, RHS columns,
// drift edits) is derived here, so the library only ever receives
// matrices and right-hand sides.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_set>
#include <vector>

#include "sparse/csc.h"
#include "util/common.h"

namespace perfbench {

using sympiler::CscMatrix;
using sympiler::index_t;
using sympiler::value_t;

/// splitmix64: a small, fully specified generator, so a seed names the
/// same inputs on every platform and standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n).
  index_t below(index_t n) {
    return static_cast<index_t>(next() % static_cast<std::uint64_t>(n));
  }

 private:
  std::uint64_t state_;
};

/// A named sparsity pattern of the benchmark, as the lower triangle of an
/// SPD matrix built by a gen:: generator.
struct Pattern {
  std::string name;
  CscMatrix a;
};

/// The recurring Table-2 patterns of newton_refactor, multi_rhs_solve and
/// restart_load: supernodal ND/block meshes plus natural-order strips,
/// which the Planner routes to the simplicial path. `smoke` shrinks every
/// pattern so the whole workload runs in well under a second.
[[nodiscard]] std::vector<Pattern> recurring_patterns(bool smoke);
/// Patterns of restart_load: those the store's persistence gate accepts
/// with a wide margin (supernodal, or under the always-persist floor).
[[nodiscard]] std::vector<Pattern> restart_patterns(bool smoke);
/// Base patterns of the two pattern_drift streams: a banded natural-order
/// strip (simplicial) and an ND mesh (supernodal).
[[nodiscard]] std::vector<Pattern> drift_patterns(bool smoke);

/// Same pattern, new values: every off-diagonal scaled by a factor in
/// [0.5, 1.5), every diagonal set to 1.05-1.25x the absolute sum of its
/// row's off-diagonals (plus 1e-3). Strict diagonal dominance keeps the
/// matrix SPD for any seed.
[[nodiscard]] CscMatrix reseed_values(const CscMatrix& a_lower,
                                      std::uint64_t seed);

/// Dense right-hand side with entries in [-1, 1).
[[nodiscard]] std::vector<value_t> dense_vector(index_t n, std::uint64_t seed);

/// Added entries a DriftEditor keeps before it drops the oldest.
inline constexpr std::size_t kDriftWindow = 8;

/// Sliding-window pattern editor of pattern_drift. Each step() adds one
/// off-diagonal entry between two vertices at distance two in the graph of
/// the base matrix (a wider stencil, so fill stays local) and, once the
/// window holds kDriftWindow added entries, drops the oldest. An entry is
/// never added twice, so every emitted pattern contains an entry no earlier
/// pattern had: every step's pattern is new to the plan cache. Added
/// entries raise both touched diagonals by their magnitude, which keeps the
/// base matrix's strict diagonal dominance.
class DriftEditor {
 public:
  DriftEditor(CscMatrix base, std::uint64_t seed);

  /// Advance one edit and return the edited matrix.
  [[nodiscard]] CscMatrix step();

  [[nodiscard]] const CscMatrix& base() const { return base_; }

 private:
  struct Edit {
    index_t row;  ///< row > col: a strictly lower entry
    index_t col;
    value_t value;
  };
  [[nodiscard]] bool present(index_t row, index_t col) const;

  CscMatrix base_;
  CscMatrix full_;  ///< symmetric structure of base_ (neighbour lists)
  Rng rng_;
  std::deque<Edit> edits_;
  std::unordered_set<std::uint64_t> used_;
};

}  // namespace perfbench
