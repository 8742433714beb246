// Tests of the benchmark's own helpers and checks: every check must pass
// on a correct result and fail on a bad one.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <unistd.h>

#include "alloc_counter.h"
#include "api/solver.h"
#include "checks.h"
#include "core/plan_store.h"
#include "core/planner.h"
#include "gen/generators.h"
#include "inputs.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace api = sympiler::api;
namespace gen = sympiler::gen;

CscMatrix small_spd() {
  return reseed_values(gen::grid2d_laplacian(8, 8), 7);
}

TEST(Stats, MinMedianGeomeanQuantile) {
  EXPECT_DOUBLE_EQ(minimum({3.0, 1.0, 2.0}), 1.0);
  EXPECT_DOUBLE_EQ(minimum({}), 0.0);
  EXPECT_DOUBLE_EQ(median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_NEAR(geomean({1.0, 4.0, 16.0}), 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 0.9), 10.0);
  EXPECT_DOUBLE_EQ(quantile({7.0}, 0.9), 7.0);
}

TEST(Stats, CombineTakesGeomeanOfPerGroupStatistic) {
  const std::vector<std::vector<double>> groups = {{2.0, 8.0, 4.0}, {}, {9.0, 1.0, 100.0}};
  // Medians 4 and 9 (the empty group is skipped): geomean 6.
  EXPECT_NEAR(combine(groups, [](const std::vector<double>& g) { return median(g); }), 6.0, 1e-12);
  // Minima 2 and 1: geomean sqrt(2).
  EXPECT_NEAR(combine(groups, minimum), std::sqrt(2.0), 1e-12);
}

TEST(Inputs, ReseedKeepsPatternAndDiagonalDominance) {
  const CscMatrix base = gen::block_structural(6, 6, 3, 1);
  const CscMatrix a = reseed_values(base, 42);
  EXPECT_TRUE(a.same_pattern(base));
  EXPECT_FALSE(a.equals(reseed_values(base, 43)));
  EXPECT_TRUE(a.equals(reseed_values(base, 42)));
  std::vector<double> off(static_cast<std::size_t>(a.cols()), 0.0);
  for (index_t j = 0; j < a.cols(); ++j)
    for (index_t p = a.col_begin(j) + 1; p < a.col_end(j); ++p) {
      off[a.rowind[p]] += std::abs(a.values[p]);
      off[j] += std::abs(a.values[p]);
    }
  for (index_t j = 0; j < a.cols(); ++j)
    EXPECT_GT(a.values[a.col_begin(j)], off[j]);
}

TEST(Inputs, DriftPatternsAreAllNewAndFactor) {
  DriftEditor editor(small_spd(), 5);
  const sympiler::core::Planner planner;
  std::set<std::pair<std::uint64_t, std::uint64_t>> keys;
  const auto base_key = planner.cholesky_key(editor.base());
  keys.insert({base_key.structure_hash, base_key.structure_hash2});
  auto ctx = std::make_shared<api::SymbolicContext>();
  api::Solver solver({}, ctx);
  for (int i = 0; i < 40; ++i) {
    const CscMatrix a = editor.step();
    a.validate();
    EXPECT_LE(a.nnz(), editor.base().nnz() + kDriftWindow);
    const auto key = planner.cholesky_key(a);
    EXPECT_TRUE(keys.insert({key.structure_hash, key.structure_hash2}).second)
        << "step " << i << " repeated a pattern";
    solver.factor(a);
    std::vector<value_t> b = dense_vector(a.cols(), i), x = b;
    solver.solve(x);
    EXPECT_TRUE(check_solve(a, b, x).ok);
  }
}

TEST(Checks, SolveResidualCatchesAPerturbedEntry) {
  const CscMatrix a = small_spd();
  api::Solver solver({}, std::make_shared<api::SymbolicContext>());
  solver.factor(a);
  const std::vector<value_t> b = dense_vector(a.cols(), 3);
  std::vector<value_t> x = b;
  solver.solve(x);
  EXPECT_TRUE(check_solve(a, b, x).ok);
  x[17] *= 1.0 + 1e-6;
  EXPECT_FALSE(check_solve(a, b, x).ok);
  x[17] = std::nan("");
  EXPECT_FALSE(check_solve(a, b, x).ok);
}

TEST(Checks, TrisolveResidualCatchesAPerturbedEntry) {
  const CscMatrix a = small_spd();
  api::Solver solver({}, std::make_shared<api::SymbolicContext>());
  solver.factor(a);
  const CscMatrix l = solver.factor_csc();
  const std::vector<value_t> b = gen::rhs_from_column(a, 10, 1);
  std::vector<index_t> beta;
  for (index_t i = 0; i < a.cols(); ++i)
    if (b[static_cast<std::size_t>(i)] != 0.0) beta.push_back(i);
  api::TriangularSolver tri(l, beta, {}, std::make_shared<api::SymbolicContext>());
  std::vector<value_t> x = b;
  tri.solve(x);
  EXPECT_TRUE(check_trisolve(l, b, x).ok);
  x[beta.back()] += 1e-3;
  EXPECT_FALSE(check_trisolve(l, b, x).ok);
}

TEST(Checks, IdenticalCatchesOneBit) {
  const std::vector<value_t> a = {1.0, 2.0, 3.0};
  std::vector<value_t> b = a;
  EXPECT_TRUE(check_identical(a, b, "x").ok);
  b[1] = std::nextafter(b[1], 10.0);
  EXPECT_FALSE(check_identical(a, b, "x").ok);
  EXPECT_FALSE(check_identical(a, std::vector<value_t>{1.0, 2.0}, "x").ok);
}

TEST(Checks, FactorDigestCatchesOneBit) {
  const CscMatrix a = small_spd();
  api::Solver solver({}, std::make_shared<api::SymbolicContext>());
  solver.factor(a);
  CscMatrix l = solver.factor_csc();
  const std::uint64_t d = factor_digest(l);
  EXPECT_EQ(d, factor_digest(solver.factor_csc()));
  l.values[5] = std::nextafter(l.values[5], 0.0);
  EXPECT_NE(d, factor_digest(l));
}

TEST(Checks, RestartThatReplannedFails) {
  const std::string dir = (std::filesystem::temp_directory_path() /
                           ("perfbench-test-" + std::to_string(::getpid())))
                              .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  api::SolverConfig config;
  config.options.plan_store_dir = dir;
  const CscMatrix a = small_spd();
  {
    // Empty store: the first process plans, so its op is not a restart.
    api::Solver first(config, std::make_shared<api::SymbolicContext>());
    first.factor(a);
    EXPECT_FALSE(check_store_loaded(first.report()).ok);
    sympiler::core::PlanStore::open(dir)->flush();
  }
  api::Solver second(config, std::make_shared<api::SymbolicContext>());
  second.factor(a);
  EXPECT_TRUE(check_store_loaded(second.report()).ok);
  std::filesystem::remove_all(dir);
}

TEST(Checks, DriftOpThatHitTheCacheFails) {
  auto ctx = std::make_shared<api::SymbolicContext>();
  api::Solver a_solver({}, ctx), b_solver({}, ctx);
  const CscMatrix a = small_spd();
  auto before = ctx->cholesky_cache().stats();
  a_solver.factor(a);
  EXPECT_TRUE(check_drift_miss(before, ctx->cholesky_cache().stats()).ok);
  before = ctx->cholesky_cache().stats();
  b_solver.factor(a);  // same pattern: served from the cache
  EXPECT_FALSE(check_drift_miss(before, ctx->cholesky_cache().stats()).ok);
}

TEST(AllocCounter, CountsOperatorNew) {
  const std::uint64_t before = allocation_count();
  auto p = std::make_unique<int>(3);
  EXPECT_GE(allocation_count(), before + 1);
}

TEST(Tracer, SelfTimeMovesRecordedTimeToItsLayer) {
  Tracer t;
  t.set_op(0, 0);
  {
    Tracer::Scope outer(&t, "api.factor");
    {
      Tracer::Scope plan(&t, "core.planner.plan");
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      t.record("graph.etree", 0.015);
    }
    Tracer::Scope inner(&t, "solvers.factor.supernodal");
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(t.op_seconds(0), 0.030);
  std::map<std::string, double> self;
  for (const auto& [layer, s] : t.layer_self_seconds()) self[layer] = s;
  EXPECT_GE(self["api"], 0.0);
  EXPECT_LT(self["api"], 0.005);
  EXPECT_DOUBLE_EQ(self["graph"], 0.015);
  EXPECT_GE(self["core.planner"], 0.005);
  EXPECT_GE(self["solvers"], 0.010);
  EXPECT_EQ(t.values("graph.etree", 1)[0], std::vector<double>{0.015});
  EXPECT_EQ(t.durations("core.planner.plan", 1)[0].size(), 1u);
  Tracer null_safe;
  Tracer::Scope nothing(nullptr, "api.factor");
  EXPECT_EQ(null_safe.size(), 0u);
}

}  // namespace
}  // namespace perfbench
