#include "workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <stdexcept>
#include <utility>

#include "alloc_counter.h"
#include "api/solver.h"
#include "checks.h"
#include "core/plan_store.h"
#include "core/planner.h"
#include "gen/generators.h"
#include "inputs.h"
#include "stats.h"
#include "trace.h"
#include "verify/verify.h"

namespace perfbench {
namespace {

namespace api = sympiler::api;
namespace core = sympiler::core;
using sympiler::CacheStats;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// RHS count of every solve_batch op (and of the sweep's).
constexpr index_t kBatchRhs = 16;
/// Sparse right-hand sides per trisolve op, each patterned on a column.
constexpr int kTrisolveColumns = 8;
/// Value sets cycled through by the refactor ops of a pattern.
constexpr int kValueSets = 4;
/// Set-ups per untraced run, spread over it; setup_s is their median.
constexpr int kSetups = 7;
/// Resident-key lookups per group in the traced run's sweep.
constexpr int kSweepLookups = 64;
/// Byte budget of the replay's own context in pattern_drift: it only has
/// to hold the plan of the op being replayed.
constexpr std::size_t kReplayBudget = std::size_t{64} << 20;
/// Byte budget of pattern_drift's context in smoke runs, whose small plans
/// would take thousands of ops to fill the default budget.
constexpr std::size_t kSmokeBudget = std::size_t{1} << 20;

/// Default facade configuration: what a user gets without tuning.
const api::SolverConfig& default_config() {
  static const api::SolverConfig config{};
  return config;
}

/// Times facade windows and counts the allocations made inside them.
class Stopwatch {
 public:
  void start() {
    allocs0_ = allocation_count();
    t0_ = Clock::now();
  }
  void stop() {
    seconds_ += seconds_since(t0_);
    allocs_ += allocation_count() - allocs0_;
  }
  [[nodiscard]] double seconds() const { return seconds_; }
  [[nodiscard]] std::uint64_t allocs() const { return allocs_; }

 private:
  Clock::time_point t0_;
  std::uint64_t allocs0_ = 0;
  double seconds_ = 0.0;
  std::uint64_t allocs_ = 0;
};

struct OpResult {
  double seconds = 0.0;     ///< facade time of the op
  std::uint64_t allocs = 0;  ///< allocations inside the facade calls
  Check check;
};

/// What the traced run's sweep needs of a group: its matrix and a factored
/// replay executor over the group's plan.
struct SweepTarget {
  const CscMatrix* a = nullptr;
  const core::CholeskyExecutor* executor = nullptr;
};

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual std::vector<std::string> groups() const = 0;
  /// One cold set-up to steady state; returns the library seconds it took.
  /// With a tracer, also replays the set-up through the layer calls.
  virtual double setup(Tracer* tracer) = 0;
  /// One op of group `g` in round `round`. With a tracer, the op is
  /// replayed through the layer calls after the facade call and compared.
  virtual OpResult op(std::size_t g, std::int64_t round, Tracer* tracer) = 0;
  /// Summed bytes() of the distinct plans the ops used (median per group
  /// where a group's plan changes from op to op).
  [[nodiscard]] virtual double plan_bytes() const = 0;
  /// Plan-cache counters of the facade's contexts.
  [[nodiscard]] virtual CacheStats cache_stats() const = 0;
  /// Traced runs only: one target per group.
  [[nodiscard]] virtual std::vector<SweepTarget> sweep_targets() const = 0;
};

// ------------------------------------------------------------ replays
//
// Each replay makes the calls the facade makes, in its order, under
// spans. Span names are the per-layer metric stems.

const char* factor_span(const core::CholeskyPlan& plan) {
  return plan.path == core::ExecutionPath::Simplicial
             ? "solvers.factor.simplicial"
             : "solvers.factor.supernodal";
}

/// The plan's own phase timers, taken inside plan_cholesky around its
/// graph calls with the Planner's own arguments, recorded under the open
/// core.planner.plan span.
void record_phases(Tracer* t, const core::PlanPhaseTimes& ph) {
  t->record("graph.transpose", ph.transpose);
  t->record("graph.etree", ph.etree);
  t->record("graph.counts", ph.counts);
  t->record("graph.pattern", ph.pattern);
  t->record("core.planner.assemble", ph.assemble);
}

/// Solver::factor on a pattern new to `cache`.
std::unique_ptr<core::CholeskyExecutor> replay_cold_factor(
    Tracer* t, core::CholeskyCache& cache, const CscMatrix& a) {
  Tracer::Scope f(t, "api.factor");
  {
    Tracer::Scope s(t, "api.validate");
    api::validate_factor_input(a, false);
  }
  const core::Planner planner(default_config().planner_config());
  core::PatternKey key;
  {
    Tracer::Scope s(t, "core.cache.key");
    key = planner.cholesky_key(a);
  }
  core::CholeskyCache::Lookup lookup;
  {
    Tracer::Scope s(t, "core.cache.miss");
    lookup = cache.get_or_build(key, [&] {
      Tracer::Scope p(t, "core.planner.plan");
      core::CholeskyPlan plan = planner.plan_cholesky(a);
      record_phases(t, plan.evidence.phases);
      return plan;
    });
  }
  auto ex = std::make_unique<core::CholeskyExecutor>(lookup.plan);
  Tracer::Scope s(t, factor_span(*lookup.plan));
  ex->factorize(a);
  return ex;
}

/// Solver::factor on the pattern the Solver already stands on.
void replay_warm_factor(Tracer* t, const core::PatternKey& standing,
                        core::CholeskyExecutor& ex, const CscMatrix& a) {
  Tracer::Scope f(t, "api.factor");
  {
    Tracer::Scope s(t, "api.validate");
    api::validate_factor_input(a, false);
  }
  core::PatternKey key;
  {
    Tracer::Scope s(t, "core.cache.key");
    key = core::Planner(default_config().planner_config()).cholesky_key(a);
  }
  if (!(key == standing))
    throw std::logic_error("replay: warm refactor changed pattern");
  Tracer::Scope s(t, factor_span(ex.plan()));
  ex.factorize(a);
}

/// Solver::factor in a fresh process whose store holds the plan: the miss
/// loads and re-verifies instead of planning. `loaded` reports which.
std::unique_ptr<core::CholeskyExecutor> replay_store_factor(
    Tracer* t, core::PlanStore& store, const CscMatrix& a, bool& loaded) {
  Tracer::Scope f(t, "api.factor");
  {
    Tracer::Scope s(t, "api.validate");
    api::validate_factor_input(a, false);
  }
  const core::Planner planner(default_config().planner_config());
  core::PatternKey key;
  {
    Tracer::Scope s(t, "core.cache.key");
    key = planner.cholesky_key(a);
  }
  core::CholeskyCache cache;
  core::CholeskyCache::Lookup lookup;
  loaded = false;
  {
    Tracer::Scope s(t, "core.cache.miss");
    lookup = cache.get_or_build_stored(
        key,
        [&]() -> std::shared_ptr<const core::CholeskyPlan> {
          core::CholeskyPlan plan;
          core::PlanStore::Loaded got;
          {
            Tracer::Scope l(t, "core.store.load");
            got = store.load(key, &plan);
          }
          if (!got.ok()) return nullptr;
          Tracer::Scope v(t, "verify.plan");
          if (!sympiler::verify::verify_plan(plan).ok()) return nullptr;
          loaded = true;
          return std::make_shared<const core::CholeskyPlan>(std::move(plan));
        },
        [&] { return planner.plan_cholesky(a); },
        [](const std::shared_ptr<const core::CholeskyPlan>&) {});
  }
  auto ex = std::make_unique<core::CholeskyExecutor>(lookup.plan);
  Tracer::Scope s(t, factor_span(*lookup.plan));
  ex->factorize(a);
  return ex;
}

void replay_solve(Tracer* t, const core::CholeskyExecutor& ex,
                  std::span<value_t> x) {
  Tracer::Scope f(t, "api.solve");
  Tracer::Scope s(t, "solvers.solve");
  ex.solve(x);
}

/// Runs an op's facade call and, in traced runs, its replay. Odd rounds
/// replay first, so neither side always finds the caches warmed by the
/// other and their time ratio measures the tracing, not the cache.
template <class Facade, class Replay>
void facade_and_replay(std::int64_t round, Tracer* t, Facade&& facade,
                       Replay&& replay) {
  if (t != nullptr && round % 2 == 1) {
    replay();
    facade();
    return;
  }
  facade();
  if (t != nullptr) replay();
}

// ---------------------------------------------------------- workloads

/// Recurring patterns, refactored with new values: the steady state.
class NewtonRefactor final : public Workload {
 public:
  explicit NewtonRefactor(const RunConfig& c) {
    Rng rng(c.seed);
    for (Pattern& p : recurring_patterns(c.smoke)) {
      Group g;
      g.name = p.name;
      for (int v = 0; v < kValueSets; ++v)
        g.values.push_back(reseed_values(p.a, rng.next()));
      g.b = dense_vector(p.a.cols(), rng.next());
      g.x.resize(g.b.size());
      g.xr.resize(g.b.size());
      groups_.push_back(std::move(g));
    }
  }

  std::vector<std::string> groups() const override {
    std::vector<std::string> names;
    for (const Group& g : groups_) names.push_back(g.name);
    return names;
  }

  double setup(Tracer* t) override {
    context_ = std::make_shared<api::SymbolicContext>();
    core::CholeskyCache replay_cache;
    Stopwatch w;
    for (std::size_t i = 0; i < groups_.size(); ++i) {
      Group& g = groups_[i];
      g.solver.reset();  // the previous set-up's teardown is not set-up time
      w.start();
      g.solver = std::make_unique<api::Solver>(default_config(), context_);
      g.solver->factor(g.values[0]);
      w.stop();
      if (t != nullptr) {
        t->set_op(kSetupOp, static_cast<std::int32_t>(i));
        g.replay = replay_cold_factor(t, replay_cache, g.values[0]);
        g.key = g.replay->plan().key;
      }
    }
    return w.seconds();
  }

  OpResult op(std::size_t gi, std::int64_t round, Tracer* t) override {
    Group& g = groups_[gi];
    const CscMatrix& a = g.values[static_cast<std::size_t>(round % kValueSets)];
    std::copy(g.b.begin(), g.b.end(), g.x.begin());
    std::copy(g.b.begin(), g.b.end(), g.xr.begin());
    Stopwatch w;
    facade_and_replay(
        round, t,
        [&] {
          w.start();
          g.solver->factor(a);
          g.solver->solve(g.x);
          w.stop();
        },
        [&] {
          replay_warm_factor(t, g.key, *g.replay, a);
          replay_solve(t, *g.replay, g.xr);
        });
    OpResult r{w.seconds(), w.allocs(), check_solve(a, g.b, g.x)};
    if (t != nullptr && r.check)
      r.check = check_identical(g.x, g.xr, "replay solve");
    return r;
  }

  double plan_bytes() const override {
    double sum = 0.0;
    for (const Group& g : groups_)
      sum += static_cast<double>(g.solver->plan()->bytes());
    return sum;
  }

  CacheStats cache_stats() const override {
    return context_->cholesky_cache().stats();
  }

  std::vector<SweepTarget> sweep_targets() const override {
    std::vector<SweepTarget> out;
    for (const Group& g : groups_) out.push_back({&g.values[0], g.replay.get()});
    return out;
  }

 private:
  struct Group {
    std::string name;
    std::vector<CscMatrix> values;
    std::vector<value_t> b, x, xr;
    std::unique_ptr<api::Solver> solver;
    std::unique_ptr<core::CholeskyExecutor> replay;
    core::PatternKey key;
  };
  std::shared_ptr<api::SymbolicContext> context_;
  std::vector<Group> groups_;
};

/// Factored once at set-up; each op is a multi-RHS solve or a batch of
/// sparse-RHS triangular solves (the paper's Figure 6 case).
class MultiRhsSolve final : public Workload {
 public:
  explicit MultiRhsSolve(const RunConfig& c) {
    Rng rng(c.seed);
    for (Pattern& p : recurring_patterns(c.smoke)) {
      auto st = std::make_unique<PatternState>();
      st->name = p.name;
      st->a = reseed_values(p.a, rng.next());
      const index_t n = st->a.cols();
      st->batch_rhs = dense_vector(n * kBatchRhs, rng.next());
      st->batch_x.resize(st->batch_rhs.size());
      st->batch_xr.resize(st->batch_rhs.size());
      // Evenly spaced columns, not seeded ones: in a natural-order strip
      // the reach of column j is about n - j, so seeded columns would make
      // the work of an op depend on the seed.
      for (int k = 0; k < kTrisolveColumns; ++k) {
        const auto j = static_cast<index_t>((2 * k + 1) * std::int64_t{n} /
                                            (2 * kTrisolveColumns));
        std::vector<value_t> b =
            sympiler::gen::rhs_from_column(st->a, j, rng.next());
        std::vector<index_t> beta;
        for (index_t i = 0; i < n; ++i)
          if (b[static_cast<std::size_t>(i)] != 0.0) beta.push_back(i);
        st->betas.push_back(std::move(beta));
        st->tri_x.push_back(b);
        st->tri_xr.push_back(b);
        st->tri_rhs.push_back(std::move(b));
      }
      patterns_.push_back(std::move(st));
    }
  }

  std::vector<std::string> groups() const override {
    std::vector<std::string> names;
    for (const auto& st : patterns_) {
      names.push_back("batch:" + st->name);
      names.push_back("trisolve:" + st->name);
    }
    return names;
  }

  double setup(Tracer* t) override {
    context_ = std::make_shared<api::SymbolicContext>();
    core::CholeskyCache replay_cache;
    core::TriSolveCache replay_tri_cache;
    Stopwatch w;
    for (std::size_t i = 0; i < patterns_.size(); ++i) {
      PatternState& st = *patterns_[i];
      st.tri.clear();  // they borrow st.l, which is replaced below
      st.tri_replay.clear();
      st.solver.reset();
      st.l = CscMatrix();
      w.start();
      st.solver = std::make_unique<api::Solver>(default_config(), context_);
      st.solver->factor(st.a);
      st.l = st.solver->factor_csc();
      for (int k = 0; k < kTrisolveColumns; ++k)
        st.tri.push_back(std::make_unique<api::TriangularSolver>(
            st.l, st.betas[static_cast<std::size_t>(k)], default_config(),
            context_));
      // The first solve_batch grows the packed-RHS workspace; steady
      // state starts after it.
      st.solver->solve_batch(st.batch_x, kBatchRhs);
      w.stop();
      // Later set-ups must reproduce the first one's results bit for bit.
      if (st.batch_ref.empty()) compute_references(st);
      if (t != nullptr) {
        t->set_op(kSetupOp, static_cast<std::int32_t>(2 * i));
        st.replay = replay_cold_factor(t, replay_cache, st.a);
        t->set_op(kSetupOp, static_cast<std::int32_t>(2 * i + 1));
        const core::Planner planner(default_config().planner_config());
        for (const auto& beta : st.betas) {
          const core::PatternKey key = planner.trisolve_key(st.l, beta);
          core::TriSolveCache::Lookup lookup;
          {
            Tracer::Scope s(t, "core.cache.miss");
            lookup = replay_tri_cache.get_or_build(key, [&] {
              Tracer::Scope p(t, "core.planner.trisolve_plan");
              return planner.plan_trisolve(st.l, beta);
            });
          }
          st.tri_replay.push_back(
              std::make_unique<core::TriSolveExecutor>(lookup.plan, st.l));
        }
      }
    }
    return w.seconds();
  }

  OpResult op(std::size_t gi, std::int64_t round, Tracer* t) override {
    PatternState& st = *patterns_[gi / 2];
    const auto n = static_cast<std::size_t>(st.a.cols());
    Stopwatch w;
    OpResult r;
    if (gi % 2 == 0) {
      std::copy(st.batch_rhs.begin(), st.batch_rhs.end(), st.batch_x.begin());
      std::copy(st.batch_rhs.begin(), st.batch_rhs.end(), st.batch_xr.begin());
      facade_and_replay(
          round, t,
          [&] {
            w.start();
            st.solver->solve_batch(st.batch_x, kBatchRhs);
            w.stop();
          },
          [&] {
            Tracer::Scope f(t, "api.solve");
            Tracer::Scope s(t, "solvers.solve_batch");
            st.replay->solve_batch(st.batch_xr, kBatchRhs);
          });
      r.check = check_identical(st.batch_ref, st.batch_x, "solve_batch");
      const std::size_t c = static_cast<std::size_t>(round % kBatchRhs) * n;
      if (r.check)
        r.check = check_solve(
            st.a, std::span<const value_t>(st.batch_rhs).subspan(c, n),
            std::span<const value_t>(st.batch_x).subspan(c, n));
      if (t != nullptr && r.check)
        r.check = check_identical(st.batch_x, st.batch_xr, "replay solve_batch");
    } else {
      for (int k = 0; k < kTrisolveColumns; ++k) {
        st.tri_x[k] = st.tri_rhs[k];
        st.tri_xr[k] = st.tri_rhs[k];
      }
      facade_and_replay(
          round, t,
          [&] {
            w.start();
            for (int k = 0; k < kTrisolveColumns; ++k)
              st.tri[k]->solve(st.tri_x[k]);
            w.stop();
          },
          [&] {
            for (int k = 0; k < kTrisolveColumns; ++k) {
              Tracer::Scope f(t, "api.solve");
              Tracer::Scope s(t, "solvers.trisolve");
              st.tri_replay[k]->solve(st.tri_xr[k]);
            }
          });
      for (int k = 0; k < kTrisolveColumns && r.check; ++k)
        r.check = check_identical(st.tri_ref[k], st.tri_x[k], "trisolve");
      const auto k = static_cast<std::size_t>(round % kTrisolveColumns);
      if (r.check) r.check = check_trisolve(st.l, st.tri_rhs[k], st.tri_x[k]);
      for (int j = 0; t != nullptr && j < kTrisolveColumns && r.check; ++j)
        r.check = check_identical(st.tri_x[j], st.tri_xr[j], "replay trisolve");
    }
    r.seconds = w.seconds();
    r.allocs = w.allocs();
    return r;
  }

  double plan_bytes() const override {
    double sum = 0.0;
    for (const auto& st : patterns_) {
      sum += static_cast<double>(st->solver->plan()->bytes());
      for (const auto& tri : st->tri)
        sum += static_cast<double>(tri->plan()->bytes());
    }
    return sum;
  }

  CacheStats cache_stats() const override {
    CacheStats s = context_->cholesky_cache().stats();
    s += context_->trisolve_cache().stats();
    return s;
  }

  std::vector<SweepTarget> sweep_targets() const override {
    std::vector<SweepTarget> out;
    for (const auto& st : patterns_) {
      out.push_back({&st->a, st->replay.get()});
      out.push_back({&st->a, st->replay.get()});
    }
    return out;
  }

 private:
  struct PatternState {
    std::string name;
    CscMatrix a;
    std::vector<value_t> batch_rhs, batch_ref, batch_x, batch_xr;
    std::vector<std::vector<index_t>> betas;
    std::vector<std::vector<value_t>> tri_rhs, tri_ref, tri_x, tri_xr;
    std::unique_ptr<api::Solver> solver;
    CscMatrix l;  ///< borrowed by tri and tri_replay
    std::vector<std::unique_ptr<api::TriangularSolver>> tri;
    std::unique_ptr<core::CholeskyExecutor> replay;
    std::vector<std::unique_ptr<core::TriSolveExecutor>> tri_replay;
  };

  /// References the ops are compared with bit for bit: looped solve() per
  /// batch column and one solve per sparse RHS, each residual-checked.
  static void compute_references(PatternState& st) {
    const auto n = static_cast<std::size_t>(st.a.cols());
    st.batch_ref = st.batch_rhs;
    for (index_t c = 0; c < kBatchRhs; ++c) {
      std::span<value_t> col(st.batch_ref.data() + c * n, n);
      st.solver->solve(col);
      const Check ok = check_solve(
          st.a, std::span<const value_t>(st.batch_rhs).subspan(c * n, n), col);
      if (!ok) throw std::runtime_error("multi_rhs_solve set-up: " + ok.message);
    }
    st.tri_ref = st.tri_rhs;
    for (int k = 0; k < kTrisolveColumns; ++k) {
      st.tri[k]->solve(st.tri_ref[k]);
      const Check ok = check_trisolve(st.l, st.tri_rhs[k], st.tri_ref[k]);
      if (!ok) throw std::runtime_error("multi_rhs_solve set-up: " + ok.message);
    }
  }

  std::shared_ptr<api::SymbolicContext> context_;
  std::vector<std::unique_ptr<PatternState>> patterns_;
};

/// Two interleaved streams whose pattern changes a little every op: every
/// op is a first factor of a new pattern through one default-budget
/// context, filled at set-up, so it misses, replans and evicts.
class PatternDrift final : public Workload {
 public:
  explicit PatternDrift(const RunConfig& c)
      : budget_(c.smoke ? kSmokeBudget : core::CholeskyCache::kDefaultByteBudget) {
    Rng rng(c.seed);
    for (Pattern& p : drift_patterns(c.smoke)) {
      Stream s;
      s.name = p.name;
      s.base = reseed_values(p.a, rng.next());
      s.editor_seed = rng.next();
      s.b = dense_vector(p.a.cols(), rng.next());
      s.x.resize(s.b.size());
      s.xr.resize(s.b.size());
      streams_.push_back(std::move(s));
    }
  }

  std::vector<std::string> groups() const override {
    std::vector<std::string> names;
    for (const Stream& s : streams_) names.push_back(s.name);
    return names;
  }

  double setup(Tracer* t) override {
    context_ = std::make_shared<api::SymbolicContext>(budget_);
    replay_context_ = std::make_shared<api::SymbolicContext>(kReplayBudget);
    Stopwatch w;
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      Stream& s = streams_[i];
      s.editor = std::make_unique<DriftEditor>(s.base, s.editor_seed);
      s.current = s.base;
      s.plan_bytes.clear();
      s.solver.reset();
      w.start();
      s.solver = std::make_unique<api::Solver>(default_config(), context_);
      s.solver->factor(s.base);
      w.stop();
      if (t != nullptr) {
        t->set_op(kSetupOp, static_cast<std::int32_t>(i));
        s.replay = replay_cold_factor(t, replay_context_->cholesky_cache(), s.base);
      }
    }
    fill_context();
    return w.seconds();
  }

  OpResult op(std::size_t gi, std::int64_t round, Tracer* t) override {
    Stream& s = streams_[gi];
    s.current = s.editor->step();
    std::copy(s.b.begin(), s.b.end(), s.x.begin());
    std::copy(s.b.begin(), s.b.end(), s.xr.begin());
    CacheStats before, after;
    Stopwatch w;
    facade_and_replay(
        round, t,
        [&] {
          before = context_->cholesky_cache().stats();
          w.start();
          s.solver->factor(s.current);
          s.solver->solve(s.x);
          w.stop();
          after = context_->cholesky_cache().stats();
        },
        [&] {
          s.replay.reset();
          s.replay = replay_cold_factor(t, replay_context_->cholesky_cache(),
                                        s.current);
          replay_solve(t, *s.replay, s.xr);
        });
    OpResult r{w.seconds(), w.allocs(), check_drift_miss(before, after)};
    if (r.check) r.check = check_solve(s.current, s.b, s.x);
    if (t != nullptr && r.check)
      r.check = check_identical(s.x, s.xr, "replay solve");
    s.plan_bytes.push_back(static_cast<double>(s.solver->plan()->bytes()));
    return r;
  }

  double plan_bytes() const override {
    double sum = 0.0;
    for (const Stream& s : streams_)
      sum += s.plan_bytes.empty()
                 ? static_cast<double>(s.solver->plan()->bytes())
                 : median(s.plan_bytes);
    return sum;
  }

  CacheStats cache_stats() const override {
    return context_->cholesky_cache().stats();
  }

  std::vector<SweepTarget> sweep_targets() const override {
    std::vector<SweepTarget> out;
    for (const Stream& s : streams_) out.push_back({&s.current, s.replay.get()});
    return out;
  }

 private:
  /// Outside the timed set-up window: steps the streams and plans their
  /// patterns into the context, as a facade miss would, until every shard
  /// has evicted, so that the timed ops evict too, not only those after
  /// the context happened to fill.
  void fill_context() {
    core::CholeskyCache& cache = context_->cholesky_cache();
    const core::Planner planner(default_config().planner_config());
    auto full = [&] {
      for (std::size_t i = 0; i < cache.shard_count(); ++i)
        if (cache.shard_stats(i).evictions == 0) return false;
      return true;
    };
    while (!full())
      for (Stream& s : streams_) {
        s.current = s.editor->step();
        (void)cache.get_or_build(planner.cholesky_key(s.current),
                                 [&] { return planner.plan_cholesky(s.current); });
      }
  }

  struct Stream {
    std::string name;
    CscMatrix base, current;
    std::uint64_t editor_seed = 0;
    std::unique_ptr<DriftEditor> editor;
    std::vector<value_t> b, x, xr;
    std::unique_ptr<api::Solver> solver;
    std::unique_ptr<core::CholeskyExecutor> replay;
    std::vector<double> plan_bytes;
  };
  std::size_t budget_;  ///< byte budget of the facade's context
  std::shared_ptr<api::SymbolicContext> context_;
  std::shared_ptr<api::SymbolicContext> replay_context_;
  std::vector<Stream> streams_;
};

/// Plans persisted at set-up; each op is a process restart in miniature:
/// a fresh context and Solver whose first factor loads the plan from the
/// store and re-verifies it instead of planning.
class RestartLoad final : public Workload {
 public:
  explicit RestartLoad(const RunConfig& c)
      : store_dir_(c.work_dir + "/store-" + std::to_string(::getpid())) {
    std::filesystem::remove_all(store_dir_);
    std::filesystem::create_directories(store_dir_);
    config_ = default_config();
    config_.options.plan_store_dir = store_dir_;
    Rng rng(c.seed);
    for (Pattern& p : restart_patterns(c.smoke)) {
      Group g;
      g.name = p.name;
      g.a = reseed_values(p.a, rng.next());
      g.b = dense_vector(p.a.cols(), rng.next());
      g.x.resize(g.b.size());
      g.xr.resize(g.b.size());
      groups_.push_back(std::move(g));
    }
  }

  ~RestartLoad() override {
    std::error_code ignored;
    std::filesystem::remove_all(store_dir_, ignored);
  }

  RestartLoad(const RestartLoad&) = delete;
  RestartLoad& operator=(const RestartLoad&) = delete;

  std::vector<std::string> groups() const override {
    std::vector<std::string> names;
    for (const Group& g : groups_) names.push_back(g.name);
    return names;
  }

  double setup(Tracer* t) override {
    auto context = std::make_shared<api::SymbolicContext>();
    auto store = core::PlanStore::open(store_dir_);
    core::CholeskyCache replay_cache;
    Stopwatch w;
    for (std::size_t i = 0; i < groups_.size(); ++i) {
      Group& g = groups_[i];
      w.start();
      api::Solver solver(default_config(), context);
      solver.factor(g.a);
      const auto& plan = solver.plan();
      const sympiler::Status saved = store->save(*plan);
      w.stop();
      if (!saved.ok())
        throw std::runtime_error("restart_load set-up: " + saved.to_string());
      if (!core::PlanStore::should_persist(
              plan->bytes(), plan->evidence.build_seconds,
              plan->path == core::ExecutionPath::Simplicial))
        throw std::runtime_error("restart_load set-up: the store declines " +
                                 g.name);
      g.plan_bytes = static_cast<double>(plan->bytes());
      g.digest = factor_digest(solver.factor_csc());
      if (t != nullptr) {
        t->set_op(kSetupOp, static_cast<std::int32_t>(i));
        g.replay = replay_cold_factor(t, replay_cache, g.a);
        Tracer::Scope s(t, "core.store.save");
        if (!store->save(g.replay->plan()).ok())
          throw std::runtime_error("restart_load set-up: replay save failed");
      }
    }
    return w.seconds();
  }

  OpResult op(std::size_t gi, std::int64_t round, Tracer* t) override {
    Group& g = groups_[gi];
    std::copy(g.b.begin(), g.b.end(), g.x.begin());
    std::copy(g.b.begin(), g.b.end(), g.xr.begin());
    std::shared_ptr<api::SymbolicContext> context;
    std::unique_ptr<api::Solver> solver;
    bool loaded = false;
    Stopwatch w;
    facade_and_replay(
        round, t,
        [&] {
          w.start();
          context = std::make_shared<api::SymbolicContext>();
          solver = std::make_unique<api::Solver>(config_, context);
          solver->factor(g.a);
          solver->solve(g.x);
          w.stop();
        },
        [&] {
          g.replay = replay_store_factor(t, *core::PlanStore::open(store_dir_),
                                         g.a, loaded);
          replay_solve(t, *g.replay, g.xr);
        });
    OpResult r{w.seconds(), w.allocs(), check_store_loaded(solver->report())};
    if (r.check && factor_digest(solver->factor_csc()) != g.digest)
      r.check = {false, "restart: loaded-plan factor differs from the "
                        "fresh-plan factor"};
    if (r.check) r.check = check_solve(g.a, g.b, g.x);
    if (t != nullptr && r.check && !loaded)
      r.check = {false, "replay: plan was rebuilt instead of loaded"};
    if (t != nullptr && r.check)
      r.check = check_identical(g.x, g.xr, "replay solve");
    stats_ += solver->cache_stats();
    return r;
  }

  double plan_bytes() const override {
    double sum = 0.0;
    for (const Group& g : groups_) sum += g.plan_bytes;
    return sum;
  }

  CacheStats cache_stats() const override { return stats_; }

  std::vector<SweepTarget> sweep_targets() const override {
    std::vector<SweepTarget> out;
    for (const Group& g : groups_) out.push_back({&g.a, g.replay.get()});
    return out;
  }

 private:
  struct Group {
    std::string name;
    CscMatrix a;
    std::vector<value_t> b, x, xr;
    double plan_bytes = 0.0;
    std::uint64_t digest = 0;  ///< factor of a freshly built plan
    std::unique_ptr<core::CholeskyExecutor> replay;
  };
  std::string store_dir_;
  api::SolverConfig config_;
  CacheStats stats_;
  std::vector<Group> groups_;
};

std::unique_ptr<Workload> make_workload(const RunConfig& c) {
  if (c.workload == "newton_refactor") return std::make_unique<NewtonRefactor>(c);
  if (c.workload == "multi_rhs_solve") return std::make_unique<MultiRhsSolve>(c);
  if (c.workload == "pattern_drift") return std::make_unique<PatternDrift>(c);
  if (c.workload == "restart_load") return std::make_unique<RestartLoad>(c);
  throw std::invalid_argument("unknown workload '" + c.workload + "'");
}

// --------------------------------------------------------- the run

/// Host-speed probe: a fixed integer loop, timed. Not a metric: it tells
/// a slow host from a slow change.
struct Probe {
  double median_ms = 0.0;
  double min_ms = 0.0;
};

Probe host_probe() {
  constexpr int kSamples = 15;
  std::vector<double> ms;
  volatile std::uint64_t sink = 0;
  for (int s = 0; s < kSamples; ++s) {
    const auto t0 = Clock::now();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL, acc = 0;
    for (int i = 0; i < (1 << 21); ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += x >> 60;
    }
    sink = sink + acc;
    ms.push_back(1e3 * seconds_since(t0));
  }
  return {median(ms), minimum(ms)};
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB on Linux
}

template <class... Args>
std::string fmt(const char* format, Args... args) {
  char buf[256];
  std::snprintf(buf, sizeof buf, format, args...);
  return buf;
}

/// Factor storage the numeric phase writes, computed from the plan.
double factor_bytes(const core::CholeskyPlan& plan) {
  if (plan.path == core::ExecutionPath::Simplicial)
    return static_cast<double>(plan.sets.sym.fill_nnz) *
               (sizeof(value_t) + sizeof(index_t)) +
           static_cast<double>(plan.sets.sym.parent.size() + 1) * sizeof(index_t);
  return static_cast<double>(plan.sets.layout.total_values()) * sizeof(value_t);
}

/// Traced runs: calls each layer function the ops of a workload may not
/// make, once per group (lookups kSweepLookups times), so every per-layer
/// metric is measured on every workload's own patterns.
void sweep(Tracer& t, const std::vector<SweepTarget>& targets,
           const std::string& dir, double& file_bytes) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const core::Planner planner(default_config().planner_config());
  auto store = core::PlanStore::open(dir);
  core::CholeskyCache cache;
  std::set<const core::CholeskyPlan*> seen;
  file_bytes = 0.0;
  for (std::size_t g = 0; g < targets.size(); ++g) {
    t.set_op(kSweepOp, static_cast<std::int32_t>(g));
    const core::CholeskyExecutor& ex = *targets[g].executor;
    const core::CholeskyPlan& plan = ex.plan();
    const CscMatrix& a = *targets[g].a;
    const index_t n = a.cols();
    (void)cache.insert(plan.key, ex.plan_ptr());
    for (int i = 0; i < kSweepLookups; ++i) {
      Tracer::Scope s(&t, "core.cache.lookup");
      const auto hit = cache.get_or_build(plan.key, []() -> core::CholeskyPlan {
        throw std::logic_error("sweep: resident plan missed the cache");
      });
    }
    std::vector<value_t> x = dense_vector(n, 1);
    {
      Tracer::Scope s(&t, "solvers.solve");
      ex.solve(x);
    }
    std::vector<value_t> bx = dense_vector(n * kBatchRhs, 2);
    {
      Tracer::Scope s(&t, "solvers.solve_batch");
      ex.solve_batch(bx, kBatchRhs);
    }
    const CscMatrix l = ex.factor_csc();
    std::vector<value_t> b = sympiler::gen::rhs_from_column(a, n / 3, 3);
    std::vector<index_t> beta;
    for (index_t i = 0; i < n; ++i)
      if (b[static_cast<std::size_t>(i)] != 0.0) beta.push_back(i);
    std::shared_ptr<const core::TriSolvePlan> tri;
    {
      Tracer::Scope s(&t, "core.planner.trisolve_plan");
      tri = std::make_shared<const core::TriSolvePlan>(
          planner.plan_trisolve(l, beta));
    }
    const core::TriSolveExecutor tex(tri, l);
    {
      Tracer::Scope s(&t, "solvers.trisolve");
      tex.solve(b);
    }
    {
      Tracer::Scope s(&t, "core.store.save");
      if (!store->save(plan).ok())
        throw std::runtime_error("sweep: store save failed");
    }
    core::CholeskyPlan loaded;
    {
      Tracer::Scope s(&t, "core.store.load");
      if (!store->load(plan.key, &loaded).ok())
        throw std::runtime_error("sweep: store load failed");
    }
    {
      Tracer::Scope s(&t, "verify.plan");
      if (!sympiler::verify::verify_plan(loaded).ok())
        throw std::runtime_error("sweep: loaded plan failed verification");
    }
    if (seen.insert(&plan).second)
      file_bytes += static_cast<double>(
          std::filesystem::file_size(store->path_for(plan.key, true)));
  }
  std::filesystem::remove_all(dir);
}

void add_per_layer_metrics(RunResult& res, Tracer& t, const Workload& w,
                           std::size_t groups,
                           const std::vector<double>& allocs,
                           const CacheStats& delta, double ops,
                           const std::string& work_dir) {
  const std::vector<SweepTarget> targets = w.sweep_targets();
  double file_bytes = 0.0;
  sweep(t, targets, work_dir + "/sweep-store-" + std::to_string(::getpid()),
        file_bytes);

  auto span = [&](const char* name, const char* metric) {
    res.metrics.push_back({metric, combine(t.durations(name, groups), median), "s"});
  };
  auto phase = [&](const char* name, const char* metric) {
    res.metrics.push_back({metric, combine(t.values(name, groups), median), "s"});
  };
  span("api.factor", "api.factor_s");
  span("api.solve", "api.solve_s");
  span("api.validate", "api.validate_s");
  res.metrics.push_back({"api.allocs_per_op", mean(allocs), "count"});
  span("core.cache.key", "core.cache.key_s");
  span("core.cache.lookup", "core.cache.lookup_s");
  const double per_op = ops > 0 ? 1.0 / ops : 0.0;
  res.metrics.push_back({"core.cache.hits", static_cast<double>(delta.hits) * per_op, "count/op"});
  res.metrics.push_back({"core.cache.misses", static_cast<double>(delta.misses) * per_op, "count/op"});
  res.metrics.push_back({"core.cache.evictions", static_cast<double>(delta.evictions) * per_op, "count/op"});
  span("core.planner.plan", "core.planner.plan_s");
  span("core.planner.trisolve_plan", "core.planner.trisolve_plan_s");
  phase("core.planner.assemble", "core.planner.assemble_s");
  phase("graph.transpose", "graph.transpose_s");
  phase("graph.etree", "graph.etree_s");
  phase("graph.counts", "graph.counts_s");
  phase("graph.pattern", "graph.pattern_s");
  span("core.store.load", "core.store.load_s");
  span("core.store.save", "core.store.save_s");
  res.metrics.push_back({"core.store.file_mb", file_bytes / 1e6, "MB"});
  span("verify.plan", "verify.plan_s");
  span("solvers.factor.supernodal", "solvers.factor_s.supernodal");
  span("solvers.factor.simplicial", "solvers.factor_s.simplicial");

  // Rate of the numeric factor: the plan's flop count over the group's
  // median factorize time, either path.
  const auto sn = t.durations("solvers.factor.supernodal", groups);
  const auto sp = t.durations("solvers.factor.simplicial", groups);
  std::vector<double> gflops;
  double l_bytes = 0.0, ws_bytes = 0.0;
  std::set<const core::CholeskyPlan*> seen;
  for (std::size_t g = 0; g < groups; ++g) {
    const core::CholeskyPlan& plan = targets[g].executor->plan();
    std::vector<double> d = sn[g];
    d.insert(d.end(), sp[g].begin(), sp[g].end());
    if (!d.empty()) gflops.push_back(plan.sets.flops() / median(d) / 1e9);
    if (seen.insert(&plan).second) {
      l_bytes += factor_bytes(plan);
      ws_bytes += static_cast<double>(plan.workspace.bytes());
    }
  }
  res.metrics.push_back({"solvers.factor_gflops", geomean(gflops), "Gflop/s"});
  span("solvers.solve", "solvers.solve_s");
  span("solvers.solve_batch", "solvers.solve_batch_s");
  span("solvers.trisolve", "solvers.trisolve_s");
  res.metrics.push_back({"solvers.l_mb", l_bytes / 1e6, "MB"});
  res.metrics.push_back({"solvers.workspace_mb", ws_bytes / 1e6, "MB"});
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "newton_refactor", "multi_rhs_solve", "pattern_drift", "restart_load"};
  return names;
}

RunResult run_workload(const RunConfig& c) {
  std::unique_ptr<Workload> w = make_workload(c);
  const std::vector<std::string> names = w->groups();
  const std::size_t groups = names.size();
  RunResult res;
  const Probe before = host_probe();

  Tracer tracer;
  Tracer* t = c.trace ? &tracer : nullptr;

  // The run is cut into segments, each opened by a fresh set-up, so the
  // set-ups whose median is setup_s sample the whole run, not one moment
  // of the host. Within a segment: a closed loop of whole rounds, one op
  // per group in a fixed order, until the segment's time is up.
  const int segments = (c.trace || c.smoke) ? 1 : kSetups;
  std::vector<double> setups;
  std::vector<std::vector<double>> op_s(groups), overhead(groups);
  std::vector<double> allocs;
  CacheStats delta;
  std::string first_problem;
  std::int64_t op_id = 0, round = 0;
  double loop_s = 0.0;
  for (int segment = 0; segment < segments; ++segment) {
    setups.push_back(w->setup(t));
    const CacheStats stats0 = w->cache_stats();
    const auto t0 = Clock::now();
    for (;; ++round) {
      for (std::size_t g = 0; g < groups; ++g, ++op_id) {
        if (t != nullptr) t->set_op(op_id, static_cast<std::int32_t>(g));
        ++res.attempted;
        try {
          const OpResult r = w->op(g, round, t);
          op_s[g].push_back(r.seconds);
          allocs.push_back(static_cast<double>(r.allocs));
          if (t != nullptr)
            overhead[g].push_back(t->op_seconds(op_id) / r.seconds);
          if (!r.check && res.correct) {
            res.correct = false;
            first_problem = names[g] + ": " + r.check.message;
          }
        } catch (const std::exception& e) {
          ++res.failed;
          if (first_problem.empty()) first_problem = names[g] + ": " + e.what();
        }
      }
      if (seconds_since(t0) >= c.seconds / segments) break;
    }
    loop_s += seconds_since(t0);
    const CacheStats stats1 = w->cache_stats();
    delta.hits += stats1.hits - stats0.hits;
    delta.misses += stats1.misses - stats0.misses;
    delta.evictions += stats1.evictions - stats0.evictions;
  }
  const double ops = static_cast<double>(res.attempted - res.failed);

  res.report.push_back(c.workload + ": " + std::to_string(res.attempted) +
                       " ops in " + fmt("%.2f", loop_s) + " s, " +
                       std::to_string(res.failed) + " failed" +
                       (c.trace ? " (traced)" : ""));
  if (!first_problem.empty()) res.report.push_back("first problem: " + first_problem);
  res.report.push_back("group                     ops    p50_ms    min_ms    p90_ms" +
                       std::string(c.trace ? "  replay/facade" : ""));
  for (std::size_t g = 0; g < groups; ++g) {
    const auto& s = op_s[g];
    // p90 only with at least ten samples beyond it.
    const std::string p90 = s.size() >= 100 ? fmt("%9.3f", 1e3 * quantile(s, 0.9))
                                            : std::string("        -");
    char line[160];
    std::snprintf(line, sizeof line, "%-24s %4zu %9.3f %9.3f %s", names[g].c_str(),
                  s.size(), 1e3 * median(s), 1e3 * minimum(s), p90.c_str());
    std::string text = line;
    if (t != nullptr) text += fmt("  %13.3f", median(overhead[g]));
    res.report.push_back(text);
  }

  if (t == nullptr) {
    // Only the fastest op is steady on a host whose speed swings between
    // two states for seconds at a time; the median and tail are reported
    // beside the metrics as reference figures.
    res.report.push_back(fmt("op_s geomean over groups: p50 %.6f s, p90 %.6f s, min %.6f s",
                             combine(op_s, median),
                             combine(op_s, [](const std::vector<double>& v) {
                               return quantile(v, 0.9);
                             }),
                             combine(op_s, minimum)));
    res.metrics.push_back({"setup_s", median(setups), "s"});
    res.metrics.push_back({"op_s.min", combine(op_s, minimum), "s"});
    res.metrics.push_back({"plan_mb", w->plan_bytes() / 1e6, "MB"});
    res.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  } else {
    res.report.push_back(fmt("trace overhead: replay/facade = %.3f (geomean of per-group medians)",
                             combine(overhead, median)));
    const auto layers = tracer.layer_self_seconds();
    double total = 0.0;
    for (const auto& [layer, s] : layers) total += s;
    res.report.push_back("layer self time over the op loop (replay):");
    for (const auto& [layer, s] : layers) {
      char line[128];
      std::snprintf(line, sizeof line, "  %-14s %9.4f s  %5.1f%%", layer.c_str(),
                    s, total > 0 ? 100.0 * s / total : 0.0);
      res.report.push_back(line);
    }
    add_per_layer_metrics(res, tracer, *w, groups, allocs, delta, ops, c.work_dir);
    const std::string path = c.work_dir + "/traces/" + c.workload + "-seed" +
                             std::to_string(c.seed) + ".jsonl";
    std::filesystem::create_directories(c.work_dir + "/traces");
    tracer.write(path);
    res.report.push_back("spans: " + std::to_string(tracer.size()) + " written to " + path);
  }
  const Probe after = host_probe();
  res.report.push_back(fmt("host_probe_ms: before median %.3f min %.3f, after median %.3f min %.3f",
                           before.median_ms, before.min_ms, after.median_ms, after.min_ms));
  return res;
}

}  // namespace perfbench
