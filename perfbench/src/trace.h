// In-memory span recorder of the traced run. Spans are recorded from the
// benchmark's own code around each public call into a layer; nothing in
// the library is instrumented. A span's layer is its name up to the first
// dot ("api", "graph", "verify", "solvers"), or up to the second for
// "core" ("core.cache", "core.planner", "core.store").
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Op id of spans recorded during set-up and the post-loop layer sweep.
inline constexpr std::int64_t kSetupOp = -1;
inline constexpr std::int64_t kSweepOp = -2;

struct Span {
  const char* name;  ///< static string: one of the span names in trace.cpp
  double start = 0.0;  ///< seconds since the tracer was created
  double end = 0.0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 at top level
  std::int64_t op = kSetupOp;
  std::int32_t group = 0;
};

class Tracer {
 public:
  Tracer();

  /// Opens a span and closes it when it goes out of scope. A null tracer
  /// records nothing.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int32_t index_;
    std::int32_t saved_parent_;
  };

  /// Spans opened from now on belong to this op of this group.
  void set_op(std::int64_t op, std::int32_t group) {
    op_ = op;
    group_ = group;
  }

  /// A time measured inside the open span by the library itself (the
  /// plan's own phase timers), kept per group like span durations. It
  /// counts as a child of the open span: its seconds go to the self time
  /// of its own layer, not of the span's.
  void record(const char* name, double seconds);

  /// Durations (seconds) of every span called `name`, split by group.
  [[nodiscard]] std::vector<std::vector<double>> durations(
      const std::string& name, std::size_t groups) const;
  /// Values recorded under `name`, split by group.
  [[nodiscard]] std::vector<std::vector<double>> values(
      const std::string& name, std::size_t groups) const;

  /// Seconds the top-level spans of op `op` took: the replay's time,
  /// comparable with the facade op it mirrors.
  [[nodiscard]] double op_seconds(std::int64_t op) const;

  /// Self time (duration minus direct children) per layer over the op
  /// loop, largest first.
  [[nodiscard]] std::vector<std::pair<std::string, double>> layer_self_seconds()
      const;

  /// Writes every span, then every recorded time, as one JSON object per
  /// line.
  void write(const std::string& path) const;

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

 private:
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(clock::now() - t0_).count();
  }

  using clock = std::chrono::steady_clock;
  clock::time_point t0_;
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
  std::int64_t op_ = kSetupOp;
  std::int32_t group_ = 0;
  struct Value {
    const char* name;
    std::int32_t parent;  ///< the span open when it was recorded
    std::int64_t op;
    std::int32_t group;
    double seconds;
  };
  std::vector<Value> values_;
};

}  // namespace perfbench
