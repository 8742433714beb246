// The four workloads of the benchmark and the run loop around them.
//
// Every run times the public facade (api::Solver, api::TriangularSolver)
// with tracing off and reports the end-to-end metrics. A traced run
// (--trace 1) runs the same ops, then replays each one through the layers'
// public calls in the facade's order (validate, key, cache lookup / plan /
// store load + verify, executor factorize, solve) under spans, checks that
// the replay matches the facade bit for bit, and reports the per-layer
// metrics instead.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Shrunken inputs and one set-up: every workload in about a second.
  bool smoke = false;
  /// Directory for the plan store of restart_load and the span files.
  std::string work_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines: per-group figures, layer self times, overhead.
  std::vector<std::string> report;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload; throws std::invalid_argument on an unknown name.
[[nodiscard]] RunResult run_workload(const RunConfig& config);

}  // namespace perfbench
