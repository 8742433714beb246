// perfbench: one run of one workload.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--smoke]
//
// Prints per-group figures, the host-speed probe and (traced) the layer
// self times, then as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

int usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>] [--smoke]\n",
               problem.c_str());
  return 2;
}

bool parse_number(const std::string& text, double& out) {
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return !text.empty() && end != nullptr && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      config.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value after " + arg);
    const std::string value = argv[++i];
    double number = 0.0;
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--work-dir") {
      config.work_dir = value;
    } else if (!parse_number(value, number)) {
      return usage("bad value '" + value + "' for " + arg);
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds" && number > 0 && number <= 3600) {
      config.seconds = number;
    } else if (arg == "--trace" && (number == 0 || number == 1)) {
      config.trace = number == 1;
    } else {
      return usage("bad argument " + arg + " " + value);
    }
  }
  if (!have_workload) return usage("--workload is required");

  perfbench::RunResult result;
  try {
    result = perfbench::run_workload(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  for (const std::string& line : result.report) std::printf("%s\n", line.c_str());
  std::string json = std::string("{\"correct\": ") +
                     (result.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
