#ifndef FREEWAY_PERFBENCH_BENCH_H_
#define FREEWAY_PERFBENCH_BENCH_H_

// Shared result model of the benchmark workloads.

#include <cstdint>
#include <string>
#include <vector>

#include "host.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Timed samples behind the value; 0 for counts and ratios.
  size_t samples = 0;
};

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory holding the workload specs (perfbench/specs).
  std::string spec_dir;
  /// Scratch directory inside the checkout for server data and traces.
  std::string work_dir;
  /// This binary, re-executed for server nodes.
  std::string self_path;
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  /// Driver-facing metrics: end_to_end with tracing off, per_layer on.
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// The issue's own metric names, for the human-readable report.
  std::vector<Metric> detail;
  RunContext context;

  void Fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
  void E2e(const std::string& name, double value, const std::string& unit,
           size_t samples = 0) {
    end_to_end.push_back({name, value, unit, samples});
  }
  void Layer(const std::string& name, double value, const std::string& unit,
             size_t samples = 0) {
    per_layer.push_back({name, value, unit, samples});
  }
  void Detail(const std::string& name, double value, const std::string& unit,
              size_t samples = 0) {
    detail.push_back({name, value, unit, samples});
  }
};

/// Reports a percentile, or fails the run when the sample cannot support
/// it (fewer than kMinSamplesBeyond samples beyond the rank).
double CheckedPercentile(Report* report, const std::string& what,
                         const std::vector<double>& samples, double q);

void RunLearnDrift(const RunArgs& args, Report* report);
/// `nodes` = 1 or 3.
void RunServe(const RunArgs& args, size_t nodes, Report* report);
/// Child entry point: one StreamServer node until SIGTERM.
int RunServerNode(int argc, char** argv);

}  // namespace perfbench

#endif  // FREEWAY_PERFBENCH_BENCH_H_
