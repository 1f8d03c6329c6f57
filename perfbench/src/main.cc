// Benchmark driver. Normally started through perfbench/run.py, which builds
// this binary and shapes its last output line into the benchmark's result
// record:
//
//   freeway_perfbench --workload <learn_drift|serve_1node|serve_3node>
//                     --seed <n> --seconds <s> --trace <0|1>
//                     --spec-dir <dir> --work-dir <dir>
//
// Prints every metric by name, unit and sample count, a run-context line,
// and finally one JSON object with the correctness verdict and both metric
// sets. Exits 1 when a correctness check failed.
//
// `freeway_perfbench --node ...` is the server-node child the serving
// workloads fork and exec.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"
#include "linalg/simd.h"
#include "stats.h"

namespace perfbench {

double CheckedPercentile(Report* report, const std::string& what,
                         const std::vector<double>& samples, double q) {
  const auto value = Percentile(samples, q);
  if (!value.has_value()) {
    report->Fail(what + ": " + std::to_string(samples.size()) +
                 " samples cannot support p" + std::to_string(q * 100));
    return 0.0;
  }
  return *value;
}

namespace {

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit +
           "\", \"samples\": " + std::to_string(metrics[i].samples) + "}";
  }
  return out + "}";
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("-- %s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-40s %16.6g %-6s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: freeway_perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --spec-dir DIR --work-dir DIR\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc > 1 && std::strcmp(argv[1], "--node") == 0) {
    return RunServerNode(argc, argv);
  }
  RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") args.seconds = std::strtod(value.c_str(), nullptr);
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--spec-dir") args.spec_dir = value;
    else if (key == "--work-dir") args.work_dir = value;
    else return Usage();
  }
  if (args.workload.empty() || args.spec_dir.empty() || args.work_dir.empty() ||
      args.seconds <= 0) {
    return Usage();
  }
  std::error_code ec;
  args.self_path = std::filesystem::read_symlink("/proc/self/exe", ec).string();
  std::filesystem::create_directories(args.work_dir, ec);
  args.work_dir = std::filesystem::absolute(args.work_dir, ec).string();

  RunMeter meter(freeway::simd::TargetName(freeway::simd::ActiveTarget()));
  Report report;
  if (args.workload == "learn_drift") {
    RunLearnDrift(args, &report);
  } else if (args.workload == "serve_1node") {
    RunServe(args, 1, &report);
  } else if (args.workload == "serve_3node") {
    RunServe(args, 3, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  report.context = meter.Finish(report.context.effective_parallelism);

  std::printf("== %s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  PrintTable("end-to-end", report.end_to_end);
  PrintTable("issue names", report.detail);
  if (args.trace) PrintTable("per-layer", report.per_layer);
  std::printf("failed_frac %.6g (%llu of %llu operations)\n",
              report.attempted
                  ? static_cast<double>(report.failed) /
                        static_cast<double>(report.attempted)
                  : 0.0,
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  for (const std::string& e : report.errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  std::printf("context: %s\n", report.context.ToJson().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"context\": %s, \"end_to_end\": %s, \"per_layer\": %s}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              report.context.ToJson().c_str(),
              MetricsJson(report.end_to_end).c_str(),
              MetricsJson(report.per_layer).c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
