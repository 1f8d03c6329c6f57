#include "host.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <sys/resource.h>
#include <thread>
#include <unistd.h>
#include <vector>

namespace perfbench {

double SelfCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

double ProcessCpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (i == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double PeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB → MiB.
    }
  }
  return 0.0;
}

CpuJiffies ReadCpuJiffies() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuJiffies out;
  if (label != "cpu") return out;
  for (int i = 0; i < 10; ++i) {
    unsigned long long v = 0;
    if (!(in >> v)) break;
    // Fields: user nice system idle iowait irq softirq steal guest
    // guest_nice; guest time is already inside user.
    if (i < 8) out.total += v;
    if (i == 7) out.steal = v;
  }
  return out;
}

double GrantedCores(int threads, int millis) {
  const double cpu0 = SelfCpuSeconds();
  const auto t0 = std::chrono::steady_clock::now();
  const auto until = t0 + std::chrono::milliseconds(millis);
  std::atomic<uint64_t> sink{0};
  std::vector<std::thread> spinners;
  for (int t = 0; t < threads; ++t) {
    spinners.emplace_back([&] {
      uint64_t x = 0;
      while (std::chrono::steady_clock::now() < until) x += 1;
      sink.fetch_add(x, std::memory_order_relaxed);
    });
  }
  for (auto& t : spinners) t.join();
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  return wall > 0 ? (SelfCpuSeconds() - cpu0) / wall : 0.0;
}

namespace {

std::string ReadFirstLine(const std::string& path, const std::string& fallback) {
  std::ifstream in(path);
  std::string line;
  if (!std::getline(in, line) || line.empty()) return fallback;
  return line;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

std::string RunContext::ToJson() const {
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer),
                "{\"cores\": %d, \"load1\": %.2f, \"governor\": %s, "
                "\"simd_target\": %s, \"FREEWAY_NUM_THREADS\": %s, "
                "\"granted_cores\": %.2f, \"steal_frac\": %.4f, "
                "\"effective_parallelism\": %.3f, \"throttled\": %s}",
                cores, load1, JsonString(governor).c_str(),
                JsonString(simd_target).c_str(),
                JsonString(num_threads_env).c_str(), granted_cores,
                steal_frac, effective_parallelism,
                throttled ? "true" : "false");
  return buffer;
}

RunMeter::RunMeter(std::string simd_target) {
  context_.cores = static_cast<int>(std::thread::hardware_concurrency());
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) > 0) context_.load1 = load[0];
  context_.governor = ReadFirstLine(
      "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor", "unknown");
  context_.simd_target = std::move(simd_target);
  const char* env = std::getenv("FREEWAY_NUM_THREADS");
  context_.num_threads_env = env != nullptr ? env : "unset";
  context_.granted_cores = GrantedCores(context_.cores, 50);
  start_ = ReadCpuJiffies();
}

RunContext RunMeter::Finish(double effective_parallelism) {
  RunContext out = context_;
  const CpuJiffies end = ReadCpuJiffies();
  const unsigned long long total = end.total - start_.total;
  out.steal_frac =
      total > 0 ? static_cast<double>(end.steal - start_.steal) /
                      static_cast<double>(total)
                : 0.0;
  out.effective_parallelism = effective_parallelism;
  out.throttled = out.steal_frac > 0.05 ||
                  out.granted_cores < 0.5 * static_cast<double>(out.cores);
  return out;
}

}  // namespace perfbench
