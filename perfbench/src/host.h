#ifndef FREEWAY_PERFBENCH_HOST_H_
#define FREEWAY_PERFBENCH_HOST_H_

// Run context stamped on every result: host fingerprint, CPU steal over
// the run, effective parallelism, and the throttled flag. One schema for
// everything the benchmark emits.

#include <string>
#include <sys/types.h>

namespace perfbench {

/// CPU seconds (user + system) of this process so far.
double SelfCpuSeconds();
/// CPU seconds of a live child read from /proc/<pid>/stat (0 when gone).
double ProcessCpuSeconds(pid_t pid);
/// Peak resident set (VmHWM) of `pid` in MiB; 0 when unreadable.
double PeakRssMb(pid_t pid);

/// Cumulative jiffies from the aggregate `cpu` line of /proc/stat.
struct CpuJiffies {
  unsigned long long total = 0;
  unsigned long long steal = 0;
};
CpuJiffies ReadCpuJiffies();

/// Spins `threads` threads for `millis` and returns CPU time / wall time:
/// the cores the host actually granted right now.
double GrantedCores(int threads, int millis);

struct RunContext {
  int cores = 0;
  double load1 = 0.0;
  std::string governor;
  std::string simd_target;
  std::string num_threads_env;
  double granted_cores = 0.0;
  double steal_frac = 0.0;
  double effective_parallelism = 0.0;
  /// The host withheld cores: steal above 5% over the run, or the start-up
  /// spin probe got fewer than half the cores.
  bool throttled = false;

  std::string ToJson() const;
};

/// Fills the static fingerprint fields and runs the spin probe; call at
/// start, then Finish() when the measured phase is over.
class RunMeter {
 public:
  explicit RunMeter(std::string simd_target);
  /// Completes the context with the steal share since construction and
  /// the workload's measured effective parallelism (CPU time of the system
  /// under test and the load generator ÷ wall time of the measured phase).
  RunContext Finish(double effective_parallelism);

 private:
  RunContext context_;
  CpuJiffies start_;
};

}  // namespace perfbench

#endif  // FREEWAY_PERFBENCH_HOST_H_
