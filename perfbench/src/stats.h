#ifndef FREEWAY_PERFBENCH_STATS_H_
#define FREEWAY_PERFBENCH_STATS_H_

// Pure arithmetic shared by the benchmark driver and its tests: percentiles
// that refuse to extrapolate, Prometheus-text deltas, and the due-time
// latency bookkeeping of the open-loop generator.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a percentile's rank for the
/// percentile to be reported. A p99 therefore needs at least 1000 samples.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile of `samples` (q in (0, 1)). Returns nullopt when
/// fewer than kMinSamplesBeyond samples lie beyond the chosen rank: such a
/// percentile would be set by a handful of outliers.
std::optional<double> Percentile(std::vector<double> samples, double q);

/// Median of a non-empty sample (no validity rule: used for repeated
/// set-up and recovery timings, where every sample is a whole event).
double Median(std::vector<double> samples);

/// One parsed Prometheus text exposition: series name (labels included,
/// exactly as rendered) -> value. Histogram bucket lines keep their `le`
/// label in the key.
using MetricSample = std::map<std::string, double>;

/// Parses `# TYPE`-annotated Prometheus text. Comment and blank lines are
/// skipped; a line whose value does not parse is skipped too.
MetricSample ParsePrometheus(const std::string& text);

/// after - before, per series present in `after` (a series missing from
/// `before` counts from 0). Gauges subtract too; callers read gauges from
/// `after` directly.
MetricSample Delta(const MetricSample& before, const MetricSample& after);

/// Sum of every series whose name is `family` or starts with `family{`,
/// excluding histogram `_bucket`/`_sum`/`_count` expansions.
double SumFamily(const MetricSample& sample, const std::string& family);

/// A histogram read back from `family_bucket{...le="x"}`, `family_sum` and
/// `family_count` series (cumulative buckets, as rendered).
struct HistogramView {
  std::vector<std::pair<double, double>> buckets;  ///< (le, cumulative).
  double sum = 0.0;
  double count = 0.0;
  double Mean() const { return count > 0 ? sum / count : 0.0; }
  /// Linear interpolation inside the bucket holding rank q*count (the
  /// Prometheus histogram_quantile rule); 0 when empty. Coarse by
  /// construction: the server's buckets are a decade or half a decade
  /// wide.
  double Quantile(double q) const;
};

/// Extracts `family`'s histogram; label sets other than `le` must match
/// `labels` (e.g. `stage="infer"`, or empty).
HistogramView ReadHistogram(const MetricSample& sample,
                            const std::string& family,
                            const std::string& labels = "");

/// Per-request timing of an open-loop generator. Every request has a due
/// time fixed by the schedule; latency is measured from the due time, not
/// from the moment the (possibly late) send happened, so a stalled sender
/// charges its stall to every request queued behind it.
class DueTimeLog {
 public:
  /// Registers request `id` as due at `due_ns` (steady-clock nanoseconds).
  void Due(uint64_t id, int64_t due_ns);
  /// The request left the generator at `sent_ns`.
  void Sent(uint64_t id, int64_t sent_ns);
  /// The request completed (ACK or RESULT) at `done_ns`.
  void Done(uint64_t id, int64_t done_ns);

  /// The due time registered for `id` (0 when unknown).
  int64_t DueOf(uint64_t id) const;
  /// done - due of every completed request, in microseconds.
  std::vector<double> LatenciesMicros() const;
  /// sent - due of every sent request, in microseconds (generator lag).
  std::vector<double> LagsMicros() const;

 private:
  struct Entry {
    int64_t due = 0;
    int64_t sent = -1;
    int64_t done = -1;
  };
  std::unordered_map<uint64_t, Entry> entries_;
};

}  // namespace perfbench

#endif  // FREEWAY_PERFBENCH_STATS_H_
