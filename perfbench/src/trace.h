#ifndef FREEWAY_PERFBENCH_TRACE_H_
#define FREEWAY_PERFBENCH_TRACE_H_

// In-memory spans recorded by the benchmark's own code around its calls
// into each layer's public functions. Nothing here reaches into the
// program: a span covers exactly one call (or one client-side wait) and
// all spans of one batch share the id (stream_id, batch_index).

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< Static string: a layer boundary.
  int64_t start_ns = 0;
  int64_t end_ns = -1;    ///< -1 while open.
  int64_t parent = -1;    ///< Index in the same buffer, -1 for a root.
  uint64_t stream_id = 0;
  int64_t batch_index = 0;
};

/// One thread's spans. Not thread-safe: each recording thread owns one, and
/// SelfTimes / WriteChromeTrace read it once that thread has been joined.
class SpanBuffer {
 public:
  explicit SpanBuffer(bool enabled) : enabled_(enabled) {}

  /// Opens a span; returns its index (or -1 while disabled).
  int64_t Open(const char* name, int64_t start_ns, uint64_t stream_id,
               int64_t batch_index, int64_t parent = -1);
  void Close(int64_t index, int64_t end_ns);
  /// Records an already finished span.
  int64_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              uint64_t stream_id, int64_t batch_index, int64_t parent = -1);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Self time per span name: a span's duration minus the part of it that
/// its children cover (overlapping children are merged first, and child
/// time outside the parent's interval is ignored).
struct SelfTime {
  double total_us = 0.0;
  size_t count = 0;
  double MeanUs() const { return count ? total_us / static_cast<double>(count) : 0.0; }
};
std::map<std::string, SelfTime> SelfTimes(const std::vector<Span>& spans);

/// Writes every buffer as Chrome trace-event JSON ("X" complete events,
/// one tid per buffer, timestamps in µs relative to the earliest span).
/// Returns false when the file cannot be written.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanBuffer*>& buffers);

}  // namespace perfbench

#endif  // FREEWAY_PERFBENCH_TRACE_H_
