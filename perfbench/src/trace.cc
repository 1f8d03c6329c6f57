#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <limits>

namespace perfbench {

int64_t SpanBuffer::Open(const char* name, int64_t start_ns,
                         uint64_t stream_id, int64_t batch_index,
                         int64_t parent) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, start_ns, -1, parent, stream_id, batch_index});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanBuffer::Close(int64_t index, int64_t end_ns) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_ns = end_ns;
}

int64_t SpanBuffer::Add(const char* name, int64_t start_ns, int64_t end_ns,
                        uint64_t stream_id, int64_t batch_index,
                        int64_t parent) {
  const int64_t index = Open(name, start_ns, stream_id, batch_index, parent);
  Close(index, end_ns);
  return index;
}

std::map<std::string, SelfTime> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t p = spans[i].parent;
    if (p >= 0 && static_cast<size_t>(p) < spans.size()) {
      children[static_cast<size_t>(p)].push_back(i);
    }
  }
  std::map<std::string, SelfTime> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns < s.start_ns) continue;  // Never closed.
    std::vector<std::pair<int64_t, int64_t>> covered;
    for (size_t c : children[i]) {
      const int64_t lo = std::max(spans[c].start_ns, s.start_ns);
      const int64_t hi = std::min(spans[c].end_ns, s.end_ns);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    int64_t covered_ns = 0;
    int64_t run_lo = 0, run_hi = std::numeric_limits<int64_t>::min();
    for (const auto& [lo, hi] : covered) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered_ns += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered_ns += run_hi - run_lo;
    SelfTime& st = out[s.name];
    st.total_us += static_cast<double>(s.end_ns - s.start_ns - covered_ns) / 1e3;
    ++st.count;
  }
  return out;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanBuffer*>& buffers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = std::numeric_limits<int64_t>::max();
  for (const SpanBuffer* b : buffers) {
    for (const Span& s : b->spans()) origin = std::min(origin, s.start_ns);
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  bool first = true;
  for (size_t tid = 0; tid < buffers.size(); ++tid) {
    const auto& spans = buffers[tid]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.end_ns < s.start_ns) continue;
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":\"%llu/%lld\","
                   "\"span\":%zu,\"parent\":%lld}}",
                   first ? "" : ",", s.name, tid,
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.stream_id),
                   static_cast<long long>(s.batch_index), i,
                   static_cast<long long>(s.parent));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
