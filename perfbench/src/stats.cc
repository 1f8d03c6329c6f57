#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

namespace perfbench {

std::optional<double> Percentile(std::vector<double> samples, double q) {
  const size_t n = samples.size();
  if (n == 0 || q <= 0.0 || q >= 1.0) return std::nullopt;
  // Nearest rank: the smallest sample with at least q*n samples at or
  // below it.
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  const size_t index = rank == 0 ? 0 : rank - 1;
  if (n - 1 - index < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

MetricSample ParsePrometheus(const std::string& text) {
  MetricSample out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    // The value follows the last space; label values never contain one in
    // this exposition.
    const size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0) continue;
    const std::string value_text = line.substr(space + 1);
    char* end = nullptr;
    const double value = std::strtod(value_text.c_str(), &end);
    if (end == value_text.c_str() || *end != '\0') continue;
    out[line.substr(0, space)] = value;
  }
  return out;
}

MetricSample Delta(const MetricSample& before, const MetricSample& after) {
  MetricSample out;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    out[name] = value - (it == before.end() ? 0.0 : it->second);
  }
  return out;
}

namespace {

/// Splits "fam{a="1",le="2"}" into family and the label list without the
/// `le` entry; returns the le value through `le` (empty when absent).
void SplitSeries(const std::string& series, std::string* family,
                 std::string* labels, std::string* le) {
  const size_t brace = series.find('{');
  labels->clear();
  le->clear();
  if (brace == std::string::npos) {
    *family = series;
    return;
  }
  *family = series.substr(0, brace);
  const size_t close = series.rfind('}');
  const std::string inner = series.substr(
      brace + 1, close == std::string::npos ? std::string::npos
                                            : close - brace - 1);
  size_t pos = 0;
  while (pos < inner.size()) {
    // Labels are key="value" separated by commas; values hold no quotes.
    const size_t quote_open = inner.find('"', pos);
    const size_t quote_close =
        quote_open == std::string::npos ? std::string::npos
                                        : inner.find('"', quote_open + 1);
    const std::string item =
        inner.substr(pos, quote_close == std::string::npos
                              ? std::string::npos
                              : quote_close + 1 - pos);
    if (item.rfind("le=", 0) == 0) {
      *le = item.substr(4, item.size() - 5);
    } else if (!item.empty()) {
      if (!labels->empty()) *labels += ",";
      *labels += item;
    }
    if (quote_close == std::string::npos) break;
    pos = quote_close + 1;
    if (pos < inner.size() && inner[pos] == ',') ++pos;
  }
}

}  // namespace

double SumFamily(const MetricSample& sample, const std::string& family) {
  double total = 0.0;
  for (const auto& [name, value] : sample) {
    if (name == family || name.rfind(family + "{", 0) == 0) total += value;
  }
  return total;
}

double HistogramView::Quantile(double q) const {
  if (count <= 0.0 || buckets.empty()) return 0.0;
  const double rank = q * count;
  double lower_bound = 0.0;
  double lower_count = 0.0;
  for (const auto& [le, cumulative] : buckets) {
    if (cumulative >= rank) {
      if (std::isinf(le)) return lower_bound;  // Beyond the last finite bound.
      const double in_bucket = cumulative - lower_count;
      if (in_bucket <= 0.0) return le;
      return lower_bound + (le - lower_bound) * (rank - lower_count) / in_bucket;
    }
    lower_bound = le;
    lower_count = cumulative;
  }
  return lower_bound;
}

HistogramView ReadHistogram(const MetricSample& sample,
                            const std::string& family,
                            const std::string& labels) {
  HistogramView view;
  for (const auto& [series, value] : sample) {
    std::string fam, lab, le;
    SplitSeries(series, &fam, &lab, &le);
    if (lab != labels) continue;
    if (fam == family + "_bucket" && !le.empty()) {
      const double bound = le == "+Inf"
                               ? std::numeric_limits<double>::infinity()
                               : std::strtod(le.c_str(), nullptr);
      view.buckets.emplace_back(bound, value);
    } else if (fam == family + "_sum") {
      view.sum = value;
    } else if (fam == family + "_count") {
      view.count = value;
    }
  }
  std::sort(view.buckets.begin(), view.buckets.end());
  return view;
}

void DueTimeLog::Due(uint64_t id, int64_t due_ns) { entries_[id].due = due_ns; }

void DueTimeLog::Sent(uint64_t id, int64_t sent_ns) {
  entries_[id].sent = sent_ns;
}

void DueTimeLog::Done(uint64_t id, int64_t done_ns) {
  entries_[id].done = done_ns;
}

int64_t DueTimeLog::DueOf(uint64_t id) const {
  const auto it = entries_.find(id);
  return it == entries_.end() ? 0 : it->second.due;
}

std::vector<double> DueTimeLog::LatenciesMicros() const {
  std::vector<double> out;
  out.reserve(entries_.size());
  for (const auto& [id, e] : entries_) {
    if (e.done >= 0) out.push_back(static_cast<double>(e.done - e.due) / 1e3);
  }
  return out;
}

std::vector<double> DueTimeLog::LagsMicros() const {
  std::vector<double> out;
  out.reserve(entries_.size());
  for (const auto& [id, e] : entries_) {
    if (e.sent >= 0) out.push_back(static_cast<double>(e.sent - e.due) / 1e3);
  }
  return out;
}

}  // namespace perfbench
