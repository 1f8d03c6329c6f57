// learn_drift: one in-process driver thread runs test-then-train on one
// Learner — Learner::Infer, then Learner::Train — over Covertype-shaped
// drifting tapes (54 features, 7 classes, 1024-row batches) compiled from
// specs/learn_drift.scn. The tapes are replayed in turn, each on a fresh
// Learner, until the time budget is spent; every replay must reproduce its
// tape's single-thread reference replay exactly (accuracy and every
// mechanism/shift counter), the learner's bit-identical-at-any-thread-count
// guarantee.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "clustering/kmeans.h"
#include "common/thread_pool.h"
#include "core/learner.h"
#include "ml/models.h"
#include "obs/metrics.h"
#include "scenarios/scenario.h"
#include "scenarios/spec.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

using freeway::Batch;
using freeway::GeneratedScenario;
using freeway::Learner;
using freeway::LearnerStats;

namespace {

/// Learner construction repeats for the set-up median.
constexpr int kSetupRepeats = 201;
/// Restores timed after every replay, so the recovery samples spread over
/// the whole run instead of one moment of the host's load.
constexpr int kRestoresPerReplay = 2;
/// Every timed percentile needs 1000 samples for its p99.
constexpr size_t kMinBatchSamples = 1000;
/// Tapes per run, generated from seeds derived from the run's seed. Which
/// mechanism answers a batch depends on the drawn data, and the slowest
/// mechanism sets the tail, so one run pools several draws.
constexpr uint64_t kTapes = 8;
/// Pool threads of the timed replays. On a shared host, every ParallelFor
/// waits for its slowest chunk, so four threads turn other tenants' CPU
/// steal into stalls; two keep the pool busy and the figures steady.
constexpr size_t kPoolThreads = 2;

/// What one replay of the tape must reproduce exactly.
struct ReplayOutcome {
  uint64_t correct_rows = 0;
  uint64_t scored_rows = 0;
  LearnerStats stats;
  double knowledge_bytes = 0.0;
  /// Adds another replay's counts (knowledge bytes are averaged by the
  /// caller).
  void Add(const ReplayOutcome& o) {
    correct_rows += o.correct_rows;
    scored_rows += o.scored_rows;
    knowledge_bytes += o.knowledge_bytes;
    stats.ensemble_inferences += o.stats.ensemble_inferences;
    stats.cec_inferences += o.stats.cec_inferences;
    stats.knowledge_inferences += o.stats.knowledge_inferences;
    stats.slight_patterns += o.stats.slight_patterns;
    stats.sudden_patterns += o.stats.sudden_patterns;
    stats.reoccurring_patterns += o.stats.reoccurring_patterns;
  }
  bool operator==(const ReplayOutcome& o) const {
    const LearnerStats& a = stats;
    const LearnerStats& b = o.stats;
    return correct_rows == o.correct_rows && scored_rows == o.scored_rows &&
           a.batches_inferred == b.batches_inferred &&
           a.batches_trained == b.batches_trained &&
           a.ensemble_inferences == b.ensemble_inferences &&
           a.cec_inferences == b.cec_inferences &&
           a.knowledge_inferences == b.knowledge_inferences &&
           a.slight_patterns == b.slight_patterns &&
           a.sudden_patterns == b.sudden_patterns &&
           a.reoccurring_patterns == b.reoccurring_patterns &&
           a.knowledge_preserved == b.knowledge_preserved &&
           a.long_model_updates == b.long_model_updates;
  }
};

struct Timings {
  std::vector<double> infer_us;
  std::vector<double> train_us;
  uint64_t rows = 0;
  double wall_s = 0.0;
};

/// Replays the whole tape on `learner`. Counts each Infer/Train error as a
/// failed operation. `spans` (may be disabled) gets one "batch" root per
/// base batch with "core.infer" and "core.train" children.
ReplayOutcome Replay(const GeneratedScenario& tape, Learner* learner,
                     size_t replay_index, Timings* timings, SpanBuffer* spans,
                     Report* report) {
  ReplayOutcome out;
  const size_t n = tape.batches.size();
  for (size_t b = 0; b < n; ++b) {
    const Batch& batch = tape.batches[b];
    const int64_t id = static_cast<int64_t>(replay_index * n + b);
    const int64_t t0 = NowNs();
    const int64_t root = spans->Open("batch", t0, 0, id);
    auto inferred = learner->Infer(batch.features);
    const int64_t t1 = NowNs();
    spans->Add("core.infer", t0, t1, 0, id, root);
    const freeway::Status trained = learner->Train(batch);
    const int64_t t2 = NowNs();
    spans->Add("core.train", t1, t2, 0, id, root);
    report->attempted += 2;
    if (!inferred.ok() || !trained.ok()) {
      report->failed += (inferred.ok() ? 0 : 1) + (trained.ok() ? 0 : 1);
      report->Fail("learner error on batch " + std::to_string(b) + ": " +
                   (inferred.ok() ? trained.ToString()
                                  : inferred.status().ToString()));
      spans->Close(root, NowNs());
      continue;
    }
    if (b >= tape.spec.warmup_batches) {
      const std::vector<int>& predicted = inferred->predictions;
      for (size_t r = 0; r < predicted.size(); ++r) {
        out.correct_rows += predicted[r] == batch.labels[r] ? 1 : 0;
      }
      out.scored_rows += predicted.size();
    }
    spans->Close(root, NowNs());
    if (timings != nullptr) {
      timings->infer_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      timings->train_us.push_back(static_cast<double>(t2 - t1) / 1e3);
      timings->rows += batch.size();
    }
  }
  out.stats = learner->stats();
  out.knowledge_bytes = static_cast<double>(learner->knowledge().HotSpaceBytes());
  return out;
}

freeway::Matrix StackRows(const std::vector<Batch>& batches, size_t first,
                          size_t count) {
  const size_t dim = batches[first].dim();
  size_t rows = 0;
  for (size_t i = 0; i < count; ++i) rows += batches[first + i].size();
  freeway::Matrix out(rows, dim);
  size_t r = 0;
  for (size_t i = 0; i < count; ++i) {
    const auto& m = batches[first + i].features;
    for (size_t j = 0; j < m.rows(); ++j) out.SetRow(r++, m.Row(j));
  }
  return out;
}

double ElapsedUs(int64_t from_ns) {
  return static_cast<double>(NowNs() - from_ns) / 1e3;
}

}  // namespace

void RunLearnDrift(const RunArgs& args, Report* report) {
  auto spec = freeway::LoadScenarioSpecFile(args.spec_dir + "/learn_drift.scn");
  if (!spec.ok()) {
    report->Fail("spec: " + spec.status().ToString());
    return;
  }
  std::vector<GeneratedScenario> tapes;
  for (uint64_t k = 0; k < kTapes; ++k) {
    spec->seed = args.seed * kTapes + k;
    auto tape = freeway::GenerateScenario(*spec);
    if (!tape.ok()) {
      report->Fail("generate: " + tape.status().ToString());
      return;
    }
    tapes.push_back(*std::move(tape));
  }
  const size_t dim = spec->dim;
  const size_t classes = spec->classes;
  const auto prototype = freeway::MakeMlp(dim, classes);
  const freeway::LearnerOptions options;  // The paper's template defaults.

  // Set-up: learner construction, median of repeats.
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const int64_t t0 = NowNs();
    auto learner = std::make_unique<Learner>(*prototype, options);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  // References: every tape on a one-thread pool.
  const size_t pool_threads = freeway::ThreadPool::Global()->num_threads();
  SpanBuffer no_spans(false);
  freeway::ThreadPool::SetGlobalThreads(1);
  std::vector<ReplayOutcome> references;
  ReplayOutcome total;
  for (const GeneratedScenario& tape : tapes) {
    Learner learner(*prototype, options);
    references.push_back(Replay(tape, &learner, 0, nullptr, &no_spans, report));
    total.Add(references.back());
  }
  freeway::ThreadPool::SetGlobalThreads(std::min<size_t>(pool_threads, kPoolThreads));
  freeway::MetricsRegistry registry;
  if (args.trace) freeway::ThreadPool::Global()->AttachMetrics(&registry);

  // Timed replays. With tracing on, replays alternate untraced / traced so
  // the run measures its own tracing overhead.
  Timings timed;
  Timings plain_half, traced_half;
  std::vector<double> replay_rps;
  SpanBuffer spans(args.trace);
  /// Per tape: time for a fresh learner to restore the replayed learner's
  /// snapshot and answer one batch.
  std::vector<std::vector<double>> restore_ms(kTapes);
  const double cpu0 = SelfCpuSeconds();
  const int64_t start = NowNs();
  const double budget_s = args.seconds;
  size_t replays = 0;
  while (true) {
    const double elapsed = static_cast<double>(NowNs() - start) / 1e9;
    const bool enough = timed.infer_us.size() >= kMinBatchSamples;
    if ((elapsed >= budget_s && enough) || elapsed >= 3 * budget_s) break;
    const bool traced = args.trace && replays % 2 == 1;
    auto learner = std::make_unique<Learner>(*prototype, options);
    if (traced) learner->AttachMetrics(&registry);
    SpanBuffer* sink = traced ? &spans : &no_spans;
    Timings* half = traced ? &traced_half : &plain_half;
    const int64_t r0 = NowNs();
    Timings one;
    const ReplayOutcome outcome = Replay(tapes[replays % kTapes], learner.get(),
                                         replays, &one, sink, report);
    one.wall_s = static_cast<double>(NowNs() - r0) / 1e9;
    if (!(outcome == references[replays % kTapes])) {
      ++report->failed;
      report->Fail("replay " + std::to_string(replays) +
                   " diverged from the single-thread reference");
    }
    ++report->attempted;  // The replay's exact-match check.
    replay_rps.push_back(static_cast<double>(one.rows) / one.wall_s);
    for (Timings* t : {&timed, half}) {
      t->infer_us.insert(t->infer_us.end(), one.infer_us.begin(), one.infer_us.end());
      t->train_us.insert(t->train_us.end(), one.train_us.begin(), one.train_us.end());
      t->rows += one.rows;
      t->wall_s += one.wall_s;
    }
    std::vector<char> snapshot;
    if (!learner->Snapshot(&snapshot).ok()) {
      report->Fail("snapshot after replay " + std::to_string(replays) + " failed");
    }
    for (int i = 0; i < kRestoresPerReplay && !snapshot.empty(); ++i) {
      const int64_t t0 = NowNs();
      Learner restored(*prototype, options);
      const freeway::Status restored_ok = restored.Restore(snapshot);
      auto answered = restored.Infer(tapes[replays % kTapes].batches.front().features);
      restore_ms[replays % kTapes].push_back(static_cast<double>(NowNs() - t0) / 1e6);
      ++report->attempted;
      if (!restored_ok.ok() || !answered.ok()) {
        ++report->failed;
        report->Fail("restore from snapshot failed");
      }
    }
    ++replays;
  }
  const double wall_s = static_cast<double>(NowNs() - start) / 1e9;
  const double cpu_s = SelfCpuSeconds() - cpu0;

  // Restore cost grows with the knowledge store, which differs per tape, so
  // the recovery metric is the mean of the per-tape medians.
  double recovery_ms = 0;
  size_t restores = 0;
  for (const auto& samples : restore_ms) {
    recovery_ms += Median(samples) / kTapes;
    restores += samples.size();
  }

  const double accuracy =
      total.scored_rows > 0 ? static_cast<double>(total.correct_rows) /
                                  static_cast<double>(total.scored_rows)
                            : 0.0;
  const size_t n = timed.infer_us.size();
  const double rps = Median(replay_rps);
  report->E2e("setup_s", Median(setup_s), "s", setup_s.size());
  report->E2e("records_per_s", rps, "1/s", n);
  report->E2e("read_p50_us", CheckedPercentile(report, "infer", timed.infer_us, 0.5), "us", n);
  report->E2e("read_p95_us", CheckedPercentile(report, "infer", timed.infer_us, 0.95), "us", n);
  report->E2e("write_p95_us", CheckedPercentile(report, "train", timed.train_us, 0.95), "us", n);
  report->E2e("accuracy", accuracy, "ratio", total.scored_rows);
  report->E2e("ok_frac",
              report->attempted > 0
                  ? 1.0 - static_cast<double>(report->failed) /
                              static_cast<double>(report->attempted)
                  : 0.0,
              "ratio");
  report->E2e("peak_rss_mb", PeakRssMb(getpid()), "MB");
  report->Detail("restore_ms", recovery_ms, "ms", restores);

  // The issue's names for the same numbers.
  report->Detail("infer_p50_us", report->end_to_end[2].value, "us", n);
  report->Detail("infer_p99_us", CheckedPercentile(report, "infer", timed.infer_us, 0.99), "us", n);
  report->Detail("train_p50_us", CheckedPercentile(report, "train", timed.train_us, 0.5), "us", n);
  report->Detail("train_p99_us", CheckedPercentile(report, "train", timed.train_us, 0.99), "us", n);
  report->Detail("replays", static_cast<double>(replays), "count");
  report->Detail("tape_batches", static_cast<double>(kTapes * tapes.front().batches.size()), "count");

  report->context.effective_parallelism = wall_s > 0 ? cpu_s / wall_s : 0.0;

  if (!args.trace) return;

  // ---- Per-layer metrics (traced run). ----------------------------------
  const auto sample = ParsePrometheus(registry.ToPrometheusText());
  auto stage = [&](const char* name) {
    return ReadHistogram(sample, "freeway_learner_stage_seconds",
                         std::string("stage=\"") + name + "\"");
  };
  report->Layer("core.detect_us", stage("detect").Mean() * 1e6, "us",
                static_cast<size_t>(stage("detect").count));
  report->Layer("core.infer_us", stage("infer").Mean() * 1e6, "us",
                static_cast<size_t>(stage("infer").count));
  report->Layer("core.train_us", stage("train").Mean() * 1e6, "us",
                static_cast<size_t>(stage("train").count));
  const LearnerStats& st = total.stats;
  report->Layer("core.mech.multi_granularity", static_cast<double>(st.ensemble_inferences), "count");
  report->Layer("core.mech.cec", static_cast<double>(st.cec_inferences), "count");
  report->Layer("core.mech.knowledge_reuse", static_cast<double>(st.knowledge_inferences), "count");
  report->Layer("core.shift.slight", static_cast<double>(st.slight_patterns), "count");
  report->Layer("core.shift.sudden", static_cast<double>(st.sudden_patterns), "count");
  report->Layer("core.shift.reoccurring", static_cast<double>(st.reoccurring_patterns), "count");
  report->Layer("core.knowledge_bytes", total.knowledge_bytes / kTapes, "bytes");
  report->Layer("core.restore_ms", recovery_ms, "ms", restores);

  // ml / linalg / clustering at this workload's own shapes.
  {
    auto model = prototype->Clone();
    const freeway::Matrix& x = tapes.front().batches.front().features;
    std::vector<double> forward_us;
    for (int i = 0; i < 101; ++i) {
      const int64_t t0 = NowNs();
      auto p = model->PredictProba(x);
      forward_us.push_back(ElapsedUs(t0));
      if (!p.ok()) report->Fail("forward: " + p.status().ToString());
    }
    const freeway::ModelConfig cfg;
    const double hidden = static_cast<double>(cfg.hidden_dim);
    const double forward_flops =
        2.0 * static_cast<double>(x.rows()) *
        (static_cast<double>(dim) * hidden + hidden * static_cast<double>(classes));
    report->Layer("ml.forward_us", Median(forward_us), "us", forward_us.size());
    report->Layer("ml.forward_flops_computed", forward_flops, "flop");

    // CEC clusters the experience buffer plus the query batch into
    // clusters_per_class * classes groups.
    const size_t exp_batches =
        std::min<size_t>(options.exp_buffer_capacity / spec->batch_size,
                         tapes.front().batches.size() - 1);
    const freeway::Matrix points = StackRows(tapes.front().batches, 0, exp_batches + 1);
    const size_t k = options.cec.clusters_per_class * classes;
    std::vector<double> kmeans_us;
    double iterations = 0;
    for (int i = 0; i < 11; ++i) {
      const int64_t t0 = NowNs();
      auto km = freeway::KMeans(points, k, options.cec.kmeans);
      kmeans_us.push_back(ElapsedUs(t0));
      if (km.ok()) iterations = km->iterations;
    }
    report->Layer("clustering.kmeans_us", Median(kmeans_us), "us", kmeans_us.size());
    report->Layer("clustering.kmeans_flops_computed",
                  3.0 * iterations * static_cast<double>(points.rows()) *
                      static_cast<double>(k) * static_cast<double>(dim),
                  "flop");
  }

  const auto pool_wait = ReadHistogram(sample, "freeway_threadpool_task_wait_seconds");
  const auto pool_run = ReadHistogram(sample, "freeway_threadpool_task_run_seconds");
  report->Layer("pool.task_wait_us", pool_wait.Mean() * 1e6, "us",
                static_cast<size_t>(pool_wait.count));
  report->Layer("pool.task_run_us", pool_run.Mean() * 1e6, "us",
                static_cast<size_t>(pool_run.count));
  report->Layer("pool.tasks", SumFamily(sample, "freeway_threadpool_tasks_total"), "count");
  report->Layer("effective_parallelism", report->context.effective_parallelism, "ratio");

  const double plain_us = plain_half.rows > 0 ? plain_half.wall_s * 1e6 / static_cast<double>(plain_half.rows) : 0.0;
  const double traced_us = traced_half.rows > 0 ? traced_half.wall_s * 1e6 / static_cast<double>(traced_half.rows) : 0.0;
  report->Layer("trace.overhead_frac", plain_us > 0 ? (traced_us - plain_us) / plain_us : 0.0, "ratio");

  const auto self = SelfTimes(spans.spans());
  for (const auto& [name, st2] : self) {
    report->Layer("self." + name + "_us", st2.MeanUs(), "us", st2.count);
  }
  const std::string trace_path = args.work_dir + "/trace-learn_drift.json";
  if (!WriteChromeTrace(trace_path, {&spans})) {
    report->Fail("cannot write " + trace_path);
  } else {
    std::printf("chrome trace: %s\n", trace_path.c_str());
  }
}

}  // namespace perfbench
