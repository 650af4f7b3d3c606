#include "harness/common.h"

#include <algorithm>

#include "harness/trace.h"
#include "observe/metrics.h"
#include "util/proc_stats.h"

namespace perfbench {

void WorkloadResult::Check(bool ok, const std::string& what) {
  tally.Add(ok);
  if (!ok) check_failures.push_back(what);
}

const std::vector<WorkloadEntry>& Workloads() {
  static const std::vector<WorkloadEntry> kWorkloads = {
      {"train_cora", RunTrainCora},
      {"train_sampled", RunTrainSampled},
      {"serve_read", RunServeRead},
      {"stream_update", RunStreamUpdate},
  };
  return kWorkloads;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {

rdd::CitationGenConfig TinyConfig() {
  rdd::CitationGenConfig config = rdd::CoraLikeConfig();
  config.name = "tiny";
  config.num_nodes = 800;
  config.num_features = 300;
  config.num_edges = 1600;
  config.num_classes = 4;
  config.val_size = 200;
  config.test_size = 300;
  return config;
}

}  // namespace

rdd::bench::BenchDataset CoraBench(bool tiny) {
  rdd::bench::BenchDataset d = rdd::bench::CoraBench();
  if (tiny) d.gen = TinyConfig();
  return d;
}

rdd::bench::BenchDataset PubmedBench(bool tiny) {
  rdd::bench::BenchDataset d =
      rdd::bench::EvaluationDatasets(/*include_nell=*/false)[2];
  if (tiny) d.gen = TinyConfig();
  return d;
}

rdd::DistillConfig FixedEpochDistill(int epochs) {
  rdd::DistillConfig config;
  config.train.max_epochs = epochs;
  config.train.patience = epochs;
  return config;
}

double MedianSeconds(int times, const std::function<void()>& fn) {
  std::vector<double> seconds;
  for (int i = 0; i < times; ++i) {
    const double start = NowSeconds();
    fn();
    seconds.push_back(NowSeconds() - start);
  }
  return Median(seconds);
}

bool SameLabels(const std::vector<int64_t>& expected,
                const std::vector<int64_t>& nodes,
                const std::vector<int64_t>& labels) {
  if (labels.size() != nodes.size()) return false;
  for (size_t j = 0; j < nodes.size(); ++j) {
    if (labels[j] != expected[static_cast<size_t>(nodes[j])]) return false;
  }
  return true;
}

std::vector<int64_t> AllNodes(int64_t n) {
  std::vector<int64_t> nodes(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) nodes[static_cast<size_t>(i)] = i;
  return nodes;
}

int64_t MembersToTarget(const rdd::RddResult& result, double target) {
  const auto& curve = result.ensemble_accuracy_after_member;
  for (size_t t = 0; t < curve.size(); ++t) {
    if (curve[t] >= target) return static_cast<int64_t>(t) + 1;
  }
  return static_cast<int64_t>(curve.size()) + 1;
}

int64_t TotalEpochs(const rdd::RddResult& result) {
  int64_t epochs = 0;
  for (const rdd::TrainReport& report : result.reports) {
    epochs += report.epochs_run;
  }
  return epochs;
}

Counters ReadCounters() {
  const rdd::observe::MetricsSnapshot snapshot =
      rdd::observe::MetricsRegistry::Global().Snapshot();
  Counters counters;
  for (const auto& c : snapshot.counters) counters[c.name] = c.value;
  for (const auto& g : snapshot.gauges) counters[g.name] = g.value;
  for (const auto& h : snapshot.histograms) {
    counters[h.name + ".sum"] = static_cast<int64_t>(h.sum);
  }
  return counters;
}

void ReportCounterDelta(const Counters& before, const Counters& after,
                        Report* report) {
  auto delta = [&](const std::string& name) {
    const auto a = after.find(name);
    const auto b = before.find(name);
    return static_cast<double>((a == after.end() ? 0 : a->second) -
                               (b == before.end() ? 0 : b->second));
  };
  for (const char* name :
       {"simd.gemm.calls", "simd.gemm.flops", "simd.spmm.calls",
        "simd.spmm.flops", "simd.fused_gemm_bias_relu.calls",
        "simd.fused_spmm_bias_relu.calls", "simd.fused_softmax_xent.calls",
        "simd.optimizer.calls", "pool.hits", "pool.misses",
        "threadpool.submitted", "taskgroup.tasks_inline"}) {
    report->Set(name, delta(name), "count");
  }
  const double hits = delta("simd.fusion.hits");
  const double misses = delta("simd.fusion.misses");
  report->Set("simd.fusion.hit_rate_pct",
              hits + misses > 0 ? 100.0 * hits / (hits + misses) : 0.0, "%");
  const double pool_hits = delta("pool.hits");
  const double pool_misses = delta("pool.misses");
  report->Set("pool.hit_ratio",
              pool_hits + pool_misses > 0
                  ? pool_hits / (pool_hits + pool_misses)
                  : 0.0,
              "ratio");
  report->Set("taskgroup.task_ms", delta("taskgroup.task_ns.sum") * 1e-6,
              "ms");
  const auto peak = after.find("pool.peak_live_floats");
  report->Set("pool.peak_live_mib",
              peak == after.end()
                  ? 0.0
                  : static_cast<double>(peak->second) * 4.0 / (1 << 20),
              "MiB");
}

void ReportProcessTotals(const WorkloadOptions& options, Report* report) {
  report->Set("peak_rss_mib", rdd::util::PeakRssMib(), "MiB");
  if (!options.trace) return;
  const Tracer& tracer = Tracer::Global();
  for (const auto& [layer, ms] : tracer.SelfMsByLayer()) {
    report->Set("self_ms." + layer, ms, "ms");
  }
  report->Set("trace.spans", static_cast<double>(tracer.size()), "count");
}

}  // namespace perfbench
