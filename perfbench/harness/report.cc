#include "harness/report.h"

#include <cmath>
#include <cstdio>

namespace perfbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s"},
      {"peak_rss_mib", "MiB"},
      {"primary_ms", "ms"},
      {"secondary_ms", "ms"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"data.generate_s", "s"},
      {"data.save_checkpoint_ms", "ms"},
      {"data.save_dataset_ms", "ms"},
      {"graph.context_build_ms", "ms"},
      {"graph.sample_view_ms", "ms"},
      {"graph.view_nodes", "count"},
      {"graph.view_edges", "count"},
      {"graph.induced_view_ms", "ms"},
      {"stream.apply_ms", "ms"},
      {"stream.incremental_s", "s"},
      {"stream.affected_share", "ratio"},
      {"stream.epochs", "count"},
      {"core.epochs", "count"},
      {"core.epoch_ms", "ms"},
      {"core.members_to_target", "count"},
      {"core.reliable_share", "ratio"},
      {"core.node_reliability_ms", "ms"},
      {"models.eval_forward_ms", "ms"},
      {"simd.gemm.calls", "count"},
      {"simd.gemm.flops", "count"},
      {"simd.spmm.calls", "count"},
      {"simd.spmm.flops", "count"},
      {"simd.fused_gemm_bias_relu.calls", "count"},
      {"simd.fused_spmm_bias_relu.calls", "count"},
      {"simd.fused_softmax_xent.calls", "count"},
      {"simd.fusion.hit_rate_pct", "%"},
      {"simd.optimizer.calls", "count"},
      {"pool.hits", "count"},
      {"pool.misses", "count"},
      {"pool.hit_ratio", "ratio"},
      {"pool.peak_live_mib", "MiB"},
      {"threadpool.submitted", "count"},
      {"taskgroup.task_ms", "ms"},
      {"taskgroup.tasks_inline", "count"},
      {"serve.mlp_predict_us", "us"},
      {"serve.ensemble_predict_us", "us"},
      {"serve.load_ms", "ms"},
      {"daemon.overhead_us", "us"},
      {"daemon.start_ms", "ms"},
      {"daemon.swap_ms", "ms"},
      {"daemon.busy_ratio", "ratio"},
      {"loadgen.late_ms", "ms"},
      {"self_ms.bench", "ms"},
      {"self_ms.data", "ms"},
      {"self_ms.graph", "ms"},
      {"self_ms.stream", "ms"},
      {"self_ms.core", "ms"},
      {"self_ms.models", "ms"},
      {"self_ms.serve", "ms"},
      {"trace.spans", "count"},
      {"trace.overhead_pct", "%"},
  };
  return kMetrics;
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (Entry& entry : entries_) {
    if (entry.name == name) {
      entry.value = value;
      entry.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

const Report::Entry* Report::Find(const std::string& name) const {
  for (const Entry& entry : entries_) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

bool Report::Has(const std::string& name) const {
  return Find(name) != nullptr;
}

double Report::Get(const std::string& name) const {
  const Entry* entry = Find(name);
  return entry == nullptr ? 0.0 : entry->value;
}

void Report::PrintAll(std::FILE* out) const {
  for (const Entry& entry : entries_) {
    std::fprintf(out, "  %-34s %.6g %s\n", entry.name.c_str(), entry.value,
                 entry.unit.c_str());
  }
}

namespace {

// JSON has no infinity; a failed operation's latency is capped here.
double Finite(double value) {
  if (std::isnan(value)) return 0.0;
  return std::isinf(value) ? 1e12 : value;
}

}  // namespace

std::vector<std::string> Report::MissingEndToEnd() const {
  std::vector<std::string> missing;
  for (const MetricSpec& spec : EndToEndMetrics()) {
    if (!Has(spec.name)) missing.push_back(spec.name);
  }
  return missing;
}

std::string Report::ResultLine(bool trace, bool correct,
                               const Tally& tally) const {
  std::string metrics;
  for (const MetricSpec& spec : trace ? PerLayerMetrics() : EndToEndMetrics()) {
    const Entry* entry = Find(spec.name);
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", spec.name,
                  Finite(entry == nullptr ? 0.0 : entry->value), spec.unit);
    metrics += buffer;
  }
  char head[128];
  std::snprintf(head, sizeof(head),
                "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, ",
                correct ? "true" : "false",
                static_cast<long long>(tally.attempted),
                static_cast<long long>(tally.failed));
  return std::string(head) + "\"metrics\": {" + metrics + "}}";
}

}  // namespace perfbench
