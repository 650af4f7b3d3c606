#include "simd/kernel_stats.h"

#include "observe/metrics.h"

namespace rdd::simd {

namespace {

/// Resolved once per call site; the references stay valid forever (the
/// registry never relocates instruments).
struct KernelCounters {
  observe::Counter& gemm_calls;
  observe::Counter& gemm_flops;
  observe::Counter& spmm_calls;
  observe::Counter& spmm_flops;
  observe::Counter& opt_calls;
  observe::Counter& opt_flops;
  observe::Counter& fused_gemm_calls;
  observe::Counter& fused_gemm_flops;
  observe::Counter& fused_spmm_calls;
  observe::Counter& fused_spmm_flops;
  observe::Counter& fused_xent_calls;
  observe::Counter& fused_xent_flops;
  observe::Counter& fusion_hits;
  observe::Counter& fusion_misses;
};

KernelCounters& Counters() {
  static KernelCounters* counters = [] {
    observe::MetricsRegistry& r = observe::MetricsRegistry::Global();
    auto* c = new KernelCounters{
        r.counter("simd.gemm.calls"),   r.counter("simd.gemm.flops"),
        r.counter("simd.spmm.calls"),   r.counter("simd.spmm.flops"),
        r.counter("simd.optimizer.calls"),
        r.counter("simd.optimizer.flops"),
        r.counter("simd.fused_gemm_bias_relu.calls"),
        r.counter("simd.fused_gemm_bias_relu.flops"),
        r.counter("simd.fused_spmm_bias_relu.calls"),
        r.counter("simd.fused_spmm_bias_relu.flops"),
        r.counter("simd.fused_softmax_xent.calls"),
        r.counter("simd.fused_softmax_xent.flops"),
        r.counter("simd.fusion.hits"),
        r.counter("simd.fusion.misses")};
    // Pull-style hit-rate: derived from the two counters at snapshot time
    // so the hot path never maintains a ratio.
    r.RegisterCallbackGauge("simd.fusion.hit_rate_pct", [c] {
      const uint64_t hits = c->fusion_hits.value();
      const uint64_t total = hits + c->fusion_misses.value();
      return total == 0 ? int64_t{0}
                        : static_cast<int64_t>(100 * hits / total);
    });
    return c;
  }();
  return *counters;
}

}  // namespace

void RecordGemm(int64_t m, int64_t k, int64_t n) {
  if (!observe::MetricsEnabled()) return;
  KernelCounters& c = Counters();
  c.gemm_calls.Add(1);
  c.gemm_flops.Add(static_cast<uint64_t>(2 * m * k * n));
}

void RecordSpmm(int64_t nnz, int64_t n) {
  if (!observe::MetricsEnabled()) return;
  KernelCounters& c = Counters();
  c.spmm_calls.Add(1);
  c.spmm_flops.Add(static_cast<uint64_t>(2 * nnz * n));
}

void RecordOptimizerStep(int64_t tensors, int64_t elements) {
  if (!observe::MetricsEnabled()) return;
  KernelCounters& c = Counters();
  c.opt_calls.Add(static_cast<uint64_t>(tensors));
  c.opt_flops.Add(static_cast<uint64_t>(10 * elements));
}

void RecordFusedGemmBiasRelu(int64_t m, int64_t k, int64_t n) {
  if (!observe::MetricsEnabled()) return;
  KernelCounters& c = Counters();
  c.fused_gemm_calls.Add(1);
  c.fused_gemm_flops.Add(static_cast<uint64_t>(2 * m * k * n + 2 * m * n));
}

void RecordFusedSpmmBiasRelu(int64_t nnz, int64_t rows, int64_t n) {
  if (!observe::MetricsEnabled()) return;
  KernelCounters& c = Counters();
  c.fused_spmm_calls.Add(1);
  c.fused_spmm_flops.Add(
      static_cast<uint64_t>(2 * nnz * n + 2 * rows * n));
}

void RecordFusedSoftmaxXent(int64_t rows, int64_t n) {
  if (!observe::MetricsEnabled()) return;
  KernelCounters& c = Counters();
  c.fused_xent_calls.Add(1);
  c.fused_xent_flops.Add(static_cast<uint64_t>(5 * rows * n));
}

void RecordFusionHit() {
  if (!observe::MetricsEnabled()) return;
  Counters().fusion_hits.Add(1);
}

void RecordFusionMiss() {
  if (!observe::MetricsEnabled()) return;
  Counters().fusion_misses.Add(1);
}

}  // namespace rdd::simd
