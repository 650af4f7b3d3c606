#ifndef RDD_SIMD_KERNEL_STATS_H_
#define RDD_SIMD_KERNEL_STATS_H_

#include <cstdint>

namespace rdd::simd {

/// Per-kernel invocation and FLOP accounting for the dispatched kernel set
/// (simd.h). The high-level drivers (tensor GEMM/SpMM, the optimizer steps)
/// call these once per *operation* — never per row — so with RDD_METRICS
/// off the cost is one relaxed flag load per matmul, and with it on a
/// handful of relaxed counter adds. Counters land on the process metrics
/// registry (observe/metrics.h) under "simd.<kernel>.calls" and
/// "simd.<kernel>.flops".
///
/// FLOP estimates use the standard conventions: a fused multiply-add is 2
/// FLOPs, GEMM(m,k,n) is 2mkn, SpMM over nnz entries into n columns is
/// 2*nnz*n, one Adam element is ~10 FLOPs.

/// One dense GEMM of shape (m x k) * (k x n) — any transpose variant.
void RecordGemm(int64_t m, int64_t k, int64_t n);

/// One CSR SpMM with `nnz` nonzeros into `n` dense output columns (the
/// transpose/scatter variant counts the same work).
void RecordSpmm(int64_t nnz, int64_t n);

/// One optimizer step (Adam or SGD) over `elements` parameters across
/// `tensors` parameter tensors.
void RecordOptimizerStep(int64_t tensors, int64_t elements);

// --- fused-chain accounting ---
// A fused driver calls exactly one of these *instead of* RecordGemm /
// RecordSpmm, so a fused chain is never double-counted as its constituent
// ops; the epilogue work is folded into the same record (bias add + ReLU
// compare ≈ 2 FLOPs per output element, softmax ≈ 5 per element).

/// One fused GEMM -> bias -> ReLU of shape (m x k) * (k x n):
/// 2mkn + 2mn FLOPs under "simd.fused_gemm_bias_relu.*".
void RecordFusedGemmBiasRelu(int64_t m, int64_t k, int64_t n);

/// One fused SpMM -> bias -> ReLU (`nnz` nonzeros, `rows` output rows, `n`
/// columns): 2*nnz*n + 2*rows*n FLOPs under "simd.fused_spmm_bias_relu.*".
void RecordFusedSpmmBiasRelu(int64_t nnz, int64_t rows, int64_t n);

/// One fused softmax -> masked-cross-entropy over `rows` *selected* rows of
/// `n` logits: ~5*rows*n FLOPs under "simd.fused_softmax_xent.*". `rows` is
/// the mask size, not the logits height — the fusion's point is that the
/// unselected rows are never touched.
void RecordFusedSoftmaxXent(int64_t rows, int64_t n);

/// Fusion-pass outcome at Variable-graph construction: a hit emitted one
/// fused node, a miss fell back to the unfused composition (fusion disabled
/// or the pattern did not apply, e.g. a bias-less layer). The derived gauge
/// "simd.fusion.hit_rate_pct" = 100 * hits / (hits + misses) is registered
/// with the metrics registry on first use. Like every counter here, only
/// metered runs (RDD_METRICS=1) are counted.
void RecordFusionHit();
void RecordFusionMiss();

}  // namespace rdd::simd

#endif  // RDD_SIMD_KERNEL_STATS_H_
