#ifndef RDD_SIMD_SIMD_H_
#define RDD_SIMD_SIMD_H_

#include <cstdint>

namespace rdd::simd {

/// Vectorized kernel backends. Exactly one is active at a time; the choice
/// never changes any numeric result (see the determinism contract below).
enum class Backend {
  kScalar = 0,  ///< Portable lane-by-lane emulation; runs on any CPU.
  kAvx2 = 1,    ///< AVX2 + FMA (x86-64, runtime-detected).
  kNeon = 2,    ///< NEON (aarch64, baseline).
};

/// The dispatched kernel set. One function pointer per hot inner loop; the
/// pointers are filled from whichever backend the dispatcher selected.
///
/// # Determinism contract (backend-invariant bit-identity)
///
/// Every backend produces bit-identical results for every kernel, so the
/// active backend — like the thread count — is a pure deployment knob. Two
/// rules make this hold:
///
/// 1. **Column-vectorized kernels** (gemm_row, spmm_row, and the whole
///    elementwise family): each SIMD lane owns one output element, so
///    vectorizing across columns never changes any element's accumulation
///    order. The contract is simply "strict ascending reduction index, one
///    fused multiply-add per step": out[j] = fma(a[p], b[p][j], out[j]) for
///    p = 0, 1, 2, .... Any lane width satisfies this, and the scalar
///    backend reproduces it with std::fma (correctly rounded, exactly the
///    hardware FMA result).
///
/// 2. **Reduction kernels** (dot, sum_f64, sumsq_f64): lanes cross element
///    boundaries, so the grouping is pinned to a canonical 8-lane order
///    that every backend reproduces: lane l accumulates indices
///    i ≡ l (mod 8) (via FMA where the kernel multiplies), the eight lane
///    totals are combined by the fixed tree
///    ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)), and the tail
///    (i >= 8*floor(n/8)) is folded in sequentially afterwards. AVX2 uses
///    one 8-lane register, NEON two 4-lane registers (lo = lanes 0-3,
///    hi = lanes 4-7), the scalar backend a float[8] — all the same order.
///
/// row_max needs no grouping contract: IEEE max is exactly associative, so
/// any order gives the same bits for finite inputs. Comparisons follow the
/// x86 maxps convention (a > b ? a : b, i.e. the second operand wins on
/// equality or NaN); NaN propagation through row_max may differ on NEON,
/// where vmaxq returns NaN if either operand is NaN.
///
/// Kernel translation units are compiled with -ffp-contract=off so the
/// compiler can never fuse (or refuse to fuse) a multiply-add differently
/// across backends; every FMA in the contract is spelled explicitly.
struct KernelTable {
  // --- GEMM / SpMM row kernels (rule 1: strict-order FMA) ---

  /// out[j] += sum over p in [0, k) of a[p*sa] * b[p*ldb + j], for
  /// j in [0, n), accumulating in ascending p with one FMA per step.
  /// Covers A*B rows (sa = 1) and transpose(A)*B rows (sa = lda), over
  /// either the original B (ldb = row stride) or a tight packed panel
  /// (ldb = n).
  void (*gemm_row)(const float* a, int64_t sa, const float* b, int64_t ldb,
                   int64_t k, int64_t n, float* out);

  /// out[j] = dot(a, b + j*ldb, k) for j in [0, rows): one canonical
  /// 8-lane-grouped dot product (rule 2) per row of B. The A*transpose(B)
  /// kernel.
  void (*gemm_row_nt)(const float* a, const float* b, int64_t ldb, int64_t k,
                      int64_t rows, float* out);

  /// One CSR row of SpMM: out[j] += sum over t in [0, nnz) of
  /// (alpha * vals[t]) * dense[cols[t]*ldd + j], ascending t, one FMA per
  /// step (the alpha scaling is a single multiply per entry).
  void (*spmm_row)(const float* vals, const int64_t* cols, int64_t nnz,
                   float alpha, const float* dense, int64_t ldd, float* out,
                   int64_t n);

  // --- fused epilogues / fused row kernels ---
  // Each fused kernel is the exact per-element composition of the unfused
  // kernels it replaces (same lane ops, same order), so fused and unfused
  // paths are bit-identical on every backend — the fusion win is purely the
  // removed memory round trip, never a different rounding.

  /// Fused bias + ReLU epilogue applied in place to a finished GEMM/SpMM
  /// output row: y[i] = relu(y[i] + bias[i]). Element-for-element identical
  /// to add(bias, y) followed by relu(y, y).
  void (*bias_relu)(const float* bias, float* y, int64_t n);

  /// One softmax row: p[i] = exp(x[i] - max(x)) / sum(exp(x - max(x))),
  /// with max via row_max, float exp per element, the normalizer summed by
  /// sum_f64, and the reciprocal applied via scale — the exact arithmetic
  /// of the row-parallel SoftmaxRows loop in tensor/ops.cc.
  void (*softmax_row)(const float* x, float* p, int64_t n);

  /// Fused softmax -> cross-entropy forward for one selected row: returns
  /// log softmax(x)[label] without materializing the row. Replicates the
  /// LogSoftmaxRows arithmetic bit for bit: row_max shift, serial
  /// double-precision exp sum, log_sum = float(log(sum)) + max.
  float (*softmax_xent_fwd_row)(const float* x, int64_t n, int64_t label);

  // --- elementwise / row-wise family (rule 1) ---

  void (*axpy)(float a, const float* x, float* y, int64_t n);  ///< y=fma(a,x,y)
  void (*add)(const float* x, float* y, int64_t n);            ///< y += x
  void (*sub)(const float* x, float* y, int64_t n);            ///< y -= x
  void (*mul)(const float* x, float* y, int64_t n);            ///< y *= x
  void (*scale)(float a, float* y, int64_t n);                 ///< y *= a
  /// y[i] = x[i] > 0 ? x[i] : 0 (in-place safe; NaN maps to 0, matching the
  /// pre-SIMD std::max(0.f, x) kernel).
  void (*relu)(const float* x, float* y, int64_t n);
  /// g[i] = x[i] > 0 ? g[i] : 0 (the ReLU backward mask).
  void (*relu_bwd)(const float* x, float* g, int64_t n);
  /// y[i] = fma(g, a[i] - b[i], y[i]) — the masked-loss backward row update
  /// shared by RowSquaredError, SoftCrossEntropy, and EdgeLaplacian.
  void (*scaled_diff_accum)(float g, const float* a, const float* b, float* y,
                            int64_t n);
  /// out[i] = p[i] * (g[i] - dot) — the softmax backward row combine.
  void (*softmax_bwd_row)(const float* p, const float* g, float dot,
                          float* out, int64_t n);
  /// One Adam update over n contiguous elements. Exact per-element op
  /// sequence (shared by every backend):
  ///   g'  = fma(wd, w, g)
  ///   m   = fma(beta1, m, (1-beta1) * g')
  ///   v   = fma(beta2, v, ((1-beta2) * g') * g')
  ///   w  -= (lr * (m / bias1)) / (sqrt(v / bias2) + eps)
  void (*adam_step)(float* w, float* m, float* v, const float* g, int64_t n,
                    float lr, float wd, float beta1, float beta2, float bias1,
                    float bias2, float eps);
  /// w -= lr * fma(wd, w, g) over n contiguous elements.
  void (*sgd_step)(float* w, const float* g, int64_t n, float lr, float wd);

  // --- reductions (rule 2: canonical 8-lane grouping) ---

  float (*dot)(const float* a, const float* b, int64_t n);
  /// Squared Euclidean distance sum over i of (a[i] - b[i])^2, with the
  /// float difference widened exactly to double and accumulated via
  /// fma(d, d, acc) in the canonical 8-lane grouping. The k-means
  /// assignment / k-means++ seeding distance of the graph condensers.
  double (*sqdist_f64)(const float* a, const float* b, int64_t n);
  /// Maximum of x[0..n); requires n >= 1. Exact for finite inputs in any
  /// grouping (IEEE max is associative).
  float (*row_max)(const float* x, int64_t n);
  /// Sum of x[0..n) accumulated in double (each float widened exactly).
  double (*sum_f64)(const float* x, int64_t n);
  /// Sum of squares of x[0..n) accumulated in double via fma(x, x, acc).
  double (*sumsq_f64)(const float* x, int64_t n);
};

/// The active kernel table. Resolved once on first use: RDD_SIMD=avx2|neon|
/// scalar forces a backend (falling back to the best supported one, with a
/// warning, if the forced backend cannot run here); otherwise the best
/// backend the CPU supports is chosen via runtime feature detection.
const KernelTable& K();

/// The backend K() currently dispatches to.
Backend ActiveBackend();

/// True when `b` can run on this machine with this binary.
bool BackendSupported(Backend b);

/// Forces the active backend at runtime (tests and benchmarks comparing
/// backends in one process). RDD_CHECKs that `b` is supported.
void SetBackend(Backend b);

/// Human-readable backend name ("scalar", "avx2", "neon").
const char* BackendName(Backend b);

namespace internal {
/// Parses an RDD_SIMD-style value into *out. Returns false (leaving *out
/// untouched) for null/unknown names. Exposed for tests.
bool ParseBackendName(const char* value, Backend* out);

/// Per-backend tables; null when the backend is not compiled in. Exposed so
/// tests can compare two backends' raw kernels directly.
const KernelTable* TableFor(Backend b);
}  // namespace internal

}  // namespace rdd::simd

#endif  // RDD_SIMD_SIMD_H_
