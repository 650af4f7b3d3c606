// AVX2 + FMA backend. This translation unit alone is compiled with
// -mavx2 -mfma (see src/simd/CMakeLists.txt); the dispatcher only hands out
// this table after __builtin_cpu_supports confirms both features, so the
// binary as a whole still runs on baseline x86-64.
//
// The 8-double group is a pair of __m256d registers: lo carries float lanes
// 0-3, hi carries lanes 4-7, matching the lane numbering the determinism
// contract (simd.h) pins for the canonical reductions.

#include "simd/backends.h"
#include "simd/kernel_impl.h"

#include <immintrin.h>

namespace rdd::simd::internal {
namespace {

struct Avx2Policy {
  using F32 = __m256;
  struct F64 {
    __m256d lo;
    __m256d hi;
  };

  static F32 Load(const float* p) { return _mm256_loadu_ps(p); }
  static void Store(float* p, F32 x) { _mm256_storeu_ps(p, x); }
  static F32 Broadcast(float x) { return _mm256_set1_ps(x); }
  static F32 Zero() { return _mm256_setzero_ps(); }
  static F32 Add(F32 a, F32 b) { return _mm256_add_ps(a, b); }
  static F32 Sub(F32 a, F32 b) { return _mm256_sub_ps(a, b); }
  static F32 Mul(F32 a, F32 b) { return _mm256_mul_ps(a, b); }
  static F32 Div(F32 a, F32 b) { return _mm256_div_ps(a, b); }
  static F32 Sqrt(F32 a) { return _mm256_sqrt_ps(a); }
  static F32 Fmadd(F32 a, F32 b, F32 c) { return _mm256_fmadd_ps(a, b, c); }
  static F32 Max(F32 a, F32 b) { return _mm256_max_ps(a, b); }
  static F32 MaskGtZero(F32 x, F32 y) {
    return _mm256_and_ps(
        _mm256_cmp_ps(x, _mm256_setzero_ps(), _CMP_GT_OQ), y);
  }
  static F64 DZero() {
    return {_mm256_setzero_pd(), _mm256_setzero_pd()};
  }
  static F64 DCvt(F32 x) {
    return {_mm256_cvtps_pd(_mm256_castps256_ps128(x)),
            _mm256_cvtps_pd(_mm256_extractf128_ps(x, 1))};
  }
  static F64 DAdd(F64 a, F64 b) {
    return {_mm256_add_pd(a.lo, b.lo), _mm256_add_pd(a.hi, b.hi)};
  }
  static F64 DFmadd(F64 a, F64 b, F64 c) {
    return {_mm256_fmadd_pd(a.lo, b.lo, c.lo),
            _mm256_fmadd_pd(a.hi, b.hi, c.hi)};
  }
  static void DStore(double* p, F64 x) {
    _mm256_storeu_pd(p, x.lo);
    _mm256_storeu_pd(p + 4, x.hi);
  }
};

}  // namespace

const KernelTable& Avx2Table() {
  static const KernelTable table = MakeTable<Avx2Policy>();
  return table;
}

}  // namespace rdd::simd::internal
