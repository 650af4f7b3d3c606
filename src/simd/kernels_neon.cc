// NEON backend (aarch64 baseline, no runtime check needed). The 8-float
// group is a pair of float32x4_t: lo carries lanes 0-3, hi lanes 4-7; the
// 8-double group is four float64x2_t in lane order. vfmaq is the fused
// correctly-rounded FMA, so all rule-1 and rule-2 kernels (simd.h) are
// bit-identical to the scalar and AVX2 backends. Known contract edge: vmaxq
// returns NaN when either operand is NaN, where x86 maxps returns the second
// operand — row_max on NaN inputs is outside the contract (documented in
// simd.h).

#include "simd/backends.h"

#if defined(RDD_SIMD_HAVE_NEON)

#include "simd/kernel_impl.h"

#include <arm_neon.h>

namespace rdd::simd::internal {
namespace {

struct NeonPolicy {
  struct F32 {
    float32x4_t lo;
    float32x4_t hi;
  };
  struct F64 {
    float64x2_t d[4];
  };

  static F32 Load(const float* p) { return {vld1q_f32(p), vld1q_f32(p + 4)}; }
  static void Store(float* p, F32 x) {
    vst1q_f32(p, x.lo);
    vst1q_f32(p + 4, x.hi);
  }
  static F32 Broadcast(float x) { return {vdupq_n_f32(x), vdupq_n_f32(x)}; }
  static F32 Zero() { return Broadcast(0.0f); }
  static F32 Add(F32 a, F32 b) {
    return {vaddq_f32(a.lo, b.lo), vaddq_f32(a.hi, b.hi)};
  }
  static F32 Sub(F32 a, F32 b) {
    return {vsubq_f32(a.lo, b.lo), vsubq_f32(a.hi, b.hi)};
  }
  static F32 Mul(F32 a, F32 b) {
    return {vmulq_f32(a.lo, b.lo), vmulq_f32(a.hi, b.hi)};
  }
  static F32 Div(F32 a, F32 b) {
    return {vdivq_f32(a.lo, b.lo), vdivq_f32(a.hi, b.hi)};
  }
  static F32 Sqrt(F32 a) { return {vsqrtq_f32(a.lo), vsqrtq_f32(a.hi)}; }
  static F32 Fmadd(F32 a, F32 b, F32 c) {
    return {vfmaq_f32(c.lo, a.lo, b.lo), vfmaq_f32(c.hi, a.hi, b.hi)};
  }
  static F32 Max(F32 a, F32 b) {
    return {vmaxq_f32(a.lo, b.lo), vmaxq_f32(a.hi, b.hi)};
  }
  static F32 MaskGtZero(F32 x, F32 y) {
    const float32x4_t z = vdupq_n_f32(0.0f);
    return {vreinterpretq_f32_u32(
                vandq_u32(vcgtq_f32(x.lo, z), vreinterpretq_u32_f32(y.lo))),
            vreinterpretq_f32_u32(
                vandq_u32(vcgtq_f32(x.hi, z), vreinterpretq_u32_f32(y.hi)))};
  }
  static F64 DZero() {
    const float64x2_t z = vdupq_n_f64(0.0);
    return {{z, z, z, z}};
  }
  static F64 DCvt(F32 x) {
    return {{vcvt_f64_f32(vget_low_f32(x.lo)),
             vcvt_high_f64_f32(x.lo),
             vcvt_f64_f32(vget_low_f32(x.hi)),
             vcvt_high_f64_f32(x.hi)}};
  }
  static F64 DAdd(F64 a, F64 b) {
    return {{vaddq_f64(a.d[0], b.d[0]), vaddq_f64(a.d[1], b.d[1]),
             vaddq_f64(a.d[2], b.d[2]), vaddq_f64(a.d[3], b.d[3])}};
  }
  static F64 DFmadd(F64 a, F64 b, F64 c) {
    return {{vfmaq_f64(c.d[0], a.d[0], b.d[0]),
             vfmaq_f64(c.d[1], a.d[1], b.d[1]),
             vfmaq_f64(c.d[2], a.d[2], b.d[2]),
             vfmaq_f64(c.d[3], a.d[3], b.d[3])}};
  }
  static void DStore(double* p, F64 x) {
    vst1q_f64(p, x.d[0]);
    vst1q_f64(p + 2, x.d[1]);
    vst1q_f64(p + 4, x.d[2]);
    vst1q_f64(p + 6, x.d[3]);
  }
};

}  // namespace

const KernelTable& NeonTable() {
  static const KernelTable table = MakeTable<NeonPolicy>();
  return table;
}

}  // namespace rdd::simd::internal

#endif  // RDD_SIMD_HAVE_NEON
