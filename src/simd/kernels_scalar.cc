// Scalar emulation backend: a float[8] "register" processed lane by lane.
// Every lane op is the IEEE-754 correctly-rounded operation (std::fma is the
// exact hardware-FMA result), so this backend reproduces the vector backends
// bit for bit — it is the portable reference the determinism contract in
// simd.h is checked against. Compiled with -ffp-contract=off like every
// kernel TU; the inner loops are simple enough that compilers auto-vectorize
// them on wider -march settings without changing any lane's arithmetic.

#include "simd/backends.h"
#include "simd/kernel_impl.h"

#include <cmath>

namespace rdd::simd::internal {
namespace {

struct ScalarPolicy {
  struct F32 {
    float v[8];
  };
  struct F64 {
    double v[8];
  };

  static F32 Load(const float* p) {
    F32 r;
    for (int l = 0; l < 8; ++l) r.v[l] = p[l];
    return r;
  }
  static void Store(float* p, F32 x) {
    for (int l = 0; l < 8; ++l) p[l] = x.v[l];
  }
  static F32 Broadcast(float x) {
    F32 r;
    for (int l = 0; l < 8; ++l) r.v[l] = x;
    return r;
  }
  static F32 Zero() { return Broadcast(0.0f); }
  static F32 Add(F32 a, F32 b) {
    F32 r;
    for (int l = 0; l < 8; ++l) r.v[l] = a.v[l] + b.v[l];
    return r;
  }
  static F32 Sub(F32 a, F32 b) {
    F32 r;
    for (int l = 0; l < 8; ++l) r.v[l] = a.v[l] - b.v[l];
    return r;
  }
  static F32 Mul(F32 a, F32 b) {
    F32 r;
    for (int l = 0; l < 8; ++l) r.v[l] = a.v[l] * b.v[l];
    return r;
  }
  static F32 Div(F32 a, F32 b) {
    F32 r;
    for (int l = 0; l < 8; ++l) r.v[l] = a.v[l] / b.v[l];
    return r;
  }
  static F32 Sqrt(F32 a) {
    F32 r;
    for (int l = 0; l < 8; ++l) r.v[l] = std::sqrt(a.v[l]);
    return r;
  }
  static F32 Fmadd(F32 a, F32 b, F32 c) {
    F32 r;
    for (int l = 0; l < 8; ++l) r.v[l] = std::fma(a.v[l], b.v[l], c.v[l]);
    return r;
  }
  // x86 maxps semantics: second operand wins on equality and NaN.
  static F32 Max(F32 a, F32 b) {
    F32 r;
    for (int l = 0; l < 8; ++l) r.v[l] = a.v[l] > b.v[l] ? a.v[l] : b.v[l];
    return r;
  }
  static F32 MaskGtZero(F32 x, F32 y) {
    F32 r;
    for (int l = 0; l < 8; ++l) r.v[l] = x.v[l] > 0.0f ? y.v[l] : 0.0f;
    return r;
  }
  static F64 DZero() {
    F64 r;
    for (int l = 0; l < 8; ++l) r.v[l] = 0.0;
    return r;
  }
  static F64 DCvt(F32 x) {
    F64 r;
    for (int l = 0; l < 8; ++l) r.v[l] = static_cast<double>(x.v[l]);
    return r;
  }
  static F64 DAdd(F64 a, F64 b) {
    F64 r;
    for (int l = 0; l < 8; ++l) r.v[l] = a.v[l] + b.v[l];
    return r;
  }
  static F64 DFmadd(F64 a, F64 b, F64 c) {
    F64 r;
    for (int l = 0; l < 8; ++l) r.v[l] = std::fma(a.v[l], b.v[l], c.v[l]);
    return r;
  }
  static void DStore(double* p, F64 x) {
    for (int l = 0; l < 8; ++l) p[l] = x.v[l];
  }
};

}  // namespace

const KernelTable& ScalarTable() {
  static const KernelTable table = MakeTable<ScalarPolicy>();
  return table;
}

}  // namespace rdd::simd::internal
