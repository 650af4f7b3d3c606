#ifndef RDD_SIMD_KERNEL_IMPL_H_
#define RDD_SIMD_KERNEL_IMPL_H_

// Backend-generic kernel bodies. Each backend translation unit instantiates
// Kernels<Policy> exactly once with its own Policy type (8-float group plus
// the lane ops below) and exposes the result as a KernelTable.
//
// A Policy provides:
//   using F32 / F64          8 float lanes / 8 double lanes
//   Load/Store/Broadcast/Zero, Add/Sub/Mul/Div/Sqrt/Max/Fmadd (F32)
//   MaskGtZero(x, y)         per lane: x > 0 ? y : 0
//   DZero/DCvt/DAdd/DFmadd/DStore (F64; DCvt widens 8 floats exactly)
// Every lane op must be the IEEE-754 correctly-rounded operation (true for
// AVX2, NEON, and the scalar emulation's std::fma/std::sqrt), which is what
// makes lane-for-lane emulation bit-exact. Remainder elements (n % 8) are
// handled by the plain scalar loops below, which are shared — not
// re-implemented — across backends.
//
// This header is only included from kernel TUs, which are compiled with
// -ffp-contract=off: no multiply-add here may be fused or unfused at the
// compiler's discretion; every fused op is an explicit Fmadd/std::fma.

#include <cmath>
#include <cstdint>

#include "simd/simd.h"

namespace rdd::simd::internal {

// Scalar max with x86 maxps semantics: second operand wins on equality/NaN.
inline float MaxS(float a, float b) { return a > b ? a : b; }

// Fixed combining tree over the 8 lane totals — rule 2 of the determinism
// contract in simd.h.
inline float LaneTree(const float l[8]) {
  return ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
}
inline double LaneTree(const double l[8]) {
  return ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
}

template <typename P>
struct Kernels {
  using F32 = typename P::F32;
  using F64 = typename P::F64;

  static void GemmRow(const float* a, int64_t sa, const float* b, int64_t ldb,
                      int64_t k, int64_t n, float* out) {
    int64_t j = 0;
    // 32-wide tile: four independent accumulator groups hide FMA latency
    // while each output element still sees one strictly ordered FMA chain.
    for (; j + 32 <= n; j += 32) {
      float* o = out + j;
      F32 acc0 = P::Load(o), acc1 = P::Load(o + 8);
      F32 acc2 = P::Load(o + 16), acc3 = P::Load(o + 24);
      const float* br = b + j;
      for (int64_t p = 0; p < k; ++p, br += ldb) {
        const F32 av = P::Broadcast(a[p * sa]);
        acc0 = P::Fmadd(av, P::Load(br), acc0);
        acc1 = P::Fmadd(av, P::Load(br + 8), acc1);
        acc2 = P::Fmadd(av, P::Load(br + 16), acc2);
        acc3 = P::Fmadd(av, P::Load(br + 24), acc3);
      }
      P::Store(o, acc0);
      P::Store(o + 8, acc1);
      P::Store(o + 16, acc2);
      P::Store(o + 24, acc3);
    }
    for (; j + 8 <= n; j += 8) {
      float* o = out + j;
      F32 acc = P::Load(o);
      const float* br = b + j;
      for (int64_t p = 0; p < k; ++p, br += ldb) {
        acc = P::Fmadd(P::Broadcast(a[p * sa]), P::Load(br), acc);
      }
      P::Store(o, acc);
    }
    for (; j < n; ++j) {
      float acc = out[j];
      const float* bp = b + j;
      for (int64_t p = 0; p < k; ++p, bp += ldb) {
        acc = std::fma(a[p * sa], *bp, acc);
      }
      out[j] = acc;
    }
  }

  static float DotOne(const float* a, const float* b, int64_t n) {
    const int64_t n8 = n & ~int64_t{7};
    float r = 0.0f;
    if (n8 > 0) {
      F32 acc = P::Zero();
      for (int64_t i = 0; i < n8; i += 8) {
        acc = P::Fmadd(P::Load(a + i), P::Load(b + i), acc);
      }
      float lanes[8];
      P::Store(lanes, acc);
      r = LaneTree(lanes);
    }
    for (int64_t i = n8; i < n; ++i) r = std::fma(a[i], b[i], r);
    return r;
  }

  static void GemmRowNt(const float* a, const float* b, int64_t ldb, int64_t k,
                        int64_t rows, float* out) {
    for (int64_t j = 0; j < rows; ++j) out[j] = DotOne(a, b + j * ldb, k);
  }

  static void SpmmRow(const float* vals, const int64_t* cols, int64_t nnz,
                      float alpha, const float* dense, int64_t ldd, float* out,
                      int64_t n) {
    int64_t j = 0;
    for (; j + 32 <= n; j += 32) {
      float* o = out + j;
      F32 acc0 = P::Load(o), acc1 = P::Load(o + 8);
      F32 acc2 = P::Load(o + 16), acc3 = P::Load(o + 24);
      for (int64_t t = 0; t < nnz; ++t) {
        const F32 av = P::Broadcast(alpha * vals[t]);
        const float* dr = dense + cols[t] * ldd + j;
        acc0 = P::Fmadd(av, P::Load(dr), acc0);
        acc1 = P::Fmadd(av, P::Load(dr + 8), acc1);
        acc2 = P::Fmadd(av, P::Load(dr + 16), acc2);
        acc3 = P::Fmadd(av, P::Load(dr + 24), acc3);
      }
      P::Store(o, acc0);
      P::Store(o + 8, acc1);
      P::Store(o + 16, acc2);
      P::Store(o + 24, acc3);
    }
    for (; j + 8 <= n; j += 8) {
      float* o = out + j;
      F32 acc = P::Load(o);
      for (int64_t t = 0; t < nnz; ++t) {
        acc = P::Fmadd(P::Broadcast(alpha * vals[t]),
                       P::Load(dense + cols[t] * ldd + j), acc);
      }
      P::Store(o, acc);
    }
    for (; j < n; ++j) {
      float acc = out[j];
      for (int64_t t = 0; t < nnz; ++t) {
        acc = std::fma(alpha * vals[t], dense[cols[t] * ldd + j], acc);
      }
      out[j] = acc;
    }
  }

  static void Axpy(float a, const float* x, float* y, int64_t n) {
    const F32 av = P::Broadcast(a);
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
      P::Store(y + i, P::Fmadd(av, P::Load(x + i), P::Load(y + i)));
    }
    for (; i < n; ++i) y[i] = std::fma(a, x[i], y[i]);
  }

  static void Add(const float* x, float* y, int64_t n) {
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
      P::Store(y + i, P::Add(P::Load(y + i), P::Load(x + i)));
    }
    for (; i < n; ++i) y[i] += x[i];
  }

  static void Sub(const float* x, float* y, int64_t n) {
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
      P::Store(y + i, P::Sub(P::Load(y + i), P::Load(x + i)));
    }
    for (; i < n; ++i) y[i] -= x[i];
  }

  static void Mul(const float* x, float* y, int64_t n) {
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
      P::Store(y + i, P::Mul(P::Load(y + i), P::Load(x + i)));
    }
    for (; i < n; ++i) y[i] *= x[i];
  }

  static void Scale(float a, float* y, int64_t n) {
    const F32 av = P::Broadcast(a);
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
      P::Store(y + i, P::Mul(P::Load(y + i), av));
    }
    for (; i < n; ++i) y[i] *= a;
  }

  static void Relu(const float* x, float* y, int64_t n) {
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const F32 xv = P::Load(x + i);
      P::Store(y + i, P::MaskGtZero(xv, xv));
    }
    for (; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
  }

  static void ReluBwd(const float* x, float* g, int64_t n) {
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
      P::Store(g + i, P::MaskGtZero(P::Load(x + i), P::Load(g + i)));
    }
    for (; i < n; ++i) {
      if (!(x[i] > 0.0f)) g[i] = 0.0f;
    }
  }

  static void ScaledDiffAccum(float g, const float* a, const float* b,
                              float* y, int64_t n) {
    const F32 gv = P::Broadcast(g);
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const F32 d = P::Sub(P::Load(a + i), P::Load(b + i));
      P::Store(y + i, P::Fmadd(gv, d, P::Load(y + i)));
    }
    for (; i < n; ++i) y[i] = std::fma(g, a[i] - b[i], y[i]);
  }

  static void SoftmaxBwdRow(const float* p, const float* g, float dot,
                            float* out, int64_t n) {
    const F32 dv = P::Broadcast(dot);
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
      P::Store(out + i, P::Mul(P::Load(p + i), P::Sub(P::Load(g + i), dv)));
    }
    for (; i < n; ++i) out[i] = p[i] * (g[i] - dot);
  }

  static void AdamStep(float* w, float* m, float* v, const float* g,
                       int64_t n, float lr, float wd, float beta1, float beta2,
                       float bias1, float bias2, float eps) {
    const float omb1 = 1.0f - beta1;
    const float omb2 = 1.0f - beta2;
    const F32 vlr = P::Broadcast(lr), vwd = P::Broadcast(wd);
    const F32 vb1 = P::Broadcast(beta1), vb2 = P::Broadcast(beta2);
    const F32 vomb1 = P::Broadcast(omb1), vomb2 = P::Broadcast(omb2);
    const F32 vbias1 = P::Broadcast(bias1), vbias2 = P::Broadcast(bias2);
    const F32 veps = P::Broadcast(eps);
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const F32 wv = P::Load(w + i);
      const F32 gp = P::Fmadd(vwd, wv, P::Load(g + i));
      const F32 mv = P::Fmadd(vb1, P::Load(m + i), P::Mul(vomb1, gp));
      const F32 vv =
          P::Fmadd(vb2, P::Load(v + i), P::Mul(P::Mul(vomb2, gp), gp));
      P::Store(m + i, mv);
      P::Store(v + i, vv);
      const F32 upd = P::Div(P::Mul(vlr, P::Div(mv, vbias1)),
                             P::Add(P::Sqrt(P::Div(vv, vbias2)), veps));
      P::Store(w + i, P::Sub(wv, upd));
    }
    for (; i < n; ++i) {
      const float gp = std::fma(wd, w[i], g[i]);
      const float mv = std::fma(beta1, m[i], omb1 * gp);
      const float vv = std::fma(beta2, v[i], (omb2 * gp) * gp);
      m[i] = mv;
      v[i] = vv;
      w[i] -= (lr * (mv / bias1)) / (std::sqrt(vv / bias2) + eps);
    }
  }

  static void SgdStep(float* w, const float* g, int64_t n, float lr,
                      float wd) {
    const F32 vnlr = P::Broadcast(-lr), vwd = P::Broadcast(wd);
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const F32 wv = P::Load(w + i);
      const F32 gp = P::Fmadd(vwd, wv, P::Load(g + i));
      P::Store(w + i, P::Fmadd(vnlr, gp, wv));
    }
    for (; i < n; ++i) {
      w[i] = std::fma(-lr, std::fma(wd, w[i], g[i]), w[i]);
    }
  }

  static float RowMax(const float* x, int64_t n) {
    float r;
    int64_t i;
    if (n >= 8) {
      F32 m = P::Load(x);
      for (i = 8; i + 8 <= n; i += 8) m = P::Max(m, P::Load(x + i));
      float lanes[8];
      P::Store(lanes, m);
      r = MaxS(MaxS(MaxS(lanes[0], lanes[1]), MaxS(lanes[2], lanes[3])),
               MaxS(MaxS(lanes[4], lanes[5]), MaxS(lanes[6], lanes[7])));
    } else {
      r = x[0];
      i = 1;
    }
    for (; i < n; ++i) r = MaxS(r, x[i]);
    return r;
  }

  static double SumF64(const float* x, int64_t n) {
    const int64_t n8 = n & ~int64_t{7};
    double r = 0.0;
    if (n8 > 0) {
      F64 acc = P::DZero();
      for (int64_t i = 0; i < n8; i += 8) {
        acc = P::DAdd(acc, P::DCvt(P::Load(x + i)));
      }
      double lanes[8];
      P::DStore(lanes, acc);
      r = LaneTree(lanes);
    }
    for (int64_t i = n8; i < n; ++i) r += static_cast<double>(x[i]);
    return r;
  }

  static void BiasRelu(const float* bias, float* y, int64_t n) {
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
      // Same lane ops, same operand order as add(bias, y) then relu(y, y).
      const F32 s = P::Add(P::Load(y + i), P::Load(bias + i));
      P::Store(y + i, P::MaskGtZero(s, s));
    }
    for (; i < n; ++i) {
      const float s = y[i] + bias[i];
      y[i] = s > 0.0f ? s : 0.0f;
    }
  }

  static void SoftmaxRow(const float* x, float* p, int64_t n) {
    const float max_v = RowMax(x, n);
    for (int64_t c = 0; c < n; ++c) p[c] = std::exp(x[c] - max_v);
    const double sum = SumF64(p, n);
    const float inv = static_cast<float>(1.0 / sum);
    Scale(inv, p, n);
  }

  static float SoftmaxXentFwdRow(const float* x, int64_t n, int64_t label) {
    const float max_v = RowMax(x, n);
    double sum = 0.0;
    for (int64_t c = 0; c < n; ++c) {
      sum += std::exp(static_cast<double>(x[c]) - max_v);
    }
    const float log_sum = static_cast<float>(std::log(sum)) + max_v;
    return x[label] - log_sum;
  }

  static double SqDistF64(const float* a, const float* b, int64_t n) {
    const int64_t n8 = n & ~int64_t{7};
    double r = 0.0;
    if (n8 > 0) {
      F64 acc = P::DZero();
      for (int64_t i = 0; i < n8; i += 8) {
        // The difference is taken in float (exact widening afterwards), so
        // the scalar tail below reproduces each lane's arithmetic verbatim.
        const F64 d = P::DCvt(P::Sub(P::Load(a + i), P::Load(b + i)));
        acc = P::DFmadd(d, d, acc);
      }
      double lanes[8];
      P::DStore(lanes, acc);
      r = LaneTree(lanes);
    }
    for (int64_t i = n8; i < n; ++i) {
      const double d = static_cast<double>(a[i] - b[i]);
      r = std::fma(d, d, r);
    }
    return r;
  }

  static double SumSqF64(const float* x, int64_t n) {
    const int64_t n8 = n & ~int64_t{7};
    double r = 0.0;
    if (n8 > 0) {
      F64 acc = P::DZero();
      for (int64_t i = 0; i < n8; i += 8) {
        const F64 d = P::DCvt(P::Load(x + i));
        acc = P::DFmadd(d, d, acc);
      }
      double lanes[8];
      P::DStore(lanes, acc);
      r = LaneTree(lanes);
    }
    for (int64_t i = n8; i < n; ++i) {
      const double d = static_cast<double>(x[i]);
      r = std::fma(d, d, r);
    }
    return r;
  }
};

template <typename P>
KernelTable MakeTable() {
  KernelTable t;
  t.gemm_row = &Kernels<P>::GemmRow;
  t.gemm_row_nt = &Kernels<P>::GemmRowNt;
  t.spmm_row = &Kernels<P>::SpmmRow;
  t.axpy = &Kernels<P>::Axpy;
  t.add = &Kernels<P>::Add;
  t.sub = &Kernels<P>::Sub;
  t.mul = &Kernels<P>::Mul;
  t.scale = &Kernels<P>::Scale;
  t.relu = &Kernels<P>::Relu;
  t.relu_bwd = &Kernels<P>::ReluBwd;
  t.scaled_diff_accum = &Kernels<P>::ScaledDiffAccum;
  t.softmax_bwd_row = &Kernels<P>::SoftmaxBwdRow;
  t.adam_step = &Kernels<P>::AdamStep;
  t.sgd_step = &Kernels<P>::SgdStep;
  t.bias_relu = &Kernels<P>::BiasRelu;
  t.softmax_row = &Kernels<P>::SoftmaxRow;
  t.softmax_xent_fwd_row = &Kernels<P>::SoftmaxXentFwdRow;
  t.dot = &Kernels<P>::DotOne;
  t.sqdist_f64 = &Kernels<P>::SqDistF64;
  t.row_max = &Kernels<P>::RowMax;
  t.sum_f64 = &Kernels<P>::SumF64;
  t.sumsq_f64 = &Kernels<P>::SumSqF64;
  return t;
}

}  // namespace rdd::simd::internal

#endif  // RDD_SIMD_KERNEL_IMPL_H_
