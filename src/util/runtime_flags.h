#ifndef RDD_UTIL_RUNTIME_FLAGS_H_
#define RDD_UTIL_RUNTIME_FLAGS_H_

namespace rdd::flags {

/// Process-wide feature switches resolved from the environment exactly once,
/// the same pattern as the pre-resolved SIMD dispatch (simd/dispatch.cc) and
/// RDD_METRICS (observe/metrics.cc): the first consultation parses the env
/// var via env::BoolEnv into an atomic, and every later read — including the
/// per-graph-construction checks in the autograd fusion pass — is one
/// relaxed load. Hot paths never branch on getenv.

/// RDD_FUSE (default on): emit fused operator chains (GEMM/SpMM->bias->ReLU,
/// softmax->masked-CE) at Variable graph construction. Off reproduces the
/// unfused op sequence bit for bit; on is bit-identical too (the fused
/// kernels replicate the unfused arithmetic exactly) — the knob exists so
/// the equivalence stays testable, not because results differ.
bool FuseEnabled();

/// Runtime override for tests and benchmarks comparing both settings in one
/// process. It only affects graphs built *after* the call.
void SetFuseEnabled(bool enabled);

/// RAII guard restoring the previous setting on scope exit.
class FuseGuard {
 public:
  explicit FuseGuard(bool enabled);
  ~FuseGuard();
  FuseGuard(const FuseGuard&) = delete;
  FuseGuard& operator=(const FuseGuard&) = delete;

 private:
  bool previous_;
};

}  // namespace rdd::flags

#endif  // RDD_UTIL_RUNTIME_FLAGS_H_
