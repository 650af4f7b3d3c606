// Tests for the operator-fusion layer (RDD_FUSE): every fused autograd chain
// must be bit-identical to the unfused composition it replaces — forward
// values AND gradients, across remainder-lane shapes and every supported
// SIMD backend — and a full RddTrainer run must be byte-identical with the
// flag on and off.

#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/fusion.h"
#include "autograd/ops.h"
#include "autograd/variable.h"
#include "core/rdd_trainer.h"
#include "data/citation_gen.h"
#include "models/mlp_student.h"
#include "observe/metrics.h"
#include "parallel/parallel_for.h"
#include "simd/simd.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "tensor/sparse.h"
#include "util/random.h"
#include "util/runtime_flags.h"

namespace rdd {
namespace {

using simd::ActiveBackend;
using simd::Backend;
using simd::BackendName;
using simd::SetBackend;

/// Restores the active backend on scope exit so tests compose.
class BackendGuard {
 public:
  BackendGuard() : saved_(ActiveBackend()) {}
  ~BackendGuard() { SetBackend(saved_); }
  Backend Saved() const { return saved_; }

 private:
  Backend saved_;
};

/// Restores the configured thread count on scope exit.
class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(parallel::NumThreads()) {}
  ~ThreadCountGuard() { parallel::SetNumThreads(saved_); }

 private:
  int saved_;
};

uint32_t Bits(float x) {
  uint32_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

void ExpectByteIdentical(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  EXPECT_EQ(std::memcmp(a.Data(), b.Data(),
                        static_cast<size_t>(a.size()) * sizeof(float)),
            0)
      << what << " is not byte-identical";
}

Matrix RandomMatrix(int64_t rows, int64_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) {
    m.Data()[i] = static_cast<float>(rng->Gaussian());
  }
  return m;
}

/// A sparse matrix with roughly `density` of its entries populated.
SparseMatrix RandomSparse(int64_t rows, int64_t cols, double density,
                          Rng* rng) {
  Matrix dense(rows, cols);
  for (int64_t i = 0; i < dense.size(); ++i) {
    if (rng->Uniform() < density) {
      dense.Data()[i] = static_cast<float>(rng->Gaussian());
    }
  }
  return SparseMatrix::FromDense(dense);
}

// Shapes that exercise the vector body, the remainder tail, and both sides
// of the 32-wide GEMM accumulator tier.
struct ChainShape {
  int64_t m, k, n;
};
const ChainShape kChainShapes[] = {
    {1, 1, 1},   {3, 5, 7},    {8, 8, 8},    {9, 17, 33},
    {16, 7, 40}, {5, 64, 257}, {33, 300, 31},
};

// Every (backend, thread-count) combination the bit-identity claims cover.
std::vector<std::pair<Backend, int>> Combos() {
  std::vector<std::pair<Backend, int>> combos = {{Backend::kScalar, 1},
                                                 {Backend::kScalar, 4}};
  const Backend dispatched = ActiveBackend();
  if (dispatched != Backend::kScalar) {
    combos.push_back({dispatched, 1});
    combos.push_back({dispatched, 4});
  }
  return combos;
}

// ---------------------------------------------------------------------------
// Per-chain fused-vs-unfused bit-equality. Each case builds the identical
// leaf tensors twice, runs the chain once with fusion forced on and once
// forced off, drives a non-uniform gradient through RowSquaredError, and
// demands bitwise equality of the output and of every leaf gradient.
// ---------------------------------------------------------------------------

TEST(FusionBitIdentityTest, LinearReluMatchesUnfusedEverywhere) {
  BackendGuard backend_guard;
  ThreadCountGuard thread_guard;
  for (const auto& combo : Combos()) {
    SetBackend(combo.first);
    parallel::SetNumThreads(combo.second);
    for (const ChainShape& shape : kChainShapes) {
      SCOPED_TRACE(testing::Message()
                   << "backend=" << BackendName(combo.first)
                   << " threads=" << combo.second << " m=" << shape.m
                   << " k=" << shape.k << " n=" << shape.n);
      Rng rng(40);
      const Matrix x0 = RandomMatrix(shape.m, shape.k, &rng);
      const Matrix w0 = RandomMatrix(shape.k, shape.n, &rng);
      const Matrix b0 = RandomMatrix(1, shape.n, &rng);
      const Matrix target = RandomMatrix(shape.m, shape.n, &rng);
      std::vector<int64_t> all_rows;
      for (int64_t i = 0; i < shape.m; ++i) all_rows.push_back(i);

      Matrix out[2], gx[2], gw[2], gb[2];
      for (int pass = 0; pass < 2; ++pass) {
        flags::FuseGuard fuse(pass == 1);
        Variable x(x0, /*requires_grad=*/true);
        Variable w(w0, /*requires_grad=*/true);
        Variable b(b0, /*requires_grad=*/true);
        Variable h = ag::FusedLinearRelu(x, w, b);
        ag::RowSquaredError(h, target, all_rows, ag::Reduction::kSum)
            .Backward();
        out[pass] = h.value();
        gx[pass] = x.grad();
        gw[pass] = w.grad();
        gb[pass] = b.grad();
      }
      ExpectByteIdentical(out[0], out[1], "linear_relu forward");
      ExpectByteIdentical(gx[0], gx[1], "linear_relu dx");
      ExpectByteIdentical(gw[0], gw[1], "linear_relu dw");
      ExpectByteIdentical(gb[0], gb[1], "linear_relu dbias");
    }
  }
}

TEST(FusionBitIdentityTest, SpmmBiasReluMatchesUnfusedEverywhere) {
  BackendGuard backend_guard;
  ThreadCountGuard thread_guard;
  for (const auto& combo : Combos()) {
    SetBackend(combo.first);
    parallel::SetNumThreads(combo.second);
    for (const ChainShape& shape : kChainShapes) {
      SCOPED_TRACE(testing::Message()
                   << "backend=" << BackendName(combo.first)
                   << " threads=" << combo.second << " m=" << shape.m
                   << " k=" << shape.k << " n=" << shape.n);
      Rng rng(41);
      const SparseMatrix s = RandomSparse(shape.m, shape.k, 0.3, &rng);
      const Matrix m0 = RandomMatrix(shape.k, shape.n, &rng);
      const Matrix b0 = RandomMatrix(1, shape.n, &rng);
      const Matrix target = RandomMatrix(shape.m, shape.n, &rng);
      std::vector<int64_t> all_rows;
      for (int64_t i = 0; i < shape.m; ++i) all_rows.push_back(i);

      Matrix out[2], gm[2], gb[2];
      for (int pass = 0; pass < 2; ++pass) {
        flags::FuseGuard fuse(pass == 1);
        Variable m(m0, /*requires_grad=*/true);
        Variable b(b0, /*requires_grad=*/true);
        Variable h = ag::FusedSpmmBiasRelu(&s, m, b);
        ag::RowSquaredError(h, target, all_rows, ag::Reduction::kSum)
            .Backward();
        out[pass] = h.value();
        gm[pass] = m.grad();
        gb[pass] = b.grad();
      }
      ExpectByteIdentical(out[0], out[1], "spmm_bias_relu forward");
      ExpectByteIdentical(gm[0], gm[1], "spmm_bias_relu dm");
      ExpectByteIdentical(gb[0], gb[1], "spmm_bias_relu dbias");
    }
  }
}

TEST(FusionBitIdentityTest, SoftmaxCrossEntropyMatchesUnfusedEverywhere) {
  BackendGuard backend_guard;
  ThreadCountGuard thread_guard;
  for (const auto& combo : Combos()) {
    SetBackend(combo.first);
    parallel::SetNumThreads(combo.second);
    for (const ChainShape& shape : kChainShapes) {
      for (ag::Reduction reduction :
           {ag::Reduction::kMean, ag::Reduction::kSum}) {
        SCOPED_TRACE(testing::Message()
                     << "backend=" << BackendName(combo.first)
                     << " threads=" << combo.second << " rows=" << shape.m
                     << " classes=" << shape.n);
        Rng rng(42);
        const Matrix z0 = RandomMatrix(shape.m, shape.n, &rng);
        std::vector<int64_t> labels(static_cast<size_t>(shape.m));
        for (int64_t& y : labels) y = rng.UniformInt(shape.n);
        std::vector<int64_t> indices;  // every other row is supervised
        for (int64_t i = 0; i < shape.m; i += 2) indices.push_back(i);

        float loss[2];
        Matrix gz[2];
        for (int pass = 0; pass < 2; ++pass) {
          flags::FuseGuard fuse(pass == 1);
          Variable z(z0, /*requires_grad=*/true);
          Variable l = ag::SoftmaxCrossEntropy(z, labels, indices, reduction);
          l.Backward();
          loss[pass] = l.value().At(0, 0);
          gz[pass] = z.grad();
        }
        EXPECT_EQ(Bits(loss[0]), Bits(loss[1])) << "loss diverges";
        ExpectByteIdentical(gz[0], gz[1], "softmax_xent dlogits");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end: a full RddTrainer run must be byte-identical with fusion on
// and off (the fused graph is the SAME function, down to the bit).
// ---------------------------------------------------------------------------

TEST(FusionEndToEndTest, TrainRddIsFuseFlagInvariant) {
  CitationGenConfig config;
  config.num_nodes = 200;
  config.num_features = 60;
  config.num_edges = 600;
  config.num_classes = 4;
  config.labeled_per_class = 5;
  config.val_size = 30;
  config.test_size = 50;
  const Dataset dataset = GenerateCitationNetwork(config, 17);
  const GraphContext context = GraphContext::FromDataset(dataset);

  RddConfig rdd_config;
  rdd_config.num_base_models = 2;
  rdd_config.train.max_epochs = 15;

  RddResult results[2];
  for (int pass = 0; pass < 2; ++pass) {
    flags::FuseGuard fuse(pass == 1);
    results[pass] = TrainRdd(dataset, context, rdd_config, 9);
  }
  const RddResult& off = results[0];
  const RddResult& on = results[1];
  EXPECT_DOUBLE_EQ(on.single_test_accuracy, off.single_test_accuracy);
  EXPECT_DOUBLE_EQ(on.ensemble_test_accuracy, off.ensemble_test_accuracy);
  ASSERT_EQ(on.alphas.size(), off.alphas.size());
  for (size_t i = 0; i < on.alphas.size(); ++i) {
    EXPECT_EQ(Bits(on.alphas[i]), Bits(off.alphas[i])) << "alpha " << i;
  }
  ASSERT_EQ(on.reports.size(), off.reports.size());
  for (size_t t = 0; t < on.reports.size(); ++t) {
    ASSERT_EQ(on.reports[t].val_history.size(),
              off.reports[t].val_history.size());
    for (size_t e = 0; e < on.reports[t].val_history.size(); ++e) {
      EXPECT_EQ(Bits(on.reports[t].val_history[e]),
                Bits(off.reports[t].val_history[e]))
          << "student " << t << " epoch " << e;
    }
  }
  ExpectByteIdentical(on.teacher.PredictProbs(), off.teacher.PredictProbs(),
                      "teacher probs");
  ExpectByteIdentical(on.teacher.PredictEmbeddings(),
                      off.teacher.PredictEmbeddings(), "teacher embeddings");
}

TEST(FusionEndToEndTest, MlpStudentServingIsFuseFlagInvariant) {
  CitationGenConfig config;
  config.num_nodes = 120;
  config.num_features = 40;
  config.num_edges = 300;
  config.num_classes = 3;
  config.labeled_per_class = 5;
  config.val_size = 15;
  config.test_size = 25;
  const Dataset dataset = GenerateCitationNetwork(config, 18);
  const GraphContext context = GraphContext::FromDataset(dataset);

  // The Predictor serves a student from its evaluation-mode full-view
  // forward, so that is the serving output pinned here.
  for (int64_t depth : {int64_t{1}, int64_t{2}, int64_t{4}}) {
    MlpStudent student(context, depth, 16, 0.5f, /*seed=*/7);
    Matrix logits[2];
    for (int pass = 0; pass < 2; ++pass) {
      flags::FuseGuard fuse(pass == 1);
      logits[pass] = student.Forward(/*training=*/false).logits.value();
    }
    SCOPED_TRACE(testing::Message() << "depth=" << depth);
    ExpectByteIdentical(logits[0], logits[1], "serving logits");
  }
}

// ---------------------------------------------------------------------------
// kernel_stats attribution: a fused invocation books its FLOPs under the
// fused counter INSTEAD of the unfused one (no double-count), and the
// hit/miss counters feed the pull-style hit-rate gauge.
// ---------------------------------------------------------------------------

class MetricsGuard {
 public:
  explicit MetricsGuard(bool enabled) : saved_(observe::MetricsEnabled()) {
    observe::SetMetricsEnabled(enabled);
  }
  ~MetricsGuard() { observe::SetMetricsEnabled(saved_); }

 private:
  bool saved_;
};

TEST(FusionStatsTest, FusedCallsAttributeFlopsOnceAndDriveHitRate) {
  MetricsGuard metrics(true);
  auto& registry = observe::MetricsRegistry::Global();
  observe::Counter& fused_calls =
      registry.counter("simd.fused_gemm_bias_relu.calls");
  observe::Counter& fused_flops =
      registry.counter("simd.fused_gemm_bias_relu.flops");
  observe::Counter& gemm_calls = registry.counter("simd.gemm.calls");
  observe::Counter& hits = registry.counter("simd.fusion.hits");
  observe::Counter& misses = registry.counter("simd.fusion.misses");

  Rng rng(46);
  const int64_t m = 9, k = 17, n = 33;
  Variable x(RandomMatrix(m, k, &rng), /*requires_grad=*/false);
  Variable w(RandomMatrix(k, n, &rng), /*requires_grad=*/false);
  Variable b(RandomMatrix(1, n, &rng), /*requires_grad=*/false);

  {
    flags::FuseGuard fuse(true);
    const uint64_t fused_calls0 = fused_calls.value();
    const uint64_t fused_flops0 = fused_flops.value();
    const uint64_t gemm_calls0 = gemm_calls.value();
    const uint64_t hits0 = hits.value();
    ag::FusedLinearRelu(x, w, b);
    EXPECT_EQ(fused_calls.value() - fused_calls0, 1u);
    EXPECT_EQ(fused_flops.value() - fused_flops0,
              static_cast<uint64_t>(2 * m * k * n + 2 * m * n));
    EXPECT_EQ(gemm_calls.value(), gemm_calls0);  // not double-counted
    EXPECT_EQ(hits.value() - hits0, 1u);
  }
  {
    flags::FuseGuard fuse(false);
    const uint64_t fused_calls0 = fused_calls.value();
    const uint64_t gemm_calls0 = gemm_calls.value();
    const uint64_t misses0 = misses.value();
    ag::FusedLinearRelu(x, w, b);
    EXPECT_EQ(fused_calls.value(), fused_calls0);  // unfused path books gemm
    EXPECT_EQ(gemm_calls.value() - gemm_calls0, 1u);
    EXPECT_EQ(misses.value() - misses0, 1u);
  }

  const observe::MetricsSnapshot snapshot = registry.Snapshot();
  bool found = false;
  for (const observe::MetricValue& gauge : snapshot.gauges) {
    if (gauge.name == "simd.fusion.hit_rate_pct") {
      found = true;
      EXPECT_GE(gauge.value, 0);
      EXPECT_LE(gauge.value, 100);
    }
  }
  EXPECT_TRUE(found) << "hit-rate gauge not registered";
}

}  // namespace
}  // namespace rdd
