// Tests for the SIMD kernel layer: dispatch/override plumbing, per-kernel
// bit-identity between the scalar contract backend and whatever backend the
// dispatcher selected (with deliberate remainder-lane shapes), golden values
// that catch a both-backends-wrong drift, the softmax large-logit
// regression, and a full RddTrainer run that must be byte-identical across
// backend x thread-count combinations.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/rdd_trainer.h"
#include "data/citation_gen.h"
#include "parallel/parallel_for.h"
#include "simd/simd.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "util/random.h"

namespace rdd {
namespace {

using simd::ActiveBackend;
using simd::Backend;
using simd::BackendName;
using simd::BackendSupported;
using simd::KernelTable;
using simd::SetBackend;
using simd::internal::ParseBackendName;
using simd::internal::TableFor;

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

uint64_t Bits(double x) {
  uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

void ExpectBitEqual(const std::vector<float>& a, const std::vector<float>& b,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(Bits(a[i]), Bits(b[i]))
        << what << " diverges at [" << i << "]: " << a[i] << " vs " << b[i];
  }
}

std::vector<float> RandomVec(int64_t n, Rng* rng) {
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = static_cast<float>(rng->Gaussian());
  return v;
}

// Shapes that exercise every code path: below one 8-lane group, exact
// groups, a remainder tail, and (for gemm_row) both sides of the 32-wide
// accumulator tier.
const int64_t kSizes[] = {1, 2, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 40, 257};

// ---------------------------------------------------------------------------
// Dispatch plumbing
// ---------------------------------------------------------------------------

TEST(SimdDispatchTest, ParseBackendNameParsesKnownNames) {
  Backend b = Backend::kAvx2;
  EXPECT_TRUE(ParseBackendName("scalar", &b));
  EXPECT_EQ(b, Backend::kScalar);
  EXPECT_TRUE(ParseBackendName("avx2", &b));
  EXPECT_EQ(b, Backend::kAvx2);
  EXPECT_TRUE(ParseBackendName("neon", &b));
  EXPECT_EQ(b, Backend::kNeon);
}

TEST(SimdDispatchTest, ParseBackendNameRejectsGarbageUntouched) {
  Backend b = Backend::kNeon;
  EXPECT_FALSE(ParseBackendName(nullptr, &b));
  EXPECT_FALSE(ParseBackendName("", &b));
  EXPECT_FALSE(ParseBackendName("AVX2", &b));
  EXPECT_FALSE(ParseBackendName("sse", &b));
  EXPECT_FALSE(ParseBackendName("scalar ", &b));
  EXPECT_EQ(b, Backend::kNeon);  // failed parses must not write
}

TEST(SimdDispatchTest, ScalarBackendIsAlwaysAvailable) {
  EXPECT_TRUE(BackendSupported(Backend::kScalar));
  EXPECT_NE(TableFor(Backend::kScalar), nullptr);
  EXPECT_STREQ(BackendName(Backend::kScalar), "scalar");
  EXPECT_STREQ(BackendName(Backend::kAvx2), "avx2");
  EXPECT_STREQ(BackendName(Backend::kNeon), "neon");
}

TEST(SimdDispatchTest, ActiveBackendIsSupportedAndDispatched) {
  const Backend active = ActiveBackend();
  EXPECT_TRUE(BackendSupported(active));
  EXPECT_EQ(&simd::K(), TableFor(active));
}

TEST(SimdDispatchTest, SetBackendSwitchesTheDispatchedTable) {
  BackendGuard guard;
  SetBackend(Backend::kScalar);
  EXPECT_EQ(ActiveBackend(), Backend::kScalar);
  EXPECT_EQ(&simd::K(), TableFor(Backend::kScalar));
}

// ---------------------------------------------------------------------------
// Per-kernel cross-backend bit-identity. When the machine only has the
// scalar backend these compare a table against itself (trivially true); the
// -march=native CI job runs them scalar-vs-vector.
// ---------------------------------------------------------------------------

class SimdKernelTest : public ::testing::Test {
 protected:
  const KernelTable& S() { return *TableFor(Backend::kScalar); }
  const KernelTable& D() { return *TableFor(ActiveBackend()); }
};

TEST_F(SimdKernelTest, GemmRowMatchesScalarAcrossShapes) {
  Rng rng(21);
  for (int64_t n : kSizes) {
    for (int64_t k : {int64_t{0}, int64_t{1}, int64_t{5}, int64_t{17},
                      int64_t{64}, int64_t{300}}) {
      for (int64_t sa : {int64_t{1}, int64_t{4}}) {
        const int64_t ldb = n + 3;  // ldb != n: the unpacked-B layout
        const auto a = RandomVec(std::max<int64_t>(k * sa, 1), &rng);
        const auto b = RandomVec(std::max<int64_t>(k * ldb, 1), &rng);
        const auto seed_out = RandomVec(n, &rng);
        auto out_s = seed_out;
        auto out_d = seed_out;
        S().gemm_row(a.data(), sa, b.data(), ldb, k, n, out_s.data());
        D().gemm_row(a.data(), sa, b.data(), ldb, k, n, out_d.data());
        ExpectBitEqual(out_s, out_d, "gemm_row");
      }
    }
  }
}

TEST_F(SimdKernelTest, GemmRowNtMatchesScalarAcrossShapes) {
  Rng rng(22);
  for (int64_t rows : kSizes) {
    for (int64_t k : {int64_t{0}, int64_t{1}, int64_t{7}, int64_t{8},
                      int64_t{33}, int64_t{64}}) {
      const int64_t ldb = k + 2;
      const auto a = RandomVec(std::max<int64_t>(k, 1), &rng);
      const auto b = RandomVec(std::max<int64_t>(rows * ldb, 1), &rng);
      std::vector<float> out_s(static_cast<size_t>(rows), 7.0f);
      std::vector<float> out_d(static_cast<size_t>(rows), -7.0f);
      S().gemm_row_nt(a.data(), b.data(), ldb, k, rows, out_s.data());
      D().gemm_row_nt(a.data(), b.data(), ldb, k, rows, out_d.data());
      ExpectBitEqual(out_s, out_d, "gemm_row_nt");  // overwrite semantics
    }
  }
}

TEST_F(SimdKernelTest, SpmmRowMatchesScalarAcrossShapes) {
  Rng rng(23);
  const int64_t dense_rows = 50;
  for (int64_t n : kSizes) {
    for (int64_t nnz :
         {int64_t{0}, int64_t{1}, int64_t{3}, int64_t{9}, int64_t{20}}) {
      const int64_t ldd = n + 1;
      const auto vals = RandomVec(std::max<int64_t>(nnz, 1), &rng);
      std::vector<int64_t> cols(static_cast<size_t>(std::max<int64_t>(nnz, 1)));
      for (int64_t& c : cols) c = rng.UniformInt(dense_rows);
      const auto dense = RandomVec(dense_rows * ldd, &rng);
      const auto seed_out = RandomVec(n, &rng);
      auto out_s = seed_out;
      auto out_d = seed_out;
      S().spmm_row(vals.data(), cols.data(), nnz, 0.37f, dense.data(), ldd,
                   out_s.data(), n);
      D().spmm_row(vals.data(), cols.data(), nnz, 0.37f, dense.data(), ldd,
                   out_d.data(), n);
      ExpectBitEqual(out_s, out_d, "spmm_row");
    }
  }
}

TEST_F(SimdKernelTest, ElementwiseFamilyMatchesScalarAcrossShapes) {
  Rng rng(24);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (int64_t n : kSizes) {
    auto x = RandomVec(n, &rng);
    const auto y0 = RandomVec(n, &rng);
    x[0] = nan;  // relu/relu_bwd must map NaN inputs to 0 on every backend
    if (n > 8) x[static_cast<size_t>(n) - 1] = -0.0f;

    auto ys = y0, yd = y0;
    S().axpy(1.7f, x.data(), ys.data(), n);
    D().axpy(1.7f, x.data(), yd.data(), n);
    ExpectBitEqual(ys, yd, "axpy");

    ys = y0, yd = y0;
    S().add(x.data(), ys.data(), n);
    D().add(x.data(), yd.data(), n);
    ExpectBitEqual(ys, yd, "add");

    ys = y0, yd = y0;
    S().sub(x.data(), ys.data(), n);
    D().sub(x.data(), yd.data(), n);
    ExpectBitEqual(ys, yd, "sub");

    ys = y0, yd = y0;
    S().mul(x.data(), ys.data(), n);
    D().mul(x.data(), yd.data(), n);
    ExpectBitEqual(ys, yd, "mul");

    ys = y0, yd = y0;
    S().scale(-0.25f, ys.data(), n);
    D().scale(-0.25f, yd.data(), n);
    ExpectBitEqual(ys, yd, "scale");

    std::vector<float> rs(static_cast<size_t>(n)), rd(static_cast<size_t>(n));
    S().relu(x.data(), rs.data(), n);
    D().relu(x.data(), rd.data(), n);
    ExpectBitEqual(rs, rd, "relu");
    EXPECT_EQ(rs[0], 0.0f);  // NaN input -> 0, the pre-SIMD semantics

    ys = y0, yd = y0;
    S().relu_bwd(x.data(), ys.data(), n);
    D().relu_bwd(x.data(), yd.data(), n);
    ExpectBitEqual(ys, yd, "relu_bwd");
    EXPECT_EQ(ys[0], 0.0f);

    const auto b = RandomVec(n, &rng);
    ys = y0, yd = y0;
    S().scaled_diff_accum(0.6f, x.data(), b.data(), ys.data(), n);
    D().scaled_diff_accum(0.6f, x.data(), b.data(), yd.data(), n);
    ExpectBitEqual(ys, yd, "scaled_diff_accum");

    S().softmax_bwd_row(b.data(), y0.data(), 0.42f, rs.data(), n);
    D().softmax_bwd_row(b.data(), y0.data(), 0.42f, rd.data(), n);
    ExpectBitEqual(rs, rd, "softmax_bwd_row");
  }
}

TEST_F(SimdKernelTest, FusedKernelsMatchScalarAcrossShapes) {
  Rng rng(27);
  for (int64_t n : kSizes) {
    const auto bias = RandomVec(n, &rng);
    const auto y0 = RandomVec(n, &rng);
    auto ys = y0, yd = y0;
    S().bias_relu(bias.data(), ys.data(), n);
    D().bias_relu(bias.data(), yd.data(), n);
    ExpectBitEqual(ys, yd, "bias_relu");

    const auto x = RandomVec(n, &rng);
    std::vector<float> ps(static_cast<size_t>(n)), pd(static_cast<size_t>(n));
    S().softmax_row(x.data(), ps.data(), n);
    D().softmax_row(x.data(), pd.data(), n);
    ExpectBitEqual(ps, pd, "softmax_row");

    const int64_t label = n / 2;
    EXPECT_EQ(Bits(S().softmax_xent_fwd_row(x.data(), n, label)),
              Bits(D().softmax_xent_fwd_row(x.data(), n, label)))
        << "softmax_xent_fwd_row n=" << n;
  }
}

TEST_F(SimdKernelTest, FusedBiasReluComposesAddAndReluExactly) {
  // The fusion contract (simd.h): bias_relu IS add followed by relu, per
  // element, so fused and unfused autograd paths stay bit-identical.
  Rng rng(28);
  for (int64_t n : kSizes) {
    auto bias = RandomVec(n, &rng);
    const auto y0 = RandomVec(n, &rng);
    bias[0] = std::numeric_limits<float>::quiet_NaN();  // NaN -> 0 both ways
    auto fused = y0;
    D().bias_relu(bias.data(), fused.data(), n);
    auto summed = y0;
    D().add(bias.data(), summed.data(), n);
    std::vector<float> unfused(static_cast<size_t>(n));
    D().relu(summed.data(), unfused.data(), n);
    ExpectBitEqual(fused, unfused, "bias_relu vs add;relu");
  }
}

TEST_F(SimdKernelTest, OptimizerStepsMatchScalarAcrossShapes) {
  Rng rng(25);
  // Realistic Adam constants at step t = 3.
  const float lr = 0.01f, wd = 5e-4f, b1 = 0.9f, b2 = 0.999f, eps = 1e-8f;
  const float bias1 = static_cast<float>(1.0 - std::pow(0.9, 3));
  const float bias2 = static_cast<float>(1.0 - std::pow(0.999, 3));
  for (int64_t n : kSizes) {
    const auto w0 = RandomVec(n, &rng);
    const auto m0 = RandomVec(n, &rng);
    const auto v0 = [&] {  // second moments must be non-negative
      auto v = RandomVec(n, &rng);
      for (float& x : v) x = x * x;
      return v;
    }();
    const auto g = RandomVec(n, &rng);

    auto ws = w0, ms = m0, vs = v0;
    auto wdv = w0, md = m0, vd = v0;
    S().adam_step(ws.data(), ms.data(), vs.data(), g.data(), n, lr, wd, b1,
                  b2, bias1, bias2, eps);
    D().adam_step(wdv.data(), md.data(), vd.data(), g.data(), n, lr, wd, b1,
                  b2, bias1, bias2, eps);
    ExpectBitEqual(ws, wdv, "adam_step w");
    ExpectBitEqual(ms, md, "adam_step m");
    ExpectBitEqual(vs, vd, "adam_step v");

    ws = w0, wdv = w0;
    S().sgd_step(ws.data(), g.data(), n, lr, wd);
    D().sgd_step(wdv.data(), g.data(), n, lr, wd);
    ExpectBitEqual(ws, wdv, "sgd_step");
  }
}

TEST_F(SimdKernelTest, ReductionsMatchScalarAcrossShapes) {
  Rng rng(26);
  for (int64_t n : kSizes) {
    const auto a = RandomVec(n, &rng);
    const auto b = RandomVec(n, &rng);
    EXPECT_EQ(Bits(S().dot(a.data(), b.data(), n)),
              Bits(D().dot(a.data(), b.data(), n)))
        << "dot n=" << n;
    EXPECT_EQ(Bits(S().row_max(a.data(), n)), Bits(D().row_max(a.data(), n)))
        << "row_max n=" << n;
    EXPECT_EQ(Bits(S().sum_f64(a.data(), n)), Bits(D().sum_f64(a.data(), n)))
        << "sum_f64 n=" << n;
    EXPECT_EQ(Bits(S().sumsq_f64(a.data(), n)),
              Bits(D().sumsq_f64(a.data(), n)))
        << "sumsq_f64 n=" << n;
    EXPECT_EQ(Bits(S().sqdist_f64(a.data(), b.data(), n)),
              Bits(D().sqdist_f64(a.data(), b.data(), n)))
        << "sqdist_f64 n=" << n;
  }
}

TEST_F(SimdKernelTest, RowMaxScansEqualNegativeAndSingleton) {
  // IEEE max is associative, so the kernel must equal a plain left-to-right
  // scan for finite inputs — including all-negative rows (no "0 is the
  // floor" bug) and duplicated maxima.
  const std::vector<std::vector<float>> cases = {
      {-4.0f},
      {-4.0f, -9.0f, -1.5f, -1.5f, -30.0f},
      {2.0f, 2.0f, 2.0f, 2.0f, 2.0f, 2.0f, 2.0f, 2.0f, 2.0f},
      {-0.0f, 0.0f},
      {1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f, 7.0f, 8.0f, 9.0f, 10.0f, 11.0f,
       12.0f, 13.0f, 14.0f, 15.0f, 16.0f, 17.5f},
  };
  for (const auto& row : cases) {
    float expected = row[0];
    for (float x : row) expected = x > expected ? x : expected;
    const int64_t n = static_cast<int64_t>(row.size());
    EXPECT_EQ(S().row_max(row.data(), n), expected);
    EXPECT_EQ(D().row_max(row.data(), n), expected);
  }
}

TEST_F(SimdKernelTest, GoldenValuesOnExactIntegerInputs) {
  // Small-integer inputs are exact in float, so both backends must produce
  // these values exactly — this catches a both-backends-consistently-wrong
  // kernel that the cross-backend comparisons cannot see.
  const std::vector<float> a = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const std::vector<float> b = {2, 2, 2, 2, 2, 2, 2, 2, 2, 2};
  for (const KernelTable* t : {&S(), &D()}) {
    EXPECT_EQ(t->dot(a.data(), b.data(), 10), 110.0f);
    EXPECT_EQ(t->sum_f64(a.data(), 10), 55.0);
    EXPECT_EQ(t->sumsq_f64(a.data(), 10), 385.0);
    // sum over (a[i] - 2)^2 for a = 1..10.
    EXPECT_EQ(t->sqdist_f64(a.data(), b.data(), 10), 205.0);
    EXPECT_EQ(t->row_max(a.data(), 10), 10.0f);

    // gemm_row: out[j] += sum_p a[p] * B[p][j] with B[p][j] = j + 1 over a
    // 3-element reduction: out[j] = (1+2+3)*(j+1).
    const std::vector<float> bm = {1, 2, 1, 2, 1, 2};  // 3x2, ldb = 2
    std::vector<float> out = {0, 0};
    t->gemm_row(a.data(), 1, bm.data(), 2, 3, 2, out.data());
    EXPECT_EQ(out[0], 6.0f);
    EXPECT_EQ(out[1], 12.0f);

    // spmm_row with alpha = 2: out[j] += 2 * (1*B[0][j] + 2*B[2][j]).
    const std::vector<int64_t> cols = {0, 2};
    const std::vector<float> vals = {1, 2};
    out = {1, 1};
    t->spmm_row(vals.data(), cols.data(), 2, 2.0f, bm.data(), 2, out.data(),
                2);
    EXPECT_EQ(out[0], 1.0f + 2.0f * (1.0f + 2.0f * 1.0f));
    EXPECT_EQ(out[1], 1.0f + 2.0f * (2.0f + 2.0f * 2.0f));
  }
}

// ---------------------------------------------------------------------------
// Softmax numerics: the lane-grouped max/sum rewrite must keep the
// max-shifted stability property.
// ---------------------------------------------------------------------------

TEST(SoftmaxNumericsTest, LargeLogitsProduceFiniteNormalizedRows) {
  const float big = 3.0e38f;
  Matrix logits(4, 13);
  for (int64_t j = 0; j < 13; ++j) {
    logits.RowData(0)[j] = 1e4f * static_cast<float>(j % 3);
    logits.RowData(1)[j] = (j == 5) ? big : 0.0f;
    logits.RowData(2)[j] = -big;
    logits.RowData(3)[j] = (j % 2 == 0) ? big : -big;
  }
  const Matrix probs = SoftmaxRows(logits);
  for (int64_t i = 0; i < probs.rows(); ++i) {
    double sum = 0.0;
    for (int64_t j = 0; j < probs.cols(); ++j) {
      const float p = probs.RowData(i)[j];
      ASSERT_TRUE(std::isfinite(p)) << "row " << i << " col " << j;
      ASSERT_GE(p, 0.0f);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-5) << "row " << i;
  }
  // The dominant logit takes essentially all the mass.
  EXPECT_GT(probs.RowData(1)[5], 0.999f);
}

// ---------------------------------------------------------------------------
// End-to-end: a full RddTrainer run must be byte-identical across
// backend x thread-count combinations.
// ---------------------------------------------------------------------------

void ExpectByteIdentical(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  EXPECT_EQ(std::memcmp(a.Data(), b.Data(),
                        static_cast<size_t>(a.size()) * sizeof(float)),
            0)
      << what << " is not byte-identical";
}

TEST(SimdBackendEquivalenceTest, FullRddRunIsBackendAndThreadInvariant) {
  CitationGenConfig config;
  config.num_nodes = 300;
  config.num_features = 100;
  config.num_edges = 900;
  config.num_classes = 4;
  config.labeled_per_class = 6;
  config.val_size = 50;
  config.test_size = 80;
  const Dataset dataset = GenerateCitationNetwork(config, 33);
  const GraphContext context = GraphContext::FromDataset(dataset);

  RddConfig rdd_config;
  rdd_config.num_base_models = 2;
  rdd_config.train.max_epochs = 25;

  BackendGuard backend_guard;
  ThreadCountGuard thread_guard;

  SetBackend(Backend::kScalar);
  parallel::SetNumThreads(1);
  const RddResult reference = TrainRdd(dataset, context, rdd_config, 5);
  const Matrix ref_probs = reference.teacher.PredictProbs();
  const Matrix ref_embeddings = reference.teacher.PredictEmbeddings();

  const Backend dispatched = backend_guard.Saved();
  struct Combo {
    Backend backend;
    int threads;
  };
  const Combo combos[] = {{Backend::kScalar, 4},
                          {dispatched, 1},
                          {dispatched, 4}};
  for (const Combo& combo : combos) {
    SCOPED_TRACE(testing::Message() << "backend=" << BackendName(combo.backend)
                                    << " threads=" << combo.threads);
    SetBackend(combo.backend);
    parallel::SetNumThreads(combo.threads);
    const RddResult run = TrainRdd(dataset, context, rdd_config, 5);

    EXPECT_DOUBLE_EQ(run.single_test_accuracy, reference.single_test_accuracy);
    EXPECT_DOUBLE_EQ(run.ensemble_test_accuracy,
                     reference.ensemble_test_accuracy);
    ASSERT_EQ(run.alphas.size(), reference.alphas.size());
    for (size_t i = 0; i < run.alphas.size(); ++i) {
      EXPECT_EQ(Bits(run.alphas[i]), Bits(reference.alphas[i])) << "alpha " << i;
    }
    ASSERT_EQ(run.reports.size(), reference.reports.size());
    for (size_t t = 0; t < run.reports.size(); ++t) {
      ASSERT_EQ(run.reports[t].val_history.size(),
                reference.reports[t].val_history.size());
      for (size_t e = 0; e < run.reports[t].val_history.size(); ++e) {
        EXPECT_EQ(Bits(run.reports[t].val_history[e]),
                  Bits(reference.reports[t].val_history[e]))
            << "student " << t << " epoch " << e;
      }
    }
    // The teacher's cached member outputs are a function of the final
    // weights, so byte-equality here pins the trained parameters.
    ExpectByteIdentical(run.teacher.PredictProbs(), ref_probs, "probs");
    ExpectByteIdentical(run.teacher.PredictEmbeddings(), ref_embeddings,
                        "embeddings");
  }
}

}  // namespace
}  // namespace rdd
