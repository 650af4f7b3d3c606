// Determinism and contract suite for the graph condensation subsystem.
// Condensed graphs must be pure functions of (full dataset, CondenseConfig)
// — bit-identical at any RDD_NUM_THREADS and RDD_SIMD backend — must never
// read val/test labels, and TrainRddCondensed with method kOff must be
// byte-identical to TrainRdd. CI's determinism matrix builds this
// executable and runs it under RDD_NUM_THREADS / RDD_SIMD overrides, so
// keep every test independent of both.

#include "graph/condense/condense.h"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/condensed_trainer.h"
#include "core/rdd_trainer.h"
#include "data/citation_gen.h"
#include "parallel/parallel_for.h"
#include "simd/simd.h"

namespace rdd {
namespace {

using condense::CondensedGraph;
using condense::CondenseConfig;
using condense::CondensedNodeCount;
using condense::CondenseGraph;
using condense::Method;
using condense::MethodName;

/// Restores the configured thread count on scope exit so tests compose.
class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(parallel::NumThreads()) {}
  ~ThreadCountGuard() { parallel::SetNumThreads(saved_); }

 private:
  int saved_;
};

/// Restores the dispatched SIMD backend on scope exit.
class BackendGuard {
 public:
  BackendGuard() : saved_(simd::ActiveBackend()) {}
  ~BackendGuard() { simd::SetBackend(saved_); }

 private:
  simd::Backend saved_;
};

/// Saves one environment variable and restores (or re-unsets) it on exit.
class EnvVarGuard {
 public:
  explicit EnvVarGuard(const char* name) : name_(name) {
    const char* value = std::getenv(name);
    had_value_ = value != nullptr;
    if (had_value_) saved_ = value;
  }
  ~EnvVarGuard() {
    if (had_value_) {
      setenv(name_.c_str(), saved_.c_str(), 1);
    } else {
      unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  bool had_value_ = false;
  std::string saved_;
};

/// Bit-exact CSR equality.
void ExpectSparseEq(const SparseMatrix& a, const SparseMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_EQ(a.row_ptr(), b.row_ptr());
  ASSERT_EQ(a.col_idx(), b.col_idx());
  ASSERT_EQ(a.values(), b.values());
}

/// Bit-exact equality of two condensed graphs: features, topology, labels,
/// split, membership, and scalar metadata.
void ExpectCondensedEq(const CondensedGraph& a, const CondensedGraph& b) {
  ASSERT_EQ(a.dataset.NumNodes(), b.dataset.NumNodes());
  ExpectSparseEq(a.dataset.features, b.dataset.features);
  ASSERT_EQ(a.dataset.graph.edges().size(), b.dataset.graph.edges().size());
  for (size_t e = 0; e < a.dataset.graph.edges().size(); ++e) {
    EXPECT_EQ(a.dataset.graph.edges()[e], b.dataset.graph.edges()[e]);
  }
  EXPECT_EQ(a.dataset.labels, b.dataset.labels);
  EXPECT_EQ(a.dataset.split.train, b.dataset.split.train);
  EXPECT_EQ(a.dataset.split.val, b.dataset.split.val);
  EXPECT_EQ(a.dataset.split.test, b.dataset.split.test);
  EXPECT_EQ(a.members, b.members);
  EXPECT_EQ(a.original_nodes, b.original_nodes);
  EXPECT_EQ(a.achieved_ratio, b.achieved_ratio);
}

class CondenseTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CitationGenConfig config;
    config.num_nodes = 600;
    config.num_features = 150;
    config.num_edges = 2000;
    config.num_classes = 5;
    config.homophily = 0.72;
    config.topic_purity = 0.35;
    config.labeled_per_class = 10;
    config.val_size = 80;
    config.test_size = 150;
    dataset_ = new Dataset(GenerateCitationNetwork(config, 77));
    context_ = new GraphContext(GraphContext::FromDataset(*dataset_));
  }
  static void TearDownTestSuite() {
    delete context_;
    delete dataset_;
  }

  /// A fast test config: short warm-up, modest k-means budget.
  static CondenseConfig MakeConfig(Method method, double ratio = 0.1) {
    CondenseConfig config;
    config.method = method;
    config.ratio = ratio;
    config.warmup_epochs = 8;
    config.kmeans_iters = 8;
    return config;
  }

  static Dataset* dataset_;
  static GraphContext* context_;
};

Dataset* CondenseTest::dataset_ = nullptr;
GraphContext* CondenseTest::context_ = nullptr;

TEST(CondensedNodeCountTest, RoundsAndClamps) {
  EXPECT_EQ(CondensedNodeCount(1000, 7, 0.05), 50);
  EXPECT_EQ(CondensedNodeCount(1000, 7, 0.0549), 55);  // round, not floor
  // Clamped below by num_classes, above by num_nodes.
  EXPECT_EQ(CondensedNodeCount(1000, 7, 0.001), 7);
  EXPECT_EQ(CondensedNodeCount(1000, 7, 1.0), 1000);
  EXPECT_EQ(CondensedNodeCount(10, 7, 0.99), 10);
}

TEST(CondenseConfigTest, MethodNames) {
  EXPECT_STREQ(MethodName(Method::kOff), "off");
  EXPECT_STREQ(MethodName(Method::kCluster), "cluster");
}

TEST(CondenseConfigTest, FromEnvReadsKnobsAndDefaultsToOff) {
  EnvVarGuard g1("RDD_CONDENSE");
  EnvVarGuard g2("RDD_CONDENSE_RATIO");

  unsetenv("RDD_CONDENSE");
  unsetenv("RDD_CONDENSE_RATIO");
  CondenseConfig defaults = CondenseConfig::FromEnv();
  EXPECT_EQ(defaults.method, Method::kOff);  // strictly opt-in

  setenv("RDD_CONDENSE", "cluster", 1);
  setenv("RDD_CONDENSE_RATIO", "0.25", 1);
  CondenseConfig parsed = CondenseConfig::FromEnv();
  EXPECT_EQ(parsed.method, Method::kCluster);
  EXPECT_DOUBLE_EQ(parsed.ratio, 0.25);

  // A method that is no longer built (the removed spectral condenser) is
  // an unrecognized spelling: condensation stays off.
  setenv("RDD_CONDENSE", "eigen", 1);
  EXPECT_EQ(CondenseConfig::FromEnv().method, Method::kOff);

  // Boolean spellings of RDD_CONDENSE mean "cluster".
  setenv("RDD_CONDENSE", "1", 1);
  EXPECT_EQ(CondenseConfig::FromEnv().method, Method::kCluster);
  setenv("RDD_CONDENSE", "0", 1);
  EXPECT_EQ(CondenseConfig::FromEnv().method, Method::kOff);
}

TEST_F(CondenseTest, ClusterCondenseShapesAndCoverage) {
  const CondenseConfig config = MakeConfig(Method::kCluster, 0.1);
  const CondensedGraph small = CondenseGraph(*dataset_, config);

  const int64_t expect_m = CondensedNodeCount(
      dataset_->NumNodes(), dataset_->num_classes, config.ratio);
  EXPECT_EQ(small.dataset.NumNodes(), expect_m);
  EXPECT_EQ(small.original_nodes, dataset_->NumNodes());
  EXPECT_NEAR(small.achieved_ratio,
              static_cast<double>(expect_m) / dataset_->NumNodes(), 1e-12);
  EXPECT_GT(small.dataset.graph.num_edges(), 0);
  EXPECT_EQ(small.dataset.num_classes, dataset_->num_classes);
  EXPECT_EQ(small.dataset.FeatureDim(), dataset_->FeatureDim());

  // Feature rows respect the top-k cap.
  for (int64_t c = 0; c < small.dataset.NumNodes(); ++c) {
    const int64_t nnz = small.dataset.features.row_ptr()[c + 1] -
                        small.dataset.features.row_ptr()[c];
    EXPECT_LE(nnz, config.feature_topk);
  }

  // Every cluster is labeled, in the train split, and the membership lists
  // partition the full node set.
  EXPECT_EQ(static_cast<int64_t>(small.dataset.split.train.size()), expect_m);
  EXPECT_TRUE(small.dataset.split.val.empty());
  EXPECT_TRUE(small.dataset.split.test.empty());
  std::vector<int64_t> covered;
  for (const auto& cluster : small.members) {
    EXPECT_FALSE(cluster.empty());
    EXPECT_TRUE(std::is_sorted(cluster.begin(), cluster.end()));
    covered.insert(covered.end(), cluster.begin(), cluster.end());
  }
  std::sort(covered.begin(), covered.end());
  ASSERT_EQ(static_cast<int64_t>(covered.size()), dataset_->NumNodes());
  for (int64_t i = 0; i < dataset_->NumNodes(); ++i) {
    EXPECT_EQ(covered[i], i);
  }
  for (const int64_t label : small.dataset.labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, dataset_->num_classes);
  }

  std::string error;
  EXPECT_TRUE(ValidateDataset(small.dataset, &error)) << error;
}

TEST_F(CondenseTest, LabelPropagationFallbackWhenWarmupDisabled) {
  CondenseConfig config = MakeConfig(Method::kCluster, 0.08);
  config.warmup_epochs = 0;  // exercises the LP pseudo-label branch
  const CondensedGraph small = CondenseGraph(*dataset_, config);
  EXPECT_EQ(small.dataset.NumNodes(),
            CondensedNodeCount(dataset_->NumNodes(), dataset_->num_classes,
                               config.ratio));
  std::string error;
  EXPECT_TRUE(ValidateDataset(small.dataset, &error)) << error;
}

TEST_F(CondenseTest, CondensersAreBitIdenticalAcrossThreadsAndBackends) {
  ThreadCountGuard thread_guard;
  BackendGuard backend_guard;

  const CondenseConfig config = MakeConfig(Method::kCluster, 0.1);
  parallel::SetNumThreads(1);
  simd::SetBackend(simd::Backend::kScalar);
  const CondensedGraph reference = CondenseGraph(*dataset_, config);

  for (const simd::Backend backend :
       {simd::Backend::kScalar, simd::Backend::kAvx2, simd::Backend::kNeon}) {
    if (!simd::BackendSupported(backend)) continue;
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string("backend=") + simd::BackendName(backend) +
                   " threads=" + std::to_string(threads));
      parallel::SetNumThreads(threads);
      simd::SetBackend(backend);
      ExpectCondensedEq(reference, CondenseGraph(*dataset_, config));
    }
  }
}

TEST_F(CondenseTest, CondensersIgnoreValAndTestLabels) {
  // Scrambling every val/test label must leave the condenser's output
  // bit-identical: only train-split labels may be read (no leakage).
  Dataset scrambled = *dataset_;
  for (const int64_t v : scrambled.split.val) {
    scrambled.labels[v] = (scrambled.labels[v] + 1) % scrambled.num_classes;
  }
  for (const int64_t v : scrambled.split.test) {
    scrambled.labels[v] = (scrambled.labels[v] + 2) % scrambled.num_classes;
  }
  const CondenseConfig config = MakeConfig(Method::kCluster, 0.1);
  ExpectCondensedEq(CondenseGraph(*dataset_, config),
                    CondenseGraph(scrambled, config));
}

TEST_F(CondenseTest, TrainRddCondensedOffDelegatesToTrainRdd) {
  RddConfig config;
  config.num_base_models = 2;
  config.train.max_epochs = 30;
  CondenseConfig off;
  off.method = Method::kOff;

  const RddResult plain = TrainRdd(*dataset_, *context_, config, 7);
  const CondensedRddResult delegated =
      TrainRddCondensed(*dataset_, *context_, config, off, 7);

  EXPECT_FALSE(delegated.condensed);
  EXPECT_EQ(delegated.rdd.ensemble_test_accuracy,
            plain.ensemble_test_accuracy);
  EXPECT_EQ(delegated.rdd.single_test_accuracy, plain.single_test_accuracy);
  ASSERT_EQ(delegated.rdd.alphas.size(), plain.alphas.size());
  for (size_t t = 0; t < plain.alphas.size(); ++t) {
    EXPECT_EQ(delegated.rdd.alphas[t], plain.alphas[t]);
  }
}

TEST_F(CondenseTest, TrainRddCondensedSmokeAndDeterminism) {
  ThreadCountGuard thread_guard;
  RddConfig config;
  config.num_base_models = 2;
  config.train.max_epochs = 60;
  const CondenseConfig condense = MakeConfig(Method::kCluster, 0.1);

  parallel::SetNumThreads(1);
  const CondensedRddResult a =
      TrainRddCondensed(*dataset_, *context_, config, condense, 7);
  EXPECT_TRUE(a.condensed);
  EXPECT_EQ(a.condensed_nodes,
            CondensedNodeCount(dataset_->NumNodes(), dataset_->num_classes,
                               condense.ratio));
  EXPECT_GT(a.condensed_edges, 0);
  EXPECT_GT(a.condense_seconds, 0.0);
  ASSERT_EQ(a.rdd.reports.size(), 2u);
  // Full-graph quality: far above the 1/num_classes = 0.2 chance floor.
  EXPECT_GT(a.rdd.ensemble_test_accuracy, 0.3);
  EXPECT_LE(a.rdd.ensemble_test_accuracy, 1.0);

  // The whole condensed pipeline is bit-identical at any thread count.
  parallel::SetNumThreads(4);
  const CondensedRddResult b =
      TrainRddCondensed(*dataset_, *context_, config, condense, 7);
  EXPECT_EQ(a.rdd.ensemble_test_accuracy, b.rdd.ensemble_test_accuracy);
  EXPECT_EQ(a.rdd.single_test_accuracy, b.rdd.single_test_accuracy);
  ASSERT_EQ(a.rdd.alphas.size(), b.rdd.alphas.size());
  for (size_t t = 0; t < a.rdd.alphas.size(); ++t) {
    EXPECT_EQ(a.rdd.alphas[t], b.rdd.alphas[t]);
  }
}

}  // namespace
}  // namespace rdd
