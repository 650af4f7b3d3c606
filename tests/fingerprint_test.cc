// Output fingerprints of every training entry point, pinned across commits.
//
// Each test runs one entry point on a small fixed dataset and hashes what it
// produced with FNV-1a 64: the ensemble weights, every report's epoch count
// and validation history, and the final probabilities. PredictorAnswers pins
// what the serving Predictor answers for a distilled-MLP and an ensemble
// checkpoint in the same way. The expected values
// were recorded from the implementation these entry points had before they
// were folded onto one student chain and one epoch loop, so a refactor that
// drifts by a single ulp anywhere in training fails here. The thread,
// backend and fusion suites compare two runs of the same build and cannot
// catch that.
//
// The values hold at any RDD_NUM_THREADS, RDD_SIMD, RDD_METRICS and RDD_FUSE
// setting (CI's determinism matrix runs this binary on every leg). They are
// recorded for the baseline x86-64 ISA: where the compiler may contract
// a * b + c into an FMA outside the -ffp-contract=off kernel sources
// (-march=native, AArch64), float results legitimately differ and the
// fingerprints are skipped.

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/condensed_trainer.h"
#include "core/distill.h"
#include "core/rdd_trainer.h"
#include "data/citation_gen.h"
#include "models/model_factory.h"
#include "serve/predictor.h"
#include "stream/graph_delta.h"
#include "stream/incremental_rdd.h"
#include "stream/streaming_graph.h"
#include "train/minibatch.h"

namespace rdd {
namespace {

#if defined(__x86_64__) && !defined(__FMA__)
constexpr bool kFingerprintsApply = true;
#else
constexpr bool kFingerprintsApply = false;
#endif

/// FNV-1a 64 over raw bytes.
class Fnv1a {
 public:
  void Bytes(const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Doubles(const std::vector<double>& v) {
    Bytes(v.data(), v.size() * sizeof(double));
  }
  void Floats(const Matrix& m) {
    Bytes(m.Data(), static_cast<size_t>(m.size()) * sizeof(float));
  }
  void Report(const TrainReport& report) {
    Bytes(&report.epochs_run, sizeof(report.epochs_run));
    Doubles(report.val_history);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

uint64_t Fingerprint(const RddResult& result) {
  Fnv1a h;
  h.Doubles(result.alphas);
  for (const TrainReport& report : result.reports) h.Report(report);
  h.Floats(result.teacher.PredictProbs());
  return h.value();
}

uint64_t Fingerprint(const TrainReport& report, GraphModel* model) {
  Fnv1a h;
  h.Report(report);
  h.Floats(model->PredictProbs());
  return h.value();
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llxULL",
                static_cast<unsigned long long>(v));
  return buf;
}

#define EXPECT_FINGERPRINT(actual, expected)                               \
  EXPECT_EQ(Hex(actual), Hex(expected))                                    \
      << "output drifted from the recorded fingerprint"

class FingerprintTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CitationGenConfig config;
    config.num_nodes = 400;
    config.num_features = 120;
    config.num_edges = 1300;
    config.num_classes = 4;
    config.homophily = 0.75;
    config.topic_purity = 0.4;
    config.labeled_per_class = 8;
    config.val_size = 60;
    config.test_size = 100;
    dataset_ = new Dataset(GenerateCitationNetwork(config, 1234));
    context_ = new GraphContext(GraphContext::FromDataset(*dataset_));
  }
  static void TearDownTestSuite() {
    delete context_;
    delete dataset_;
  }

  void SetUp() override {
    if (!kFingerprintsApply) {
      GTEST_SKIP() << "fingerprints are recorded for the baseline x86-64 ISA";
    }
  }

  static RddConfig FastConfig() {
    RddConfig config;
    config.num_base_models = 3;
    config.train.max_epochs = 40;
    return config;
  }

  /// Every ablation switch flipped away from its default, so the loss
  /// builder's non-default branches are pinned too.
  static RddConfig AblatedConfig() {
    RddConfig config = FastConfig();
    config.use_node_reliability = false;
    config.use_edge_reliability = false;
    config.use_entropy_pagerank_weights = false;
    config.anneal_gamma = false;
    config.distill_loss = DistillLoss::kEmbeddingMse;
    config.edge_reg_target = EdgeRegTarget::kEmbedding;
    return config;
  }

  static MiniBatchConfig SampledConfig() {
    MiniBatchConfig mb;
    mb.batch_size = 64;
    mb.fanouts = {4, 4};
    return mb;
  }

  static Dataset* dataset_;
  static GraphContext* context_;
};

Dataset* FingerprintTest::dataset_ = nullptr;
GraphContext* FingerprintTest::context_ = nullptr;

TEST_F(FingerprintTest, TrainRdd) {
  const RddResult result = TrainRdd(*dataset_, *context_, FastConfig(), 5);
  EXPECT_FINGERPRINT(Fingerprint(result), 0x90710c915a384ac2ULL);
}

TEST_F(FingerprintTest, TrainRddAblated) {
  const RddResult result = TrainRdd(*dataset_, *context_, AblatedConfig(), 5);
  EXPECT_FINGERPRINT(Fingerprint(result), 0xf876c7466de650b8ULL);
}

TEST_F(FingerprintTest, TrainRddMiniBatchSampled) {
  RddConfig config = FastConfig();
  config.train.max_epochs = 12;
  const RddResult result =
      TrainRddMiniBatch(*dataset_, *context_, config, SampledConfig(), 5);
  EXPECT_FINGERPRINT(Fingerprint(result), 0x1d3b9103de96711eULL);
}

TEST_F(FingerprintTest, TrainRddMiniBatchSampledAblated) {
  RddConfig config = AblatedConfig();
  config.train.max_epochs = 12;
  const RddResult result =
      TrainRddMiniBatch(*dataset_, *context_, config, SampledConfig(), 5);
  EXPECT_FINGERPRINT(Fingerprint(result), 0x00926d9ab11f3376ULL);
}

TEST_F(FingerprintTest, TrainRddMiniBatchShardsWithSampledEval) {
  RddConfig config = FastConfig();
  config.train.max_epochs = 12;
  MiniBatchConfig mb = SampledConfig();
  mb.num_shards = 4;
  mb.sampled_eval = true;
  mb.eval_batch_size = 50;
  const RddResult result =
      TrainRddMiniBatch(*dataset_, *context_, config, mb, 5);
  EXPECT_FINGERPRINT(Fingerprint(result), 0x5135c4973e2573b7ULL);
}

condense::CondenseConfig ClusterConfig() {
  condense::CondenseConfig condense;
  condense.method = condense::Method::kCluster;
  condense.ratio = 0.15;
  condense.warmup_epochs = 8;
  condense.kmeans_iters = 8;
  condense.eval_every = 3;
  return condense;
}

TEST_F(FingerprintTest, TrainRddCondensedCluster) {
  const CondensedRddResult result = TrainRddCondensed(
      *dataset_, *context_, FastConfig(), ClusterConfig(), 5);
  ASSERT_TRUE(result.condensed);
  EXPECT_FINGERPRINT(Fingerprint(result.rdd), 0x11dd5cbb9bae6e5bULL);
}

TEST_F(FingerprintTest, TrainRddCondensedClusterAblated) {
  const CondensedRddResult result = TrainRddCondensed(
      *dataset_, *context_, AblatedConfig(), ClusterConfig(), 5);
  ASSERT_TRUE(result.condensed);
  EXPECT_FINGERPRINT(Fingerprint(result.rdd), 0xa0b6e6dc5a7a7f1fULL);
}

/// Trains on a base snapshot, applies one held-out delta, and fine-tunes
/// incrementally; returns the fingerprint of the incremental result.
uint64_t IncrementalFingerprint(const Dataset& full, const RddConfig& config) {
  stream::StreamSplitOptions options;
  options.edge_holdout = 0.06;
  options.node_holdout = 0.03;
  const stream::ReplayStream replay = stream::SplitIntoStream(full, options, 31);
  EXPECT_EQ(replay.deltas.size(), 1u);
  EXPECT_FALSE(replay.deltas[0].empty());

  stream::StreamingGraph graph(replay.base);
  const RddResult previous =
      TrainRdd(graph.dataset(), graph.context(), config, 3);
  const int64_t nodes_before = graph.dataset().NumNodes();
  EXPECT_TRUE(graph.Apply(replay.deltas[0]).ok());

  stream::IncrementalConfig inc;
  inc.hops = 2;
  inc.max_epochs = 12;
  inc.eval_every = 4;
  const stream::IncrementalResult result = stream::IncrementalRddOnDelta(
      graph, replay.deltas[0], nodes_before, previous, config, inc, 7);
  EXPECT_FALSE(result.noop);
  return Fingerprint(result.result);
}

TEST_F(FingerprintTest, IncrementalRddOnDelta) {
  EXPECT_FINGERPRINT(IncrementalFingerprint(*dataset_, FastConfig()),
                     0x9ef7ec1c8fbf3eb8ULL);
}

TEST_F(FingerprintTest, IncrementalRddOnDeltaAblated) {
  EXPECT_FINGERPRINT(IncrementalFingerprint(*dataset_, AblatedConfig()),
                     0x1fa93057ae6d9551ULL);
}

TEST_F(FingerprintTest, TrainMiniBatchSupervised) {
  TrainConfig train;
  train.max_epochs = 15;
  auto model = BuildModel(*context_, ModelConfig{}, /*seed=*/9);
  const TrainReport report =
      TrainMiniBatchSupervised(model.get(), *dataset_, train, SampledConfig());
  EXPECT_FINGERPRINT(Fingerprint(report, model.get()),
                     0xff656a399c105494ULL);
}

TEST_F(FingerprintTest, DistillToMlp) {
  const RddResult rdd = TrainRdd(*dataset_, *context_, FastConfig(), 5);
  DistillConfig config;
  config.train.max_epochs = 60;
  config.train.patience = 20;
  const DistillResult result =
      DistillToMlp(*dataset_, *context_, rdd.teacher, config, 11);
  EXPECT_FINGERPRINT(Fingerprint(result.report, result.student.get()),
                     0x4401982110aceb96ULL);
}

/// Saves `checkpoint`, loads it into a Predictor over `context` and hashes
/// the probabilities it answers for every node, asked in one call.
uint64_t PredictorFingerprint(const Checkpoint& checkpoint,
                              const GraphContext& context,
                              const std::string& name) {
  const std::string path = std::string(::testing::TempDir()) +
                           "/fingerprint_" + name + "_" +
                           std::to_string(getpid()) + ".rddc";
  EXPECT_TRUE(SaveCheckpoint(checkpoint, path).ok());
  StatusOr<Predictor> predictor = Predictor::FromCheckpoint(path, context);
  std::remove(path.c_str());
  EXPECT_TRUE(predictor.ok()) << predictor.status().ToString();
  if (!predictor.ok()) return 0;
  std::vector<int64_t> nodes(static_cast<size_t>(context.num_nodes));
  std::iota(nodes.begin(), nodes.end(), int64_t{0});
  StatusOr<Matrix> probs = predictor->PredictProbs(nodes);
  EXPECT_TRUE(probs.ok()) << probs.status().ToString();
  if (!probs.ok()) return 0;
  Fnv1a h;
  h.Floats(*probs);
  return h.value();
}

TEST_F(FingerprintTest, PredictorAnswers) {
  const RddConfig rdd_config = FastConfig();
  const RddResult rdd = TrainRdd(*dataset_, *context_, rdd_config, 5);
  DistillConfig config;
  config.train.max_epochs = 60;
  config.train.patience = 20;
  const DistillResult distilled =
      DistillToMlp(*dataset_, *context_, rdd.teacher, config, 11);
  EXPECT_FINGERPRINT(
      PredictorFingerprint(CheckpointFromDistilled(*distilled.student, "mlp"),
                           *context_, "mlp"),
      0x4e4dcd1a6662bcf1ULL);
  EXPECT_FINGERPRINT(
      PredictorFingerprint(
          CheckpointFromRdd(rdd, rdd_config.base_model, "ensemble"),
          *context_, "ensemble"),
      0x93fb23e31957d3a1ULL);
}

}  // namespace
}  // namespace rdd
