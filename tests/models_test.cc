#include <cmath>
#include <ostream>

#include <gtest/gtest.h>

#include "data/citation_gen.h"
#include "models/graph_model.h"
#include "models/label_propagation.h"
#include "models/model_factory.h"
#include "nn/metrics.h"
#include "tensor/ops.h"
#include "train/trainer.h"

namespace rdd {
namespace {

/// One small dataset + context shared by all model tests (generation and
/// normalization are deterministic).
class ModelsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CitationGenConfig config;
    config.num_nodes = 400;
    config.num_features = 120;
    config.num_edges = 1200;
    config.num_classes = 4;
    config.homophily = 0.85;
    config.topic_purity = 0.5;
    config.labeled_per_class = 10;
    config.val_size = 60;
    config.test_size = 100;
    dataset_ = new Dataset(GenerateCitationNetwork(config, 99));
    context_ = new GraphContext(GraphContext::FromDataset(*dataset_));
  }
  static void TearDownTestSuite() {
    delete context_;
    delete dataset_;
    context_ = nullptr;
    dataset_ = nullptr;
  }

  static Dataset* dataset_;
  static GraphContext* context_;
};

Dataset* ModelsTest::dataset_ = nullptr;
GraphContext* ModelsTest::context_ = nullptr;

TEST_F(ModelsTest, GraphContextShapes) {
  EXPECT_EQ(context_->num_nodes, 400);
  EXPECT_EQ(context_->feature_dim, 120);
  EXPECT_EQ(context_->num_classes, 4);
  EXPECT_EQ(context_->adj_norm->rows(), 400);
  EXPECT_EQ(context_->adj_row->rows(), 400);
}

struct ModelCase {
  ModelKind kind;
  int64_t num_layers;
  const char* name;
};

// gtest prints each parameter into the listed test name; without this it
// prints the struct's raw bytes, `name`'s pointer value included, so the
// names would change from run to run.
void PrintTo(const ModelCase& mcase, std::ostream* os) {
  *os << ModelKindToString(mcase.kind) << ", " << mcase.num_layers << ", "
      << mcase.name;
}

class ModelZooTest : public ModelsTest,
                     public ::testing::WithParamInterface<ModelCase> {};

TEST_P(ModelZooTest, ForwardShapesAndFiniteness) {
  const ModelCase mcase = GetParam();
  ModelConfig config;
  config.kind = mcase.kind;
  config.num_layers = mcase.num_layers;
  config.hidden_dim = 8;
  auto model = BuildModel(*context_, config, 7);
  const ModelOutput out = model->Forward(/*training=*/false);
  EXPECT_EQ(out.logits.rows(), 400);
  EXPECT_EQ(out.logits.cols(), 4);
  EXPECT_EQ(out.embedding.rows(), 400);
  for (int64_t i = 0; i < out.logits.value().size(); ++i) {
    EXPECT_TRUE(std::isfinite(out.logits.value().Data()[i]));
  }
  EXPECT_GT(model->NumParameters(), 0);
}

TEST_P(ModelZooTest, TrainingImprovesOverInitialization) {
  const ModelCase mcase = GetParam();
  ModelConfig config;
  config.kind = mcase.kind;
  config.num_layers = mcase.num_layers;
  config.hidden_dim = 8;
  auto model = BuildModel(*context_, config, 11);
  const double before =
      EvaluateAccuracy(model.get(), *dataset_, dataset_->split.test);
  TrainConfig train;
  train.max_epochs = 60;
  const TrainReport report = TrainSupervised(model.get(), *dataset_, train);
  EXPECT_GT(report.test_accuracy, before + 0.2)
      << ModelKindToString(mcase.kind);
  EXPECT_GT(report.test_accuracy, 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, ModelZooTest,
    ::testing::Values(ModelCase{ModelKind::kGcn, 2, "gcn2"},
                      ModelCase{ModelKind::kGcn, 3, "gcn3"},
                      ModelCase{ModelKind::kResGcn, 3, "resgcn3"},
                      ModelCase{ModelKind::kResGcn, 4, "resgcn4"},
                      ModelCase{ModelKind::kDenseGcn, 3, "densegcn3"},
                      ModelCase{ModelKind::kJkNet, 3, "jknet3"},
                      ModelCase{ModelKind::kAppnp, 2, "appnp"},
                      ModelCase{ModelKind::kMlp, 2, "mlp"},
                      ModelCase{ModelKind::kGraphSage, 2, "sage2"},
                      ModelCase{ModelKind::kGraphSage, 3, "sage3"}),
    [](const ::testing::TestParamInfo<ModelCase>& info) {
      return info.param.name;
    });

TEST_F(ModelsTest, DropoutMakesTrainingForwardStochastic) {
  ModelConfig config;
  config.dropout = 0.5f;
  auto model = BuildModel(*context_, config, 13);
  const Matrix a = model->Forward(true).logits.value();
  const Matrix b = model->Forward(true).logits.value();
  EXPECT_FALSE(a.Equals(b));
  // Eval mode is deterministic.
  const Matrix c = model->Forward(false).logits.value();
  const Matrix d = model->Forward(false).logits.value();
  EXPECT_TRUE(c.Equals(d));
}

TEST_F(ModelsTest, SameSeedSameInitialization) {
  ModelConfig config;
  auto a = BuildModel(*context_, config, 17);
  auto b = BuildModel(*context_, config, 17);
  EXPECT_TRUE(a->Forward(false).logits.value().Equals(
      b->Forward(false).logits.value()));
}

TEST_F(ModelsTest, DifferentSeedsDifferentInitialization) {
  ModelConfig config;
  auto a = BuildModel(*context_, config, 17);
  auto b = BuildModel(*context_, config, 18);
  EXPECT_FALSE(a->Forward(false).logits.value().Equals(
      b->Forward(false).logits.value()));
}

TEST_F(ModelsTest, PredictProbsRowsStochastic) {
  auto model = BuildModel(*context_, ModelConfig{}, 19);
  const Matrix probs = model->PredictProbs();
  for (int64_t r = 0; r < probs.rows(); ++r) {
    double sum = 0.0;
    for (int64_t c = 0; c < probs.cols(); ++c) sum += probs.At(r, c);
    EXPECT_NEAR(sum, 1.0, 1e-4);
  }
}

TEST_F(ModelsTest, GcnBeatsMlpOnHomophilousGraph) {
  TrainConfig train;
  train.max_epochs = 100;
  ModelConfig gcn_config;
  auto gcn = BuildModel(*context_, gcn_config, 23);
  const double gcn_acc =
      TrainSupervised(gcn.get(), *dataset_, train).test_accuracy;
  ModelConfig mlp_config;
  mlp_config.kind = ModelKind::kMlp;
  mlp_config.hidden_dim = 16;
  auto mlp = BuildModel(*context_, mlp_config, 23);
  const double mlp_acc =
      TrainSupervised(mlp.get(), *dataset_, train).test_accuracy;
  EXPECT_GT(gcn_acc, mlp_acc);
}

TEST_F(ModelsTest, ModelKindNames) {
  EXPECT_STREQ(ModelKindToString(ModelKind::kGraphSage), "GraphSAGE");
  EXPECT_STREQ(ModelKindToString(ModelKind::kGcn), "GCN");
  EXPECT_STREQ(ModelKindToString(ModelKind::kResGcn), "ResGCN");
  EXPECT_STREQ(ModelKindToString(ModelKind::kDenseGcn), "DenseGCN");
  EXPECT_STREQ(ModelKindToString(ModelKind::kJkNet), "JK-Net");
  EXPECT_STREQ(ModelKindToString(ModelKind::kAppnp), "APPNP");
  EXPECT_STREQ(ModelKindToString(ModelKind::kMlp), "MLP");
}

TEST_F(ModelsTest, LabelPropagationBeatsChance) {
  const Matrix probs = PropagateLabels(*dataset_);
  const double acc = Accuracy(probs, dataset_->labels, dataset_->split.test);
  EXPECT_GT(acc, 1.5 / 4.0);  // Well above the 25% chance level.
}

TEST_F(ModelsTest, LabelPropagationClampsTrainNodes) {
  const Matrix probs = PropagateLabels(*dataset_);
  for (int64_t i : dataset_->split.train) {
    const auto pred = ArgmaxRows(probs.Row(0 + i));
    EXPECT_EQ(pred[0], dataset_->labels[static_cast<size_t>(i)]);
  }
}

TEST_F(ModelsTest, LabelPropagationRowsStochastic) {
  const Matrix probs = PropagateLabels(*dataset_);
  for (int64_t r = 0; r < probs.rows(); ++r) {
    double sum = 0.0;
    for (int64_t c = 0; c < probs.cols(); ++c) {
      sum += probs.At(r, c);
      EXPECT_GE(probs.At(r, c), 0.0f);
    }
    EXPECT_NEAR(sum, 1.0, 1e-4);
  }
}

TEST_F(ModelsTest, LabelPropagationAlphaRetainsSeed) {
  LabelPropagationOptions options;
  options.alpha = 0.5;
  const Matrix probs = PropagateLabels(*dataset_, options);
  const double acc = Accuracy(probs, dataset_->labels, dataset_->split.test);
  EXPECT_GT(acc, 1.5 / 4.0);
}

}  // namespace
}  // namespace rdd
