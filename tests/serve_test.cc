#include "serve/predictor.h"

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/distill.h"
#include "core/rdd_config.h"
#include "data/citation_gen.h"
#include "models/mlp_student.h"
#include "models/model_io.h"
#include "observe/metrics.h"
#include "tensor/ops.h"

namespace rdd {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

Dataset TinyDataset(uint64_t seed) {
  CitationGenConfig config;
  config.num_nodes = 80;
  config.num_features = 24;
  config.num_edges = 200;
  config.num_classes = 3;
  config.labeled_per_class = 5;
  config.val_size = 12;
  config.test_size = 20;
  return GenerateCitationNetwork(config, seed);
}

void ExpectSameMatrix(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (int64_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.Data()[i], b.Data()[i]) << "at flat index " << i;
  }
}

/// The rows `nodes` of `m`, in query order.
Matrix Rows(const Matrix& m, const std::vector<int64_t>& nodes) {
  Matrix out(static_cast<int64_t>(nodes.size()), m.cols());
  for (size_t b = 0; b < nodes.size(); ++b) {
    for (int64_t c = 0; c < m.cols(); ++c) {
      out.At(static_cast<int64_t>(b), c) = m.At(nodes[b], c);
    }
  }
  return out;
}

TEST(PredictorTest, MlpCheckpointMatchesInMemoryStudent) {
  const Dataset dataset = TinyDataset(1);
  const GraphContext context = GraphContext::FromDataset(dataset);
  MlpStudent student(context, 2, 16, 0.5f, /*seed=*/3);
  const std::string path = TempPath("serve_mlp.rddc");
  ASSERT_TRUE(
      SaveCheckpoint(CheckpointFromDistilled(student, "mlp"), path).ok());

  StatusOr<Predictor> predictor = Predictor::FromCheckpoint(path, context);
  ASSERT_TRUE(predictor.ok()) << predictor.status().ToString();
  EXPECT_EQ(predictor->num_models(), 1);
  EXPECT_EQ(predictor->tag(), "mlp");

  std::vector<int64_t> nodes;
  for (int64_t i = 0; i < dataset.NumNodes(); i += 2) nodes.push_back(i);
  StatusOr<Matrix> probs = predictor->PredictProbs(nodes);
  ASSERT_TRUE(probs.ok());
  ExpectSameMatrix(*probs, Rows(student.PredictProbs(), nodes));
  std::remove(path.c_str());
}

TEST(PredictorTest, PredictionsAreBatchSizeInvariant) {
  const Dataset dataset = TinyDataset(2);
  const GraphContext context = GraphContext::FromDataset(dataset);
  MlpStudent student(context, 3, 10, 0.5f, /*seed=*/4);
  const std::string path = TempPath("serve_batch.rddc");
  ASSERT_TRUE(
      SaveCheckpoint(CheckpointFromDistilled(student, "batch"), path).ok());

  std::vector<int64_t> nodes;
  for (int64_t i = dataset.NumNodes() - 1; i >= 0; --i) nodes.push_back(i);

  Matrix reference;
  for (int64_t batch_size : {1, 3, 7, 64, 1000}) {
    Predictor::Options options;
    options.batch_size = batch_size;
    StatusOr<Predictor> predictor =
        Predictor::FromCheckpoint(path, context, options);
    ASSERT_TRUE(predictor.ok());
    StatusOr<Matrix> probs = predictor->PredictProbs(nodes);
    ASSERT_TRUE(probs.ok());
    if (reference.empty()) {
      reference = *probs;
    } else {
      ExpectSameMatrix(*probs, reference);
    }
  }
  std::remove(path.c_str());
}

TEST(PredictorTest, GnnCheckpointMatchesFullGraphForward) {
  const Dataset dataset = TinyDataset(3);
  const GraphContext context = GraphContext::FromDataset(dataset);
  ModelConfig config;
  config.kind = ModelKind::kGcn;
  config.hidden_dim = 8;
  auto gcn = BuildModel(context, config, /*seed=*/5);
  Checkpoint checkpoint;
  checkpoint.tag = "gcn";
  checkpoint.models.push_back(RecordFromModel(*gcn, config, 1.0));
  const std::string path = TempPath("serve_gcn.rddc");
  ASSERT_TRUE(SaveCheckpoint(checkpoint, path).ok());

  StatusOr<Predictor> predictor = Predictor::FromCheckpoint(path, context);
  ASSERT_TRUE(predictor.ok()) << predictor.status().ToString();

  const Matrix full =
      SoftmaxRows(gcn->Forward(/*training=*/false).logits.value());
  const std::vector<int64_t> nodes = {5, 0, 17, 42, 5};
  StatusOr<Matrix> probs = predictor->PredictProbs(nodes);
  ASSERT_TRUE(probs.ok());
  ASSERT_EQ(probs->rows(), static_cast<int64_t>(nodes.size()));
  for (size_t b = 0; b < nodes.size(); ++b) {
    for (int64_t c = 0; c < full.cols(); ++c) {
      ASSERT_EQ(probs->At(static_cast<int64_t>(b), c),
                full.At(nodes[b], c));
    }
  }
  std::remove(path.c_str());
}

TEST(PredictorTest, EnsembleIsWeightedMemberAverage) {
  const Dataset dataset = TinyDataset(4);
  const GraphContext context = GraphContext::FromDataset(dataset);
  ModelConfig config;
  config.kind = ModelKind::kGcn;
  config.hidden_dim = 8;
  auto member_a = BuildModel(context, config, /*seed=*/6);
  auto member_b = BuildModel(context, config, /*seed=*/7);
  Checkpoint checkpoint;
  checkpoint.tag = "ensemble";
  checkpoint.models.push_back(RecordFromModel(*member_a, config, 0.75));
  checkpoint.models.push_back(RecordFromModel(*member_b, config, 0.25));
  const std::string path = TempPath("serve_ensemble.rddc");
  ASSERT_TRUE(SaveCheckpoint(checkpoint, path).ok());

  StatusOr<Predictor> predictor = Predictor::FromCheckpoint(path, context);
  ASSERT_TRUE(predictor.ok());
  const Matrix probs_a =
      SoftmaxRows(member_a->Forward(/*training=*/false).logits.value());
  const Matrix probs_b =
      SoftmaxRows(member_b->Forward(/*training=*/false).logits.value());
  const std::vector<int64_t> nodes = {0, 11, 33};
  StatusOr<Matrix> probs = predictor->PredictProbs(nodes);
  ASSERT_TRUE(probs.ok());
  for (size_t b = 0; b < nodes.size(); ++b) {
    for (int64_t c = 0; c < probs->cols(); ++c) {
      const float want = 0.75f * probs_a.At(nodes[b], c) +
                         0.25f * probs_b.At(nodes[b], c);
      EXPECT_NEAR(probs->At(static_cast<int64_t>(b), c), want, 1e-5f);
    }
  }
  std::remove(path.c_str());
}

TEST(PredictorTest, LabelsAreArgmaxOfProbs) {
  const Dataset dataset = TinyDataset(5);
  const GraphContext context = GraphContext::FromDataset(dataset);
  MlpStudent student(context, 2, 12, 0.5f, /*seed=*/8);
  const std::string path = TempPath("serve_labels.rddc");
  ASSERT_TRUE(
      SaveCheckpoint(CheckpointFromDistilled(student, "labels"), path).ok());
  StatusOr<Predictor> predictor = Predictor::FromCheckpoint(path, context);
  ASSERT_TRUE(predictor.ok());

  const std::vector<int64_t> nodes = {2, 4, 8, 16, 32};
  StatusOr<Matrix> probs = predictor->PredictProbs(nodes);
  StatusOr<std::vector<int64_t>> labels = predictor->PredictLabels(nodes);
  ASSERT_TRUE(probs.ok());
  ASSERT_TRUE(labels.ok());
  EXPECT_EQ(*labels, ArgmaxRows(*probs));
  std::remove(path.c_str());
}

/// simd.gemm.calls + simd.spmm.calls so far (counted while metrics are on).
uint64_t KernelCalls() {
  auto& registry = observe::MetricsRegistry::Global();
  return registry.counter("simd.gemm.calls").value() +
         registry.counter("simd.spmm.calls").value();
}

TEST(PredictorTest, RepeatQueriesRunNoKernel) {
  const bool metrics_were_on = observe::MetricsEnabled();
  observe::SetMetricsEnabled(true);
  const Dataset dataset = TinyDataset(8);
  const GraphContext context = GraphContext::FromDataset(dataset);
  MlpStudent student(context, 3, 16, 0.5f, /*seed=*/12);
  ModelConfig gcn_config;
  gcn_config.kind = ModelKind::kGcn;
  gcn_config.hidden_dim = 8;
  auto gcn = BuildModel(context, gcn_config, /*seed=*/13);
  Checkpoint gnn;
  gnn.tag = "gnn";
  gnn.models.push_back(RecordFromModel(*gcn, gcn_config, 1.0));
  const std::string mlp_path = TempPath("serve_repeat_mlp.rddc");
  const std::string gnn_path = TempPath("serve_repeat_gnn.rddc");
  ASSERT_TRUE(
      SaveCheckpoint(CheckpointFromDistilled(student, "mlp"), mlp_path).ok());
  ASSERT_TRUE(SaveCheckpoint(gnn, gnn_path).ok());

  for (const std::string& path : {mlp_path, gnn_path}) {
    SCOPED_TRACE(path);
    StatusOr<Predictor> predictor = Predictor::FromCheckpoint(path, context);
    ASSERT_TRUE(predictor.ok()) << predictor.status().ToString();
    const uint64_t at_load = KernelCalls();
    ASSERT_TRUE(predictor->PredictProbs({3, 1, 4}).ok());
    const uint64_t after_first = KernelCalls();
    EXPECT_GT(after_first, at_load) << "the first query computes the table";
    StatusOr<Matrix> again = predictor->PredictProbs({1, 5, 9, 2, 6});
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(KernelCalls(), after_first)
        << "a repeat query must be a row gather";
  }
  std::remove(mlp_path.c_str());
  std::remove(gnn_path.c_str());
  observe::SetMetricsEnabled(metrics_were_on);
}

TEST(PredictorTest, OutOfRangeNodeIsInvalidArgument) {
  const Dataset dataset = TinyDataset(6);
  const GraphContext context = GraphContext::FromDataset(dataset);
  MlpStudent student(context, 2, 8, 0.5f, /*seed=*/9);
  const std::string path = TempPath("serve_range.rddc");
  ASSERT_TRUE(
      SaveCheckpoint(CheckpointFromDistilled(student, "range"), path).ok());
  StatusOr<Predictor> predictor = Predictor::FromCheckpoint(path, context);
  ASSERT_TRUE(predictor.ok());

  for (int64_t bad : {static_cast<int64_t>(-1), dataset.NumNodes(),
                      dataset.NumNodes() + 100}) {
    StatusOr<Matrix> probs = predictor->PredictProbs({0, bad});
    EXPECT_FALSE(probs.ok());
    EXPECT_EQ(probs.status().code(), StatusCode::kInvalidArgument);
  }
  std::remove(path.c_str());
}

TEST(PredictorTest, BadOptionsAndFilesAreRejected) {
  const Dataset dataset = TinyDataset(7);
  const GraphContext context = GraphContext::FromDataset(dataset);
  MlpStudent student(context, 2, 8, 0.5f, /*seed=*/10);
  const std::string path = TempPath("serve_bad.rddc");
  ASSERT_TRUE(
      SaveCheckpoint(CheckpointFromDistilled(student, "bad"), path).ok());

  Predictor::Options options;
  options.batch_size = 0;
  EXPECT_EQ(Predictor::FromCheckpoint(path, context, options).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Predictor::FromCheckpoint(TempPath("nope.rddc"), context)
                .status()
                .code(),
            StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(DistillTest, DistilledStudentTracksTeacher) {
  // Larger than TinyDataset: a graph-blind student needs feature rows that
  // actually carry class signal, and the teacher needs enough training to
  // be worth mimicking.
  CitationGenConfig gen;
  gen.num_nodes = 200;
  gen.num_features = 60;
  gen.num_edges = 500;
  gen.num_classes = 3;
  gen.labeled_per_class = 8;
  gen.val_size = 30;
  gen.test_size = 40;
  const Dataset dataset = GenerateCitationNetwork(gen, /*seed=*/8);
  const GraphContext context = GraphContext::FromDataset(dataset);

  RddConfig rdd_config;
  rdd_config.num_base_models = 2;
  rdd_config.base_model.hidden_dim = 16;
  rdd_config.train.max_epochs = 100;
  rdd_config.train.patience = 100;
  const RddResult rdd = TrainRdd(dataset, context, rdd_config, /*seed=*/1);
  ASSERT_EQ(static_cast<int64_t>(rdd.students.size()),
            rdd_config.num_base_models);

  DistillConfig distill_config;
  distill_config.hidden_dim = 32;
  distill_config.train.max_epochs = 150;
  distill_config.train.patience = 150;
  const DistillResult distilled =
      DistillToMlp(dataset, context, rdd.teacher, distill_config, /*seed=*/2);
  ASSERT_NE(distilled.student, nullptr);
  EXPECT_GT(distilled.student_test_accuracy, 0.7);
  EXPECT_LE(distilled.student_test_accuracy, 1.0);
  EXPECT_GT(distilled.test_agreement, 0.7);
  EXPECT_LE(distilled.test_agreement, 1.0);
  EXPECT_EQ(distilled.teacher_test_accuracy, rdd.ensemble_test_accuracy);

  // The full pipeline: checkpoint the distilled student, serve it, and
  // check the served predictions equal the in-memory student's.
  const std::string path = TempPath("serve_distilled.rddc");
  ASSERT_TRUE(
      SaveCheckpoint(CheckpointFromDistilled(*distilled.student, "distilled"),
                     path)
          .ok());
  StatusOr<Predictor> predictor = Predictor::FromCheckpoint(path, context);
  ASSERT_TRUE(predictor.ok());
  StatusOr<Matrix> probs = predictor->PredictProbs(dataset.split.test);
  ASSERT_TRUE(probs.ok());
  ExpectSameMatrix(*probs, Rows(distilled.student->PredictProbs(),
                                dataset.split.test));
  std::remove(path.c_str());
}

TEST(DistillTest, DeterministicAcrossRuns) {
  const Dataset dataset = TinyDataset(9);
  const GraphContext context = GraphContext::FromDataset(dataset);
  RddConfig rdd_config;
  rdd_config.num_base_models = 1;
  rdd_config.base_model.hidden_dim = 8;
  rdd_config.train.max_epochs = 10;
  rdd_config.train.patience = 10;
  const RddResult rdd = TrainRdd(dataset, context, rdd_config, /*seed=*/3);

  DistillConfig distill_config;
  distill_config.hidden_dim = 16;
  distill_config.train.max_epochs = 15;
  distill_config.train.patience = 15;
  const DistillResult a =
      DistillToMlp(dataset, context, rdd.teacher, distill_config, /*seed=*/4);
  const DistillResult b =
      DistillToMlp(dataset, context, rdd.teacher, distill_config, /*seed=*/4);
  ExpectSameMatrix(a.student->Forward(/*training=*/false).logits.value(),
                   b.student->Forward(/*training=*/false).logits.value());
  EXPECT_EQ(a.student_test_accuracy, b.student_test_accuracy);
  EXPECT_EQ(a.report.epochs_run, b.report.epochs_run);
}

}  // namespace
}  // namespace rdd
