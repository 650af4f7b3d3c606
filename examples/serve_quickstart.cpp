// Serving quickstart — the full train → distill → checkpoint → load → query
// loop on a small synthetic citation network:
//
//   1. train a 2-member RDD ensemble,
//   2. distill it into a graph-blind MLP student,
//   3. save both as checkpoints,
//   4. load them back through serve::Predictor and answer node queries,
//   5. verify the served probabilities exactly match the in-memory student.
//
//   ./build/examples/serve_quickstart
//
// Exits non-zero on any failure; CI runs this binary as the serving smoke
// test.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/distill.h"
#include "core/rdd_config.h"
#include "core/rdd_trainer.h"
#include "data/citation_gen.h"
#include "serve/predictor.h"
#include "util/timer.h"

namespace {

/// Prints the failed status and exits; keeps main() linear.
void ExitOnError(const rdd::Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FAIL (%s): %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

int main() {
  // 1. A small Cora-like dataset: big enough to learn on, small enough that
  //    the whole example runs in seconds.
  rdd::CitationGenConfig gen;
  gen.num_nodes = 600;
  gen.num_features = 120;
  gen.num_edges = 1500;
  gen.num_classes = 4;
  gen.labeled_per_class = 10;
  gen.val_size = 80;
  gen.test_size = 120;
  const rdd::Dataset dataset = rdd::GenerateCitationNetwork(gen, /*seed=*/42);
  const rdd::GraphContext context = rdd::GraphContext::FromDataset(dataset);
  std::printf("dataset: %lld nodes, %lld edges, %lld classes\n",
              static_cast<long long>(dataset.NumNodes()),
              static_cast<long long>(dataset.graph.num_edges()),
              static_cast<long long>(dataset.num_classes));

  // 2. Train the RDD ensemble teacher (short protocol: 2 members).
  rdd::RddConfig rdd_config;
  rdd_config.num_base_models = 2;
  rdd_config.train.max_epochs = 120;
  const rdd::RddResult rdd_result =
      rdd::TrainRdd(dataset, context, rdd_config, /*seed=*/1);
  std::printf("ensemble:  test accuracy %.1f%%\n",
              100.0 * rdd_result.ensemble_test_accuracy);

  // 3. Distill into an MLP student (reliability-weighted soft labels).
  rdd::DistillConfig distill_config;
  distill_config.train.max_epochs = 200;
  const rdd::DistillResult distilled = rdd::DistillToMlp(
      dataset, context, rdd_result.teacher, distill_config, /*seed=*/1);
  std::printf("distilled: test accuracy %.1f%%, teacher agreement %.1f%%\n",
              100.0 * distilled.student_test_accuracy,
              100.0 * distilled.test_agreement);

  // 4. Checkpoint both, then serve strictly from the files.
  const std::string ensemble_path = "serve_quickstart_ensemble.rddc";
  const std::string mlp_path = "serve_quickstart_mlp.rddc";
  ExitOnError(rdd::SaveCheckpoint(rdd::CheckpointFromRdd(
                                      rdd_result, rdd_config.base_model,
                                      "quickstart-ensemble"),
                                  ensemble_path),
              "save ensemble checkpoint");
  ExitOnError(rdd::SaveCheckpoint(rdd::CheckpointFromDistilled(
                                      *distilled.student, "quickstart-mlp"),
                                  mlp_path),
              "save MLP checkpoint");

  rdd::StatusOr<rdd::Predictor> mlp_server =
      rdd::Predictor::FromCheckpoint(mlp_path, context);
  ExitOnError(mlp_server.status(), "load MLP checkpoint");
  rdd::StatusOr<rdd::Predictor> gnn_server =
      rdd::Predictor::FromCheckpoint(ensemble_path, context);
  ExitOnError(gnn_server.status(), "load ensemble checkpoint");

  // 5. Query a batch of nodes and check the served MLP probabilities are
  //    exactly the in-memory student's — the checkpoint round trip must be
  //    lossless. The first query computes the predictor's probability
  //    table; the second is a row gather from it.
  const std::vector<int64_t> query = {0, 17, 123, 599, 301, 17};
  rdd::WallTimer timer;
  rdd::StatusOr<rdd::Matrix> first = mlp_server->PredictProbs(query);
  const double first_us = timer.ElapsedSeconds() * 1e6;
  ExitOnError(first.status(), "serve MLP batch");
  timer.Restart();
  rdd::StatusOr<rdd::Matrix> served = mlp_server->PredictProbs(query);
  const double serve_us = timer.ElapsedSeconds() * 1e6;
  ExitOnError(served.status(), "serve MLP batch again");
  const rdd::Matrix expected = distilled.student->PredictProbs();
  for (int64_t i = 0; i < served->rows(); ++i) {
    for (int64_t j = 0; j < served->cols(); ++j) {
      const float got = served->RowData(i)[j];
      const float want = expected.RowData(query[static_cast<size_t>(i)])[j];
      if (got != want || first->RowData(i)[j] != got) {
        std::fprintf(stderr,
                     "FAIL: served prob [%lld,%lld] %.9g != in-memory %.9g\n",
                     static_cast<long long>(i), static_cast<long long>(j),
                     got, want);
        return 1;
      }
    }
  }
  std::printf("served %zu queries from the MLP checkpoint in %.1f us "
              "(first query, which builds the table: %.1f us), bit-identical "
              "to the in-memory student\n",
              query.size(), serve_us, first_us);

  // The ensemble answers the same queries; its first query runs one
  // full-graph forward per member to build the table.
  rdd::StatusOr<std::vector<int64_t>> labels = gnn_server->PredictLabels(query);
  ExitOnError(labels.status(), "serve ensemble batch");
  std::printf("ensemble checkpoint serves too (first query -> class %lld)\n",
              static_cast<long long>((*labels)[0]));

  // Out-of-range queries must be rejected, not crash.
  if (mlp_server->PredictProbs({dataset.NumNodes()}).ok()) {
    std::fprintf(stderr, "FAIL: out-of-range node id was accepted\n");
    return 1;
  }
  std::printf("out-of-range query rejected with InvalidArgument\n");

  std::remove(ensemble_path.c_str());
  std::remove(mlp_path.c_str());
  std::printf("OK\n");
  return 0;
}
