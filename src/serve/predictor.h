#ifndef RDD_SERVE_PREDICTOR_H_
#define RDD_SERVE_PREDICTOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/rdd_trainer.h"
#include "data/checkpoint.h"
#include "models/graph_model.h"
#include "models/mlp_student.h"
#include "models/model_factory.h"
#include "util/status.h"

namespace rdd {

/// Snapshots a finished RDD run as a checkpoint: one record per ensemble
/// member, each carrying its alpha weight, built from `base_model` (the
/// architecture config the run trained with).
Checkpoint CheckpointFromRdd(const RddResult& result,
                             const ModelConfig& base_model,
                             const std::string& tag);

/// Snapshots a distilled MlpStudent as a single-record checkpoint.
Checkpoint CheckpointFromDistilled(const MlpStudent& student,
                                   const std::string& tag);

/// Node-classification server over a loaded checkpoint. Within one loaded
/// checkpoint the graph and the weights never change, so every node's
/// answer is fixed: the first query computes the whole table
///
///   probs = sum_m (w_m / sum w) * softmax(model_m.Forward(full view)),
///
/// accumulated in member order (the Teacher's Eq. 12 average; one member
/// for a distilled MLP), and every query, the first included, is then a
/// validated row gather from it. The rebuilt models are released once the
/// table exists. FromCheckpoint itself runs no forward, so a hot swap loads
/// as fast as the checkpoint parses, and the first query on the new
/// generation pays for the table: one full-view forward per member.
///
/// Answers are batch-invariant by construction: a node's row is
/// bit-identical whatever query, or batch size, it is served in. Each query
/// is traced ("serve/predict", with "serve/build_table" on the first and
/// one "serve/batch" per `batch_size` rows) and counted (serve.queries,
/// serve.batches, serve.batch_ns) via src/observe.
///
/// Not thread-safe: concurrent PredictProbs/PredictLabels calls on one
/// Predictor must be serialized by the caller (the daemon holds its
/// generation lock).
class Predictor {
 public:
  struct Options {
    /// Rows gathered per "serve/batch" span and serve.batch_ns sample; must
    /// be >= 1. Answers do not depend on it.
    int64_t batch_size = 256;
  };

  /// An empty predictor that serves nothing; exists for StatusOr. Use
  /// FromCheckpoint.
  Predictor() = default;

  /// Loads `path` and rebuilds every model in it over `context`. Fails with
  /// InvalidArgument when the checkpoint is corrupt, names an unknown
  /// architecture, or was trained on a graph whose dimensions disagree with
  /// `context`.
  static StatusOr<Predictor> FromCheckpoint(const std::string& path,
                                            const GraphContext& context,
                                            const Options& options);
  static StatusOr<Predictor> FromCheckpoint(const std::string& path,
                                            const GraphContext& context);

  /// Weight-averaged class probabilities for `nodes` (one row per query, in
  /// query order). InvalidArgument on any out-of-range node id. Non-const
  /// because the first call builds the table.
  StatusOr<Matrix> PredictProbs(const std::vector<int64_t>& nodes);

  /// Argmax labels for `nodes`.
  StatusOr<std::vector<int64_t>> PredictLabels(
      const std::vector<int64_t>& nodes);

  const std::string& tag() const { return tag_; }
  int64_t num_models() const { return static_cast<int64_t>(weights_.size()); }
  int64_t batch_size() const { return options_.batch_size; }

 private:
  /// Computes table_ from models_, then releases the models.
  void BuildTable();

  std::string tag_;
  Options options_;
  int64_t num_nodes_ = 0;
  /// Non-empty exactly until the first query builds the table.
  std::vector<std::unique_ptr<GraphModel>> models_;
  std::vector<double> weights_;
  Matrix table_;  ///< num_nodes x num_classes once built.
};

}  // namespace rdd

#endif  // RDD_SERVE_PREDICTOR_H_
