#ifndef RDD_MODELS_MLP_STUDENT_H_
#define RDD_MODELS_MLP_STUDENT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "models/graph_model.h"
#include "nn/linear.h"

namespace rdd {

/// The serving-side student of GNN-to-MLP reliable distillation (ROADMAP
/// item 2, after "Quantifying the Knowledge in GNNs for Reliable
/// Distillation into MLPs"): a graph-blind MLP over node features, trained
/// by src/core/distill against the RDD ensemble's soft labels. Unlike the
/// 2-layer test-control Mlp, the student has a configurable depth/width
/// (distillation needs capacity headroom over the teacher). Serving needs no
/// path of its own: the Predictor runs one full-view Forward per generation
/// and answers every query by row gather (serve/predictor.h).
class MlpStudent : public GraphModel {
 public:
  /// Builds a `num_layers`-deep MLP (feature_dim -> hidden_dim x
  /// (num_layers - 1) -> num_classes). num_layers >= 1; with one layer the
  /// model is a linear classifier.
  MlpStudent(GraphContext context, int64_t num_layers, int64_t hidden_dim,
             float dropout, uint64_t seed);

  /// Training/evaluation forward over the view's feature rows (the
  /// transductive path the distillation trainer drives; graph-blind, so the
  /// view's adjacency is ignored).
  using GraphModel::Forward;
  ModelOutput Forward(const GraphView& view, bool training) override;

  int64_t num_layers() const { return static_cast<int64_t>(layers_.size()); }
  int64_t hidden_dim() const { return hidden_dim_; }
  float dropout() const { return dropout_; }

 private:
  std::vector<std::unique_ptr<Linear>> layers_;
  int64_t hidden_dim_;
  float dropout_;
};

}  // namespace rdd

#endif  // RDD_MODELS_MLP_STUDENT_H_
