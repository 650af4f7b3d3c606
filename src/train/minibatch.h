#ifndef RDD_TRAIN_MINIBATCH_H_
#define RDD_TRAIN_MINIBATCH_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "data/dataset.h"
#include "graph/graph_view.h"
#include "graph/partition.h"
#include "graph/sampler.h"
#include "models/graph_model.h"
#include "train/trainer.h"

namespace rdd {

/// How mini-batch training slices the graph.
struct MiniBatchConfig {
  /// Target nodes per sampled batch.
  int64_t batch_size = 256;
  /// Per-hop neighbor fan-outs (see SamplerConfig); length = receptive
  /// depth. Ignored in shard mode.
  std::vector<int64_t> fanouts = {10, 10};
  /// > 0 switches from per-batch neighbor sampling to shard-by-shard
  /// training over a propagated-feature partition with this many parts.
  int64_t num_shards = 0;
  /// Evaluate through fixed inference views instead of one full-graph
  /// forward. Required at web scale, where a full forward would defeat the
  /// bounded-memory point of mini-batching; off by default so small-graph
  /// runs early-stop on exactly the classic full-batch metric.
  bool sampled_eval = false;
  int64_t eval_batch_size = 1024;
  /// Base seed of the sampling/partition stream tree (split, never shared,
  /// with the model's own rng).
  uint64_t sampler_seed = 0x5eedULL;

  /// Applies RDD_MB_FANOUT (comma list, e.g. "10,10") / RDD_MB_SHARDS on
  /// top of the defaults.
  static MiniBatchConfig FromEnv();
};

/// The training views of mini-batch training, for TrainWithLoss. Sampled
/// mode re-batches `targets` every epoch (batch composition and sampled
/// frontiers are a pure function of (mb_config.sampler_seed, epoch)) and
/// samples one view per batch, so peak memory is bounded by the largest
/// batch view, never the full graph's activations. Shard mode
/// (num_shards > 0) partitions the graph once and replays the shard views
/// every epoch; it ignores `targets`, since the shards cover every node.
/// Supervised training passes the labeled split as `targets`; losses that
/// act on unlabeled nodes (RDD's distillation and edge terms) pass every
/// node, so each one appears as a batch target row.
///
/// Contract: the views are bit-identical at any thread count, SIMD backend,
/// and pool mode. `dataset` must outlive the returned function.
EpochViews MiniBatchViews(const Dataset& dataset,
                          const MiniBatchConfig& mb_config,
                          std::vector<int64_t> targets);

/// Evaluation hooks of mini-batch training: with mb_config.sampled_eval,
/// validation and test accuracy go through EvaluateAccuracySampled; else
/// the defaults (one full-graph forward). `dataset` must outlive them.
EvalHooks MiniBatchEvalHooks(const Dataset& dataset,
                             const MiniBatchConfig& mb_config);

/// Supervised mini-batch training: per-batch masked softmax cross-entropy
/// over each view's labeled target rows.
TrainReport TrainMiniBatchSupervised(GraphModel* model, const Dataset& dataset,
                                     const TrainConfig& config,
                                     const MiniBatchConfig& mb_config);

/// Accuracy over `indices` computed through fixed full-neighborhood
/// inference views of depth mb_config.fanouts.size(), eval_batch_size
/// targets at a time — never materializes a full-graph activation.
double EvaluateAccuracySampled(GraphModel* model, const Dataset& dataset,
                               const std::vector<int64_t>& indices,
                               const MiniBatchConfig& mb_config);

}  // namespace rdd

#endif  // RDD_TRAIN_MINIBATCH_H_
