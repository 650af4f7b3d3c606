#ifndef RDD_TRAIN_TRAINER_H_
#define RDD_TRAIN_TRAINER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "autograd/variable.h"
#include "data/dataset.h"
#include "models/graph_model.h"

namespace rdd {

/// Optimization settings shared by every trainer in the library. Defaults
/// follow the paper's setup (Sec. 5.1): Adam, lr 0.01, weight decay 5e-4,
/// early stopping when validation accuracy fails to improve for 20 epochs.
struct TrainConfig {
  int max_epochs = 300;
  int patience = 20;
  float lr = 0.01f;
  float weight_decay = 5e-4f;
  bool restore_best = true;  ///< Reload best-validation weights at the end.
  bool verbose = false;      ///< Log per-epoch progress.
};

/// Outcome of one model's training run.
struct TrainReport {
  double best_val_accuracy = 0.0;
  double test_accuracy = 0.0;
  int epochs_run = 0;
  double train_seconds = 0.0;
  std::vector<double> val_history;  ///< Validation accuracy per epoch.
};

/// Builds the loss for one epoch. Receives the training-mode forward output
/// and the epoch index; returns a 1x1 scalar Variable. The full-graph form
/// of ViewLossFn, kept for the single-view callers (baselines, distillation).
using LossFn = std::function<Variable(const ModelOutput&, int epoch)>;

/// Builds the loss for one training step: receives the view the step trains
/// on, the training-mode forward output over it, and the epoch index. Row
/// indices in the output are VIEW-LOCAL; map back with view.GlobalId().
using ViewLossFn = std::function<Variable(
    const GraphView& view, const ModelOutput& output, int epoch)>;

/// One training step over a view: forward, loss, backward, Adam step.
using TrainStep = std::function<void(const GraphView& view)>;

/// Supplies the training views of one epoch: calls `step` once per view, in
/// order (sampled mini-batches, shards, a k-hop region). An empty EpochViews
/// trains on the model's full view, one step per epoch.
using EpochViews = std::function<void(int epoch, const TrainStep& step)>;

/// Caller-supplied evaluation overrides for TrainWithLoss. The condensed
/// training driver uses these to train on a condensed graph while early
/// stopping (and reporting) against the FULL graph's val/test splits, and
/// sampled mini-batch training to evaluate through inference views; the
/// defaults reproduce the classic behavior exactly.
struct EvalHooks {
  /// Validation metric driving early stopping and best-weight selection.
  /// Defaults to accuracy over `dataset.split.val`.
  std::function<double(GraphModel*)> validate;
  /// Final test metric written to TrainReport::test_accuracy. Defaults to
  /// accuracy over `dataset.split.test`.
  std::function<double(GraphModel*)> test;
  /// Run `validate` only on epochs where epoch % eval_every == 0 (plus the
  /// final epoch). Skipped epochs carry the last measured value forward in
  /// val_history and do not advance the patience counter, so `patience`
  /// counts EVALUATIONS when eval_every > 1. Used when one validation
  /// forward costs more than a training epoch (condensed and incremental
  /// training).
  int eval_every = 1;
};

/// The library's one epoch loop: trains `model` with Adam + early stopping
/// on validation accuracy. Each epoch runs forward, loss, backward and step
/// over every view `views` supplies, then evaluates through `hooks`.
/// Restores the best-validation parameters before returning when
/// config.restore_best is set.
///
/// Contract: for a fixed (model seed, dataset, config, loss_fn, views) the
/// epoch sequence — losses, parameter updates, val_history, stopping epoch —
/// is deterministic and bit-identical across thread counts and kernel
/// backends. Observability: each epoch increments the "train.epochs"
/// counter and, when tracing, emits a "train/epoch" span (arg = epoch
/// index) nesting one "train/backward_step" per view and "train/validate" —
/// the per-epoch cost breakdown behind the paper's Table 9 timing analysis.
TrainReport TrainWithLoss(GraphModel* model, const Dataset& dataset,
                          const TrainConfig& config, const ViewLossFn& loss_fn,
                          const EpochViews& views, const EvalHooks& hooks);

/// Full-view training with a full-graph loss.
TrainReport TrainWithLoss(GraphModel* model, const Dataset& dataset,
                          const TrainConfig& config, const LossFn& loss_fn,
                          const EvalHooks& hooks = {});

/// L1 (Eq. 3/6): mean softmax cross-entropy over the labeled target rows of
/// `view`. On the full view these are dataset.split.train in split order;
/// on a sub-view, the target rows whose node is in the training split.
Variable SupervisedLoss(const Dataset& dataset, const GraphView& view,
                        const ModelOutput& output);

/// Standard supervised training: masked softmax cross-entropy over the
/// labeled nodes (Eq. 3 of the paper).
TrainReport TrainSupervised(GraphModel* model, const Dataset& dataset,
                            const TrainConfig& config);

/// Evaluation-mode accuracy of `model` over the given node set.
double EvaluateAccuracy(GraphModel* model, const Dataset& dataset,
                        const std::vector<int64_t>& indices);

/// Copies the current parameter values of `params`.
std::vector<Matrix> SnapshotParameters(const std::vector<Variable>& params);

/// Writes `snapshot` back into `params` (shapes must match).
void RestoreParameters(const std::vector<Matrix>& snapshot,
                       std::vector<Variable>* params);

/// As above but consumes the snapshot, moving each weight matrix into place
/// — the restore-best path uses this since the snapshot is dead afterwards.
void RestoreParameters(std::vector<Matrix>&& snapshot,
                       std::vector<Variable>* params);

}  // namespace rdd

#endif  // RDD_TRAIN_TRAINER_H_
