#include "train/trainer.h"

#include "autograd/ops.h"
#include "memory/workspace.h"
#include "nn/metrics.h"
#include "nn/optimizer.h"
#include "observe/metrics.h"
#include "observe/trace.h"
#include "util/logging.h"
#include "util/timer.h"

namespace rdd {

TrainReport TrainWithLoss(GraphModel* model, const Dataset& dataset,
                          const TrainConfig& config, const ViewLossFn& loss_fn,
                          const EpochViews& views, const EvalHooks& hooks) {
  RDD_CHECK(model != nullptr);
  RDD_CHECK_GT(config.max_epochs, 0);
  RDD_CHECK_GT(config.patience, 0);
  RDD_CHECK_GE(hooks.eval_every, 1);
  WallTimer timer;
  // The epoch loop runs inside one Workspace so every tape, gradient, and
  // scratch buffer released in one step is recycled by the next, and the
  // pool's high-water mark tracks the largest view trained on. Nested
  // callers (the RDD student chain, the ensemble baselines) hold an outer
  // Workspace, so the buffers also carry across students of one run.
  memory::Workspace workspace;
  Adam optimizer(model->Parameters(), config.lr, config.weight_decay);

  TrainReport report;
  report.val_history.reserve(static_cast<size_t>(config.max_epochs));
  std::vector<Matrix> best_params;
  int epochs_since_best = 0;
  // One span per epoch ("train/epoch", arg = epoch index) with the forward/
  // loss/backward/step and validation sub-phases nested inside — the
  // per-epoch cost accounting of the paper's Table 9. Spans only observe;
  // with tracing off each is one relaxed flag load (see observe/trace.h).
  static observe::Counter& epoch_counter =
      observe::MetricsRegistry::Global().counter("train.epochs");
  double last_val = 0.0;
  for (int epoch = 0; epoch < config.max_epochs; ++epoch) {
    observe::TraceSpan epoch_span("train/epoch", epoch);
    epoch_counter.Add(1);
    float last_loss = 0.0f;
    const TrainStep step = [&](const GraphView& view) {
      ModelOutput output = model->Forward(view, /*training=*/true);
      Variable loss = loss_fn(view, output, epoch);
      last_loss = loss.value().At(0, 0);
      observe::TraceSpan span("train/backward_step");
      loss.Backward();
      optimizer.Step();
    };
    if (views) {
      views(epoch, step);
    } else {
      step(model->full_view());
    }

    // With eval_every > 1 validation is amortized: skipped epochs carry the
    // last measurement forward and leave the patience counter untouched.
    const bool evaluate = epoch % hooks.eval_every == 0 ||
                          epoch + 1 == config.max_epochs;
    if (evaluate) {
      observe::TraceSpan span("train/validate");
      last_val = hooks.validate
                     ? hooks.validate(model)
                     : EvaluateAccuracy(model, dataset, dataset.split.val);
    }
    const double val_acc = last_val;
    report.val_history.push_back(val_acc);
    report.epochs_run = epoch + 1;
    if (config.verbose) {
      RDD_LOG(Info) << "epoch " << epoch << " last_loss " << last_loss
                    << " val_acc " << val_acc;
    }
    if (!evaluate) continue;
    if (val_acc > report.best_val_accuracy) {
      report.best_val_accuracy = val_acc;
      epochs_since_best = 0;
      if (config.restore_best) {
        const std::vector<Variable> params = model->Parameters();
        if (best_params.empty()) {
          best_params = SnapshotParameters(params);
        } else {
          // Refresh in place: Matrix copy-assignment reuses the snapshot's
          // pooled buffers, so improvements after the first allocate nothing.
          for (size_t i = 0; i < best_params.size(); ++i) {
            best_params[i] = params[i].value();
          }
        }
      }
    } else if (++epochs_since_best >= config.patience) {
      break;
    }
  }
  if (config.restore_best && !best_params.empty()) {
    // The snapshot is dead after this, so move the weights into place
    // instead of deep-copying them.
    std::vector<Variable> params = model->Parameters();
    RestoreParameters(std::move(best_params), &params);
  }
  report.test_accuracy =
      hooks.test ? hooks.test(model)
                 : EvaluateAccuracy(model, dataset, dataset.split.test);
  report.train_seconds = timer.ElapsedSeconds();
  return report;
}

TrainReport TrainWithLoss(GraphModel* model, const Dataset& dataset,
                          const TrainConfig& config, const LossFn& loss_fn,
                          const EvalHooks& hooks) {
  return TrainWithLoss(
      model, dataset, config,
      [&loss_fn](const GraphView& /*view*/, const ModelOutput& output,
                 int epoch) { return loss_fn(output, epoch); },
      EpochViews{}, hooks);
}

Variable SupervisedLoss(const Dataset& dataset, const GraphView& view,
                        const ModelOutput& output) {
  if (view.full()) {
    return ag::SoftmaxCrossEntropy(output.logits, dataset.labels,
                                   dataset.split.train, ag::Reduction::kMean);
  }
  const std::vector<bool> train_mask = dataset.TrainMask();
  std::vector<int64_t> labeled;
  for (int64_t i = 0; i < view.num_targets; ++i) {
    if (train_mask[static_cast<size_t>(view.GlobalId(i))]) labeled.push_back(i);
  }
  return ag::SoftmaxCrossEntropy(output.logits,
                                 view.GatherInt64(dataset.labels), labeled,
                                 ag::Reduction::kMean);
}

TrainReport TrainSupervised(GraphModel* model, const Dataset& dataset,
                            const TrainConfig& config) {
  return TrainWithLoss(
      model, dataset, config,
      [&dataset](const GraphView& view, const ModelOutput& output,
                 int /*epoch*/) {
        return SupervisedLoss(dataset, view, output);
      },
      EpochViews{}, EvalHooks{});
}

double EvaluateAccuracy(GraphModel* model, const Dataset& dataset,
                        const std::vector<int64_t>& indices) {
  const ModelOutput output = model->Forward(/*training=*/false);
  return Accuracy(output.logits.value(), dataset.labels, indices);
}

std::vector<Matrix> SnapshotParameters(const std::vector<Variable>& params) {
  std::vector<Matrix> snapshot;
  snapshot.reserve(params.size());
  for (const Variable& p : params) snapshot.push_back(p.value());
  return snapshot;
}

void RestoreParameters(const std::vector<Matrix>& snapshot,
                       std::vector<Variable>* params) {
  RDD_CHECK(params != nullptr);
  RDD_CHECK_EQ(snapshot.size(), params->size());
  for (size_t i = 0; i < snapshot.size(); ++i) {
    Matrix* value = (*params)[i].mutable_value();
    RDD_CHECK_EQ(value->rows(), snapshot[i].rows());
    RDD_CHECK_EQ(value->cols(), snapshot[i].cols());
    *value = snapshot[i];
  }
}

void RestoreParameters(std::vector<Matrix>&& snapshot,
                       std::vector<Variable>* params) {
  RDD_CHECK(params != nullptr);
  RDD_CHECK_EQ(snapshot.size(), params->size());
  for (size_t i = 0; i < snapshot.size(); ++i) {
    Matrix* value = (*params)[i].mutable_value();
    RDD_CHECK_EQ(value->rows(), snapshot[i].rows());
    RDD_CHECK_EQ(value->cols(), snapshot[i].cols());
    *value = std::move(snapshot[i]);
  }
  snapshot.clear();
}

}  // namespace rdd
