#include "core/condensed_trainer.h"

#include <algorithm>

#include "nn/metrics.h"
#include "util/logging.h"
#include "util/timer.h"

namespace rdd {

CondensedRddResult TrainRddCondensed(
    const Dataset& dataset, const GraphContext& context,
    const RddConfig& config, const condense::CondenseConfig& condense_config,
    uint64_t seed) {
  CondensedRddResult out;
  if (condense_config.method == condense::Method::kOff) {
    // The RDD_CONDENSE=0 contract: no condensation anywhere near the run.
    out.rdd = TrainRdd(dataset, context, config, seed);
    return out;
  }
  RDD_CHECK_GT(config.num_base_models, 0);
  WallTimer timer;

  WallTimer condense_timer;
  const condense::CondensedGraph condensed =
      condense::CondenseGraph(dataset, condense_config);
  const Dataset& small = condensed.dataset;
  const GraphContext small_context = GraphContext::FromDataset(small);
  out.condensed = true;
  out.condensed_nodes = small.NumNodes();
  out.condensed_edges = small.graph.num_edges();
  out.achieved_ratio = condensed.achieved_ratio;
  out.condense_seconds = condense_timer.ElapsedSeconds();

  // Algorithms 1-3 run over the synthetic nodes and edges exactly as
  // TrainRdd runs them over the full graph, with the loss normalizers
  // following the condensed sizes; the chain delivers, weights and scores
  // every student on the full graph.
  ChainSource source(dataset, context, config.train);
  source.train_data = &small;
  source.train_context = &small_context;

  // Early stopping watches the FULL graph's validation split; the final
  // report column is the full test split. One full-graph forward per
  // eval_every condensed epochs is the entire full-size cost of a student.
  // Patience counts EVALUATIONS (see EvalHooks), so it is rescaled to keep
  // the stagnation window in EPOCHS equal to the caller's config — without
  // this, eval_every = 5 would quietly 5x the window and burn the epochs the
  // condensation just saved.
  source.train.patience = std::max(
      1, config.train.patience / std::max(1, condense_config.eval_every));
  const GraphView full_view = context.FullView();
  source.hooks.eval_every = condense_config.eval_every;
  source.hooks.validate = [&](GraphModel* model) {
    const ModelOutput output = model->Forward(full_view, /*training=*/false);
    return Accuracy(output.logits.value(), dataset.labels, dataset.split.val);
  };
  source.hooks.test = [&](GraphModel* model) {
    const ModelOutput output = model->Forward(full_view, /*training=*/false);
    return Accuracy(output.logits.value(), dataset.labels,
                    dataset.split.test);
  };

  out.rdd = TrainStudentChain(source, config, RddResult{}, seed);
  out.rdd.total_seconds = timer.ElapsedSeconds();
  return out;
}

}  // namespace rdd
