#include "graph/condense/condense.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>

#include "autograd/ops.h"
#include "models/graph_model.h"
#include "models/label_propagation.h"
#include "models/model_factory.h"
#include "observe/metrics.h"
#include "observe/trace.h"
#include "tensor/ops.h"
#include "train/trainer.h"
#include "util/env.h"
#include "util/logging.h"

namespace rdd::condense {

const char* MethodName(Method method) {
  switch (method) {
    case Method::kOff:
      return "off";
    case Method::kCluster:
      return "cluster";
  }
  return "unknown";
}

CondenseConfig CondenseConfig::FromEnv() {
  CondenseConfig config;
  config.method = Method::kOff;
  if (const char* value = std::getenv("RDD_CONDENSE")) {
    const std::string v(value);
    if (v == "cluster") {
      config.method = Method::kCluster;
    } else if (!v.empty()) {
      // Boolean spellings: on means the default (cluster) condenser.
      bool recognized = true;
      const bool on = env::ParseBool(value, false, &recognized);
      if (!recognized) {
        RDD_LOG(Warning) << "RDD_CONDENSE=" << v
                         << " is not off|cluster (or a boolean); "
                         << "condensation stays off";
      } else if (on) {
        config.method = Method::kCluster;
      }
    }
  }
  config.ratio = env::DoubleEnv("RDD_CONDENSE_RATIO", config.ratio,
                                /*min_value=*/1e-4, /*max_value=*/1.0);
  return config;
}

int64_t CondensedNodeCount(int64_t num_nodes, int64_t num_classes,
                           double ratio) {
  RDD_CHECK_GT(num_nodes, 0);
  const int64_t target = static_cast<int64_t>(
      std::llround(ratio * static_cast<double>(num_nodes)));
  return std::min(num_nodes, std::max<int64_t>(std::max<int64_t>(1, num_classes), target));
}

CondensedGraph CondenseGraph(const Dataset& full,
                             const CondenseConfig& config) {
  RDD_CHECK(config.method != Method::kOff);
  static observe::Counter& runs =
      observe::MetricsRegistry::Global().counter("condense.runs");
  static observe::Counter& nodes =
      observe::MetricsRegistry::Global().counter("condense.synthetic_nodes");
  CondensedGraph condensed = ClusterCondense(full, config);
  runs.Add(1);
  nodes.Add(condensed.dataset.NumNodes());
  return condensed;
}

namespace internal {

Matrix PseudoLabelScores(const Dataset& full, const CondenseConfig& config) {
  Matrix probs;
  if (config.warmup_epochs > 0) {
    // Brief full-graph warm-up: a default GCN trained on the train split for
    // a fixed epoch budget, validation amortized to the final epoch.
    observe::TraceSpan span("condense/warmup");
    const GraphContext context = GraphContext::FromDataset(full);
    auto model = BuildModel(context, ModelConfig{}, config.seed);
    TrainConfig train;
    train.max_epochs = config.warmup_epochs;
    train.patience = config.warmup_epochs;
    train.restore_best = false;
    auto supervised = [&](const ModelOutput& output, int /*epoch*/) {
      return ag::SoftmaxCrossEntropy(output.logits, full.labels,
                                     full.split.train, ag::Reduction::kMean);
    };
    EvalHooks hooks;
    hooks.eval_every = config.warmup_epochs;
    TrainWithLoss(model.get(), full, train, supervised, hooks);
    probs = SoftmaxRows(model->Forward(/*training=*/false).logits.value());
  } else {
    LabelPropagationOptions options;
    options.alpha = 0.3;
    probs = PropagateLabels(full, options);
  }
  // Clamp train rows to their one-hot true labels so the pseudo-labeling is
  // exact wherever a label actually exists.
  const std::vector<bool> train_mask = full.TrainMask();
  for (int64_t i = 0; i < full.NumNodes(); ++i) {
    if (!train_mask[static_cast<size_t>(i)]) continue;
    float* row = probs.RowData(i);
    for (int64_t c = 0; c < full.num_classes; ++c) row[c] = 0.0f;
    row[full.labels[static_cast<size_t>(i)]] = 1.0f;
  }
  return probs;
}

}  // namespace internal

}  // namespace rdd::condense
