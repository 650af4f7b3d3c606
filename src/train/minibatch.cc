#include "train/minibatch.h"

#include <cstdlib>
#include <memory>
#include <string>

#include "memory/workspace.h"
#include "util/env.h"
#include "util/logging.h"

namespace rdd {

namespace {

std::vector<int64_t> ParseFanouts(const char* value,
                                  std::vector<int64_t> fallback) {
  if (value == nullptr || *value == '\0') return fallback;
  std::vector<int64_t> fanouts;
  std::string token;
  for (const char* p = value;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!token.empty()) {
        char* end = nullptr;
        const long parsed = std::strtol(token.c_str(), &end, 10);
        if (end == nullptr || *end != '\0') {
          RDD_LOG(Warning) << "RDD_MB_FANOUT: unparsable entry '" << token
                           << "', using default fan-outs";
          return fallback;
        }
        fanouts.push_back(static_cast<int64_t>(parsed));
        token.clear();
      }
      if (*p == '\0') break;
    } else {
      token.push_back(*p);
    }
  }
  return fanouts.empty() ? fallback : fanouts;
}

}  // namespace

MiniBatchConfig MiniBatchConfig::FromEnv() {
  MiniBatchConfig config;
  config.fanouts =
      ParseFanouts(std::getenv("RDD_MB_FANOUT"), config.fanouts);
  config.num_shards = env::IntEnv(
      "RDD_MB_SHARDS", static_cast<int>(config.num_shards), 0, 1 << 20);
  return config;
}

EpochViews MiniBatchViews(const Dataset& dataset,
                          const MiniBatchConfig& mb_config,
                          std::vector<int64_t> targets) {
  RDD_CHECK(!mb_config.fanouts.empty());
  if (mb_config.num_shards > 0) {
    PartitionConfig pconfig;
    pconfig.num_parts = mb_config.num_shards;
    pconfig.seed = mb_config.sampler_seed;
    const GraphPartition partition =
        PartitionByPropagatedFeatures(dataset.graph, dataset.features, pconfig);
    auto shards = std::make_shared<const std::vector<GraphView>>(
        MakeShardViews(dataset.graph, dataset.features, dataset.num_classes,
                       partition));
    return [shards](int /*epoch*/, const TrainStep& step) {
      for (const GraphView& view : *shards) step(view);
    };
  }
  auto sampler = std::make_shared<const NeighborSampler>(
      &dataset.graph, &dataset.features, dataset.num_classes,
      SamplerConfig{mb_config.fanouts, mb_config.sampler_seed});
  return [sampler, targets = std::move(targets),
          batch_size = mb_config.batch_size](int epoch, const TrainStep& step) {
    for (const std::vector<int64_t>& batch :
         sampler->PlanBatches(targets, batch_size, epoch)) {
      step(sampler->SampleView(batch, epoch));
    }
  };
}

EvalHooks MiniBatchEvalHooks(const Dataset& dataset,
                             const MiniBatchConfig& mb_config) {
  EvalHooks hooks;
  if (!mb_config.sampled_eval) return hooks;
  hooks.validate = [&dataset, mb_config](GraphModel* model) {
    return EvaluateAccuracySampled(model, dataset, dataset.split.val,
                                   mb_config);
  };
  hooks.test = [&dataset, mb_config](GraphModel* model) {
    return EvaluateAccuracySampled(model, dataset, dataset.split.test,
                                   mb_config);
  };
  return hooks;
}

TrainReport TrainMiniBatchSupervised(GraphModel* model, const Dataset& dataset,
                                     const TrainConfig& config,
                                     const MiniBatchConfig& mb_config) {
  return TrainWithLoss(
      model, dataset, config,
      [&dataset](const GraphView& view, const ModelOutput& output,
                 int /*epoch*/) {
        return SupervisedLoss(dataset, view, output);
      },
      MiniBatchViews(dataset, mb_config, dataset.split.train),
      MiniBatchEvalHooks(dataset, mb_config));
}

double EvaluateAccuracySampled(GraphModel* model, const Dataset& dataset,
                               const std::vector<int64_t>& indices,
                               const MiniBatchConfig& mb_config) {
  if (indices.empty()) return 0.0;
  RDD_CHECK(model != nullptr);
  RDD_CHECK_GT(mb_config.eval_batch_size, 0);
  const NeighborSampler sampler(
      &dataset.graph, &dataset.features, dataset.num_classes,
      SamplerConfig{mb_config.fanouts, mb_config.sampler_seed});
  const int64_t hops = static_cast<int64_t>(mb_config.fanouts.size());
  const int64_t n = static_cast<int64_t>(indices.size());
  int64_t correct = 0;
  for (int64_t begin = 0; begin < n; begin += mb_config.eval_batch_size) {
    const int64_t end = std::min(n, begin + mb_config.eval_batch_size);
    const std::vector<int64_t> targets(indices.begin() + begin,
                                       indices.begin() + end);
    memory::Workspace batch_workspace;
    const GraphView view = sampler.InferenceView(targets, hops);
    const std::vector<int64_t> predicted = model->PredictLabels(view);
    for (int64_t i = 0; i < view.num_targets; ++i) {
      if (predicted[static_cast<size_t>(i)] ==
          dataset.labels[static_cast<size_t>(view.GlobalId(i))]) {
        ++correct;
      }
    }
  }
  return static_cast<double>(correct) / static_cast<double>(n);
}

}  // namespace rdd
