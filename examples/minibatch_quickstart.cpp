// Mini-batch quickstart: train the same GCN on a Cora-like graph twice —
// classic full-batch and neighbor-sampled mini-batch — then run mini-batch
// RDD, showing that the sampled path tracks full-batch accuracy while never
// materializing a full-graph activation during training.
//
//   ./build/examples/minibatch_quickstart
//
// Knobs (see README "Mini-batch training"): RDD_MB_FANOUT, RDD_MB_SHARDS.

#include <cstdio>

#include "core/rdd_config.h"
#include "core/rdd_trainer.h"
#include "data/citation_gen.h"
#include "models/model_factory.h"
#include "train/minibatch.h"
#include "train/trainer.h"

int main() {
  const rdd::Dataset dataset =
      rdd::GenerateCitationNetwork(rdd::CoraLikeConfig(), /*seed=*/42);
  const rdd::GraphContext context = rdd::GraphContext::FromDataset(dataset);
  std::printf("dataset: %s, %lld nodes, %lld edges\n", dataset.name.c_str(),
              static_cast<long long>(dataset.NumNodes()),
              static_cast<long long>(dataset.graph.num_edges()));

  rdd::TrainConfig train_config;

  // 1. Full-batch baseline: one forward over the whole graph per epoch.
  auto full_gcn = rdd::BuildModel(context, rdd::ModelConfig{}, /*seed=*/1);
  const rdd::TrainReport full_report =
      rdd::TrainSupervised(full_gcn.get(), dataset, train_config);
  std::printf("GCN full-batch:  test accuracy %.1f%% (%d epochs)\n",
              100.0 * full_report.test_accuracy, full_report.epochs_run);

  // 2. The same model trained mini-batch: each epoch re-batches the labeled
  //    nodes, samples a bounded neighbor frontier per batch (GraphSAGE-style
  //    fan-outs), and steps on each induced view. RDD_MB_* env vars override
  //    these defaults.
  rdd::MiniBatchConfig mb = rdd::MiniBatchConfig::FromEnv();
  auto mb_gcn = rdd::BuildModel(context, rdd::ModelConfig{}, /*seed=*/1);
  const rdd::TrainReport mb_report =
      rdd::TrainMiniBatchSupervised(mb_gcn.get(), dataset, train_config, mb);
  std::printf("GCN mini-batch:  test accuracy %.1f%% (%d epochs, batch %lld",
              100.0 * mb_report.test_accuracy, mb_report.epochs_run,
              static_cast<long long>(mb.batch_size));
  if (mb.num_shards > 0) {
    std::printf(", %lld shards)\n", static_cast<long long>(mb.num_shards));
  } else {
    std::printf(", fan-outs");
    for (int64_t f : mb.fanouts) std::printf(" %lld", static_cast<long long>(f));
    std::printf(")\n");
  }

  // 3. Mini-batch RDD: Algorithm 3 with per-batch reliability filtering.
  rdd::RddConfig rdd_config;
  rdd_config.num_base_models = 3;
  rdd_config.train = train_config;
  const rdd::RddResult rdd_result =
      rdd::TrainRddMiniBatch(dataset, context, rdd_config, mb, /*seed=*/1);
  std::printf("RDD mini-batch:  single %.1f%%, ensemble %.1f%% (%.2fs)\n",
              100.0 * rdd_result.single_test_accuracy,
              100.0 * rdd_result.ensemble_test_accuracy,
              rdd_result.total_seconds);
  return 0;
}
