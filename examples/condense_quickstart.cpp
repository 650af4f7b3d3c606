// Condensed-training quickstart: condense a Cora-like graph to a few
// hundred synthetic nodes, run the full RDD student chain ON the condensed
// graph while validating on the full graph, and compare accuracy and
// wall-clock against the classic full-graph run.
//
//   ./build/examples/condense_quickstart
//
// Knobs (see README "Environment variables"): RDD_CONDENSE (off|cluster)
// and RDD_CONDENSE_RATIO. Unset RDD_CONDENSE defaults to "cluster" here (so
// the quickstart demonstrates condensation out of the box); an explicit
// RDD_CONDENSE=0/off makes the second run delegate to TrainRdd
// byte-for-byte — CI's condense-smoke job asserts the two printed ensemble
// accuracies coincide in that mode.

#include <cstdio>
#include <cstdlib>

#include "core/condensed_trainer.h"
#include "core/rdd_config.h"
#include "core/rdd_trainer.h"
#include "data/citation_gen.h"
#include "graph/condense/condense.h"
#include "models/graph_model.h"
#include "util/timer.h"

int main() {
  const rdd::Dataset dataset =
      rdd::GenerateCitationNetwork(rdd::CoraLikeConfig(), /*seed=*/42);
  const rdd::GraphContext context = rdd::GraphContext::FromDataset(dataset);
  std::printf("dataset: %s, %lld nodes, %lld edges, %lld classes\n",
              dataset.name.c_str(),
              static_cast<long long>(dataset.NumNodes()),
              static_cast<long long>(dataset.graph.num_edges()),
              static_cast<long long>(dataset.num_classes));

  rdd::RddConfig config;
  config.num_base_models = 3;

  // 1. Classic RDD: every epoch of every student forwards the full graph.
  rdd::WallTimer timer;
  const rdd::RddResult full =
      rdd::TrainRdd(dataset, context, config, /*seed=*/1);
  const double full_seconds = timer.ElapsedSeconds();
  std::printf("RDD full graph:  ensemble %.1f%%, single %.1f%% (%.2fs)\n",
              100.0 * full.ensemble_test_accuracy,
              100.0 * full.single_test_accuracy, full_seconds);

  // 2. Condensed RDD: training epochs touch only the synthetic nodes; early
  //    stopping, ensemble weights, and the reported accuracies all come from
  //    full-graph forwards. RDD_CONDENSE_* env vars override the defaults;
  //    only an EXPLICIT RDD_CONDENSE=0/off keeps the method off (delegating
  //    to TrainRdd) — unset defaults to cluster for the demo.
  rdd::condense::CondenseConfig condense =
      rdd::condense::CondenseConfig::FromEnv();
  if (std::getenv("RDD_CONDENSE") == nullptr) {
    condense.method = rdd::condense::Method::kCluster;
  }
  timer.Restart();
  const rdd::CondensedRddResult small =
      rdd::TrainRddCondensed(dataset, context, config, condense, /*seed=*/1);
  const double small_seconds = timer.ElapsedSeconds();
  std::printf(
      "condensed (%s): %lld nodes, %lld edges (ratio %.3f, %.3fs to build)\n",
      rdd::condense::MethodName(condense.method),
      static_cast<long long>(small.condensed_nodes),
      static_cast<long long>(small.condensed_edges), small.achieved_ratio,
      small.condense_seconds);
  std::printf("RDD condensed:   ensemble %.1f%%, single %.1f%% (%.2fs)\n",
              100.0 * small.rdd.ensemble_test_accuracy,
              100.0 * small.rdd.single_test_accuracy, small_seconds);
  std::printf("speedup %.1fx, ensemble drop %.1f pts\n",
              full_seconds / small_seconds,
              100.0 * (full.ensemble_test_accuracy -
                       small.rdd.ensemble_test_accuracy));
  return 0;
}
