// Condensed-training bench: accuracy-vs-ratio curves and end-to-end
// wall-clock speedup of TrainRddCondensed against the full-graph TrainRdd
// baseline on the Cora-like dataset, with the cluster condenser. Each
// condensed run trains the whole RDD student chain (reliability,
// distillation, edge regularization) on a few-percent synthetic graph and
// reports FULL-graph ensemble test accuracy, so every row is directly
// comparable to the baseline.
//
//   ./build/bench/condense_train [--json BENCH_condense_train.json]
//
// The headline row (EXPERIMENTS.md accept bar): at a <= 10% ratio, >= 3x
// end-to-end speedup with <= 1.5 pts full-graph test-accuracy drop.
// Default budget runs T = 3 students; RDD_BENCH_FULL=1 uses the paper's
// T = 5.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/condensed_trainer.h"
#include "core/rdd_trainer.h"
#include "graph/condense/condense.h"
#include "util/string_util.h"
#include "util/table_writer.h"
#include "util/timer.h"

namespace rdd {
namespace {

/// The condensation ratios the accuracy-vs-ratio curve samples.
constexpr double kRatios[] = {0.02, 0.05, 0.10};

}  // namespace

int Main(int argc, char** argv) {
  const std::string json_path = bench::JsonPathFromArgs(argc, argv);
  bench::JsonReport report("condense_train");
  const int num_members = bench::FullMode() ? 5 : 3;

  const bench::BenchDataset d = bench::CoraBench();
  const Dataset dataset = GenerateCitationNetwork(d.gen, bench::kDataSeed);
  const GraphContext context = GraphContext::FromDataset(dataset);
  const RddConfig rdd_config = bench::MakeRddConfig(d, num_members);
  std::printf("Cora-like: %lld nodes, %lld edges, T = %d\n\n",
              static_cast<long long>(dataset.NumNodes()),
              static_cast<long long>(dataset.graph.num_edges()), num_members);

  // Baseline: full-graph RDD, the number every condensed row is measured
  // against.
  WallTimer baseline_timer;
  const RddResult baseline =
      TrainRdd(dataset, context, rdd_config, bench::kTrialSeedBase);
  const double baseline_seconds = baseline_timer.ElapsedSeconds();
  const double baseline_acc = baseline.ensemble_test_accuracy;
  report.AddPhase("baseline.train_rdd", baseline_seconds);
  report.AddMetric("baseline.ensemble_acc", baseline_acc);
  std::printf("Baseline RDD(Ensemble): %s%% in %.2f s\n\n",
              bench::Pct(baseline_acc).c_str(), baseline_seconds);

  TableWriter table({"Ratio", "Nodes", "Edges", "Acc", "Drop (pts)",
                     "Seconds", "Speedup"});

  double headline_speedup = 0.0;
  double headline_drop_pts = 0.0;
  for (const double ratio : kRatios) {
    condense::CondenseConfig cc;
    cc.method = condense::Method::kCluster;
    cc.ratio = ratio;
    WallTimer timer;
    const CondensedRddResult r = TrainRddCondensed(
        dataset, context, rdd_config, cc, bench::kTrialSeedBase);
    const double seconds = timer.ElapsedSeconds();
    const double acc = r.rdd.ensemble_test_accuracy;
    const double drop_pts = 100.0 * (baseline_acc - acc);
    const double speedup = seconds > 0.0 ? baseline_seconds / seconds : 0.0;
    // The accept bar reads the best qualifying row at ratio <= 0.10.
    if (drop_pts <= 1.5 && speedup > headline_speedup) {
      headline_speedup = speedup;
      headline_drop_pts = drop_pts;
    }

    table.AddRow({StrFormat("%.2f", r.achieved_ratio),
                  std::to_string(r.condensed_nodes),
                  std::to_string(r.condensed_edges), bench::Pct(acc),
                  StrFormat("%+.1f", drop_pts), StrFormat("%.2f", seconds),
                  StrFormat("%.1fx", speedup)});

    const std::string prefix = StrFormat(
        "cluster.r%02d.", static_cast<int>(100.0 * ratio + 0.5));
    report.AddPhase(prefix + "train", seconds);
    report.AddMetric(prefix + "ensemble_acc", acc);
    report.AddMetric(prefix + "drop_pts", drop_pts);
    report.AddMetric(prefix + "speedup", speedup);
    report.AddMetric(prefix + "condense_seconds", r.condense_seconds);
    report.AddMetric(prefix + "nodes", static_cast<double>(r.condensed_nodes));
    report.AddMetric(prefix + "edges", static_cast<double>(r.condensed_edges));
  }
  report.AddMetric("headline.speedup", headline_speedup);
  report.AddMetric("headline.drop_pts", headline_drop_pts);

  std::printf("%s", table.Render().c_str());
  std::printf(
      "\nHeadline (best row with <= 1.5 pts drop): %.1fx speedup at "
      "%+.1f pts.\nAccuracy is FULL-graph ensemble test accuracy; Seconds "
      "are end-to-end (condense + train + full-graph eval).\n",
      headline_speedup, headline_drop_pts);
  report.WriteTo(json_path);
  return 0;
}

}  // namespace rdd

int main(int argc, char** argv) { return rdd::Main(argc, argv); }
