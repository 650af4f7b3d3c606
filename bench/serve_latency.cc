// Serving bench: distills the RDD ensemble into an MLP student, checkpoints
// both, and measures the two checkpoints side by side: the checkpoint load
// and the first query, which builds the predictor's probability table (one
// full-view forward per member), then batched query latency (p50/p99) and
// throughput once the table exists. The headline numbers: the distilled
// MLP's test accuracy relative to the ensemble it was distilled from, and
// what each path's first query costs.
//
// Default protocol runs Cora only with T = 3; RDD_BENCH_FULL=1 runs the
// three citation networks with the paper's T = 5. --json <path> writes a
// machine-readable report.

#include <algorithm>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "bench/bench_common.h"
#include "core/distill.h"
#include "core/rdd_trainer.h"
#include "serve/predictor.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/table_writer.h"
#include "util/timer.h"

namespace rdd {
namespace {

/// Batch sizes the latency sweep serves at.
constexpr int64_t kBatchSizes[] = {1, 32, 256};

struct LatencyStats {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double qps = 0.0;
};

/// Serves `iterations` batches of `batch_size` random nodes and reports the
/// per-batch latency distribution plus end-to-end queries per second.
LatencyStats MeasureLatency(Predictor* predictor, int64_t num_nodes,
                            int64_t batch_size, int iterations,
                            uint64_t seed) {
  Rng rng(seed);
  std::vector<double> batch_us;
  batch_us.reserve(static_cast<size_t>(iterations));
  double total_seconds = 0.0;
  for (int it = 0; it < iterations; ++it) {
    std::vector<int64_t> nodes(static_cast<size_t>(batch_size));
    for (int64_t& n : nodes) {
      n = static_cast<int64_t>(rng.NextU64() % static_cast<uint64_t>(num_nodes));
    }
    WallTimer timer;
    StatusOr<Matrix> probs = predictor->PredictProbs(nodes);
    const double seconds = timer.ElapsedSeconds();
    RDD_CHECK(probs.ok()) << probs.status().ToString();
    batch_us.push_back(seconds * 1e6);
    total_seconds += seconds;
  }
  std::sort(batch_us.begin(), batch_us.end());
  LatencyStats stats;
  stats.p50_us = bench::Percentile(batch_us, 50.0);
  stats.p99_us = bench::Percentile(batch_us, 99.0);
  stats.qps = total_seconds > 0.0
                  ? static_cast<double>(batch_size) * iterations / total_seconds
                  : 0.0;
  return stats;
}

/// Medians over `reps` fresh loads of `path`: the checkpoint load, and the
/// first query (one node), which builds the probability table.
struct ColdStats {
  double load_ms = 0.0;
  double first_query_ms = 0.0;
};

ColdStats MeasureCold(const std::string& path, const GraphContext& context,
                      int reps) {
  std::vector<double> load_ms, first_ms;
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    StatusOr<Predictor> predictor = Predictor::FromCheckpoint(path, context);
    load_ms.push_back(timer.ElapsedMillis());
    RDD_CHECK(predictor.ok()) << predictor.status().ToString();
    timer.Restart();
    RDD_CHECK(predictor->PredictProbs({0}).ok());
    first_ms.push_back(timer.ElapsedMillis());
  }
  std::sort(load_ms.begin(), load_ms.end());
  std::sort(first_ms.begin(), first_ms.end());
  return {bench::Percentile(load_ms, 50.0), bench::Percentile(first_ms, 50.0)};
}

/// Test-split accuracy of a predictor.
double PredictorAccuracy(Predictor* predictor, const Dataset& dataset) {
  StatusOr<std::vector<int64_t>> labels =
      predictor->PredictLabels(dataset.split.test);
  RDD_CHECK(labels.ok()) << labels.status().ToString();
  int64_t correct = 0;
  for (size_t i = 0; i < dataset.split.test.size(); ++i) {
    correct += (*labels)[i] ==
               dataset.labels[static_cast<size_t>(dataset.split.test[i])];
  }
  return static_cast<double>(correct) /
         static_cast<double>(dataset.split.test.size());
}

}  // namespace

int Main(int argc, char** argv) {
  const std::string json_path = bench::JsonPathFromArgs(argc, argv);
  bench::JsonReport report("serve_latency");
  const int num_members = bench::FullMode() ? 5 : 3;
  const int iterations = bench::FullMode() ? 400 : 100;
  const int cold_reps = bench::FullMode() ? 11 : 5;

  TableWriter accuracy_table(
      {"Dataset", "Ensemble", "MLP (distilled)", "Gap (pts)", "Agreement"});
  TableWriter cold_table(
      {"Dataset", "Path", "Load (ms)", "First query (ms)"});
  TableWriter latency_table(
      {"Dataset", "Path", "Batch", "p50 (us)", "p99 (us)", "QPS"});

  std::vector<bench::BenchDataset> datasets =
      bench::EvaluationDatasets(/*include_nell=*/false);
  if (!bench::FullMode()) datasets.resize(1);  // Cora only.

  for (const bench::BenchDataset& d : datasets) {
    std::printf("== %s ==\n", d.display_name.c_str());
    const Dataset dataset = GenerateCitationNetwork(d.gen, bench::kDataSeed);
    const GraphContext context = GraphContext::FromDataset(dataset);

    WallTimer train_timer;
    RddConfig rdd_config = bench::MakeRddConfig(d, num_members);
    const RddResult rdd =
        TrainRdd(dataset, context, rdd_config, bench::kTrialSeedBase);
    report.AddPhase(d.display_name + ".train_rdd",
                    train_timer.ElapsedSeconds());

    WallTimer distill_timer;
    DistillConfig distill_config;
    distill_config.train.lr = d.train.lr;
    const DistillResult distilled = DistillToMlp(
        dataset, context, rdd.teacher, distill_config, bench::kTrialSeedBase);
    report.AddPhase(d.display_name + ".distill",
                    distill_timer.ElapsedSeconds());

    // Checkpoint both serving paths, then serve strictly from disk.
    const std::string ensemble_path =
        StrFormat("serve_bench_%s_ensemble.rddc", d.display_name.c_str());
    const std::string mlp_path =
        StrFormat("serve_bench_%s_mlp.rddc", d.display_name.c_str());
    RDD_CHECK(SaveCheckpoint(
                  CheckpointFromRdd(rdd, rdd_config.base_model, "ensemble"),
                  ensemble_path)
                  .ok());
    RDD_CHECK(SaveCheckpoint(
                  CheckpointFromDistilled(*distilled.student, "distilled-mlp"),
                  mlp_path)
                  .ok());

    const double ensemble_acc = rdd.ensemble_test_accuracy;
    const double mlp_acc = distilled.student_test_accuracy;
    accuracy_table.AddRow({d.display_name, bench::Pct(ensemble_acc),
                           bench::Pct(mlp_acc),
                           bench::Pct(ensemble_acc - mlp_acc),
                           bench::Pct(distilled.test_agreement)});
    report.AddMetric(d.display_name + ".ensemble_acc", ensemble_acc);
    report.AddMetric(d.display_name + ".mlp_acc", mlp_acc);
    report.AddMetric(d.display_name + ".acc_gap_pts",
                     100.0 * (ensemble_acc - mlp_acc));
    report.AddMetric(d.display_name + ".agreement", distilled.test_agreement);

    for (const auto& [path_name, key, path] :
         {std::tuple<const char*, const char*, const std::string&>{
              "MLP", "mlp", mlp_path},
          {"GNN ensemble", "gnn", ensemble_path}}) {
      const ColdStats cold = MeasureCold(path, context, cold_reps);
      cold_table.AddRow({d.display_name, path_name,
                         StrFormat("%.2f", cold.load_ms),
                         StrFormat("%.2f", cold.first_query_ms)});
      report.AddMetric(StrFormat("%s.%s_load_ms", d.display_name.c_str(), key),
                       cold.load_ms);
      report.AddMetric(
          StrFormat("%s.%s_first_query_ms", d.display_name.c_str(), key),
          cold.first_query_ms);
    }

    StatusOr<Predictor> mlp_predictor =
        Predictor::FromCheckpoint(mlp_path, context);
    RDD_CHECK(mlp_predictor.ok()) << mlp_predictor.status().ToString();
    StatusOr<Predictor> gnn_predictor =
        Predictor::FromCheckpoint(ensemble_path, context);
    RDD_CHECK(gnn_predictor.ok()) << gnn_predictor.status().ToString();
    // Accuracy served from disk must match the in-memory numbers. These
    // queries also build both tables, so the latencies below are the steady
    // state: row gathers.
    report.AddMetric(d.display_name + ".mlp_served_acc",
                     PredictorAccuracy(&mlp_predictor.value(), dataset));
    report.AddMetric(d.display_name + ".ensemble_served_acc",
                     PredictorAccuracy(&gnn_predictor.value(), dataset));

    for (int64_t batch_size : kBatchSizes) {
      const LatencyStats mlp_stats =
          MeasureLatency(&mlp_predictor.value(), dataset.NumNodes(),
                         batch_size, iterations, /*seed=*/7);
      const LatencyStats gnn_stats =
          MeasureLatency(&gnn_predictor.value(), dataset.NumNodes(),
                         batch_size, iterations, /*seed=*/7);
      for (const auto& [path_name, stats] :
           {std::pair<const char*, LatencyStats>{"MLP", mlp_stats},
            {"GNN ensemble", gnn_stats}}) {
        latency_table.AddRow(
            {d.display_name, path_name, std::to_string(batch_size),
             StrFormat("%.1f", stats.p50_us), StrFormat("%.1f", stats.p99_us),
             StrFormat("%.0f", stats.qps)});
      }
      const std::string prefix = StrFormat(
          "%s.b%lld.", d.display_name.c_str(),
          static_cast<long long>(batch_size));
      report.AddMetric(prefix + "mlp_p50_us", mlp_stats.p50_us);
      report.AddMetric(prefix + "mlp_p99_us", mlp_stats.p99_us);
      report.AddMetric(prefix + "mlp_qps", mlp_stats.qps);
      report.AddMetric(prefix + "gnn_p50_us", gnn_stats.p50_us);
      report.AddMetric(prefix + "gnn_p99_us", gnn_stats.p99_us);
      report.AddMetric(prefix + "gnn_qps", gnn_stats.qps);
    }
    std::remove(ensemble_path.c_str());
    std::remove(mlp_path.c_str());
  }

  std::printf("\nTest accuracy, ensemble vs distilled MLP (percent):\n%s\n",
              accuracy_table.Render().c_str());
  std::printf("Checkpoint load and first query (builds the table), "
              "median of %d:\n%s\n",
              cold_reps, cold_table.Render().c_str());
  std::printf("Serving latency once the table exists:\n%s\n",
              latency_table.Render().c_str());
  report.WriteTo(json_path);
  return 0;
}

}  // namespace rdd

int main(int argc, char** argv) { return rdd::Main(argc, argv); }
