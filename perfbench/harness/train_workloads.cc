// train_cora and train_sampled: repeated RDD trials (Algorithm 3), each
// followed by reliable distillation into an MLP, on freshly generated data.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/distill.h"
#include "core/reliability.h"
#include "data/checkpoint.h"
#include "data/citation_gen.h"
#include "data/serialize.h"
#include "graph/sampler.h"
#include "harness/common.h"
#include "harness/trace.h"
#include "observe/metrics.h"
#include "serve/predictor.h"
#include "tensor/ops.h"

namespace perfbench {

namespace {

// Table 9's target: students until the ensemble reaches 83 % test accuracy.
constexpr double kTargetAccuracy = 0.83;

struct TrainingPlan {
  rdd::bench::BenchDataset bench;
  rdd::RddConfig config;
  bool sampled = false;
  rdd::MiniBatchConfig mini_batch;
  rdd::DistillConfig distill;
  double trials_per_10s = 1.0;  // trials a 10-second run makes
};

rdd::RddResult TrainOnce(const TrainingPlan& plan, const rdd::Dataset& dataset,
                         const rdd::GraphContext& context, uint64_t seed,
                         int64_t trial) {
  Span span(plan.sampled ? "core.train_rdd_minibatch" : "core.train_rdd",
            "core", trial);
  return plan.sampled ? rdd::TrainRddMiniBatch(dataset, context, plan.config,
                                               plan.mini_batch, seed)
                      : rdd::TrainRdd(dataset, context, plan.config, seed);
}

// A checkpoint of the trained ensemble, loaded back into a Predictor, must
// predict what the in-memory teacher predicts on every node.
void CheckCheckpointRoundTrip(const WorkloadOptions& options,
                              const TrainingPlan& plan,
                              const rdd::Dataset& dataset,
                              const rdd::GraphContext& context,
                              const rdd::RddResult& trained,
                              WorkloadResult* result) {
  const std::string ckpt = options.work_dir + "/ensemble.rddc";
  const std::string data = options.work_dir + "/dataset.rdd";
  Report& report = result->report;
  double start = NowSeconds();
  {
    Span span("data.save_checkpoint", "data");
    result->Check(rdd::SaveCheckpoint(rdd::CheckpointFromRdd(
                                          trained, plan.config.base_model,
                                          plan.bench.display_name),
                                      ckpt)
                      .ok(),
                  "SaveCheckpoint of the trained ensemble");
  }
  report.Set("data.save_checkpoint_ms", (NowSeconds() - start) * 1e3, "ms");
  start = NowSeconds();
  {
    Span span("data.save_dataset", "data");
    result->Check(rdd::SaveDataset(dataset, data).ok(), "SaveDataset");
  }
  report.Set("data.save_dataset_ms", (NowSeconds() - start) * 1e3, "ms");
  start = NowSeconds();
  auto predictor = [&] {
    Span span("serve.load", "serve");
    return rdd::Predictor::FromCheckpoint(ckpt, context);
  }();
  report.Set("serve.load_ms", (NowSeconds() - start) * 1e3, "ms");
  result->Check(predictor.ok(), "Predictor::FromCheckpoint");
  if (!predictor.ok()) return;
  auto labels = predictor->PredictLabels(AllNodes(dataset.NumNodes()));
  result->Check(labels.ok() && *labels == rdd::ArgmaxRows(
                                               trained.teacher.PredictProbs()),
                "checkpoint round trip predicts the in-memory teacher's labels");
}

// Layer probes on the first trial's result: reliability classification and
// one evaluation forward, timed from outside.
void ProbeLayers(const TrainingPlan& plan, const rdd::Dataset& dataset,
                 rdd::RddResult& trained, Report* report) {
  const rdd::Matrix teacher_probs = trained.teacher.PredictProbs();
  rdd::GraphModel& last = *trained.students.back();
  const rdd::Matrix student_probs = last.PredictProbs();
  const std::vector<bool> train_mask = dataset.TrainMask();
  report->Set("core.node_reliability_ms", 1e3 * MedianSeconds(3, [&] {
                Span span("core.node_reliability", "core");
                rdd::ComputeNodeReliability(teacher_probs, student_probs,
                                            dataset.labels, train_mask,
                                            plan.config.reliability);
              }),
              "ms");
  report->Set("models.eval_forward_ms", 1e3 * MedianSeconds(5, [&] {
                Span span("models.eval_forward", "models");
                last.Forward(/*training=*/false);
              }),
              "ms");
  report->Set("core.reliable_share",
              static_cast<double>(trained.diagnostics.back().reliable_nodes) /
                  static_cast<double>(dataset.NumNodes()),
              "ratio");
  report->Set("core.members_to_target",
              static_cast<double>(MembersToTarget(trained, kTargetAccuracy)),
              "count");
}

// Replays one epoch of the sampler with the workload's configuration.
void ProbeSampler(const TrainingPlan& plan, const rdd::Dataset& dataset,
                  Report* report) {
  rdd::SamplerConfig sampler_config;
  sampler_config.fanouts = plan.mini_batch.fanouts;
  sampler_config.seed = plan.mini_batch.sampler_seed;
  const rdd::NeighborSampler sampler(&dataset.graph, &dataset.features,
                                     dataset.num_classes, sampler_config);
  double seconds = 0.0;
  double nodes = 0.0;
  double edges = 0.0;
  for (const auto& batch : sampler.PlanBatches(
           AllNodes(dataset.NumNodes()), plan.mini_batch.batch_size, 0)) {
    const double start = NowSeconds();
    rdd::GraphView view = [&] {
      Span span("graph.sample_view", "graph");
      return sampler.SampleView(batch, 0);
    }();
    seconds += NowSeconds() - start;
    nodes += static_cast<double>(view.num_nodes);
    // The normalized adjacency holds both directions plus one self-loop.
    edges += static_cast<double>(view.adj_norm->nnz() - view.num_nodes) / 2;
  }
  report->Set("graph.sample_view_ms", seconds * 1e3, "ms");
  report->Set("graph.view_nodes", nodes, "count");
  report->Set("graph.view_edges", edges, "count");
}

void RunTraining(const TrainingPlan& plan, const WorkloadOptions& options,
                 WorkloadResult* result) {
  Report& report = result->report;
  rdd::Dataset dataset;
  rdd::GraphContext context;
  std::vector<double> generate_s;
  std::vector<double> context_ms;
  report.Set("setup_s", MedianSeconds(options.tiny ? 1 : kSetupRepeats, [&] {
               double start = NowSeconds();
               {
                 Span span("data.generate", "data");
                 dataset = rdd::GenerateCitationNetwork(
                     plan.bench.gen, rdd::bench::kDataSeed);
               }
               generate_s.push_back(NowSeconds() - start);
               start = NowSeconds();
               {
                 Span span("graph.context_build", "graph");
                 context = rdd::GraphContext::FromDataset(dataset);
               }
               context_ms.push_back((NowSeconds() - start) * 1e3);
             }),
             "s");
  report.Set("data.generate_s", Median(generate_s), "s");
  report.Set("graph.context_build_ms", Median(context_ms), "ms");

  // The trial count follows --seconds but not the host's speed, so every
  // run of one seed does the same work.
  const int64_t trials = std::max<int64_t>(
      1, std::lround(plan.trials_per_10s * options.seconds / 10.0));
  std::vector<double> train_s, distill_s, epoch_ms, ensemble_acc, mlp_acc;
  for (int64_t trial = 0; trial < trials; ++trial) {
    const uint64_t seed = DeriveSeed(options.seed, 100 + trial);
    const Counters before = ReadCounters();
    double t0 = NowSeconds();
    rdd::RddResult trained = TrainOnce(plan, dataset, context, seed, trial);
    train_s.push_back(NowSeconds() - t0);
    const Counters after = ReadCounters();
    epoch_ms.push_back(train_s.back() * 1e3 /
                       static_cast<double>(TotalEpochs(trained)));
    ensemble_acc.push_back(trained.ensemble_test_accuracy);
    result->tally.Add(true);
    result->Check(trained.ensemble_test_accuracy >
                      1.0 / static_cast<double>(dataset.num_classes),
                  "ensemble accuracy above chance");

    t0 = NowSeconds();
    rdd::DistillResult distilled = [&] {
      Span span("core.distill", "core", trial);
      return rdd::DistillToMlp(dataset, context, trained.teacher,
                               plan.distill, seed + 1);
    }();
    distill_s.push_back(NowSeconds() - t0);
    mlp_acc.push_back(distilled.student_test_accuracy);
    result->tally.Add(true);
    result->Check(distilled.student_test_accuracy >
                      1.0 / static_cast<double>(dataset.num_classes),
                  "distilled MLP accuracy above chance");

    if (trial > 0) continue;
    // Counts come from the first trial alone, so they repeat exactly.
    if (options.trace) ReportCounterDelta(before, after, &report);
    report.Set("core.epochs", static_cast<double>(TotalEpochs(trained)),
               "count");
    CheckCheckpointRoundTrip(options, plan, dataset, context, trained, result);
    ProbeLayers(plan, dataset, trained, &report);
    if (plan.sampled) ProbeSampler(plan, dataset, &report);
  }
  if (options.trace) {
    // Tracing overhead: the last (warm) trial again, spans and counters off.
    Tracer::Global().Enable(false);
    rdd::observe::SetMetricsEnabled(false);
    const double untraced_start = NowSeconds();
    TrainOnce(plan, dataset, context, DeriveSeed(options.seed, 100 + trials - 1),
              trials - 1);
    const double untraced = NowSeconds() - untraced_start;
    Tracer::Global().Enable(true);
    rdd::observe::SetMetricsEnabled(true);
    report.Set("trace.overhead_pct",
               100.0 * (train_s.back() - untraced) / untraced, "%");
  }

  report.Set("train_s", Median(train_s), "s");
  report.Set("distill_s", Median(distill_s), "s");
  report.Set("ensemble_acc", Median(ensemble_acc), "ratio");
  report.Set("mlp_acc", Median(mlp_acc), "ratio");
  report.Set("core.epoch_ms", Median(epoch_ms), "ms");
  report.Set("trials", static_cast<double>(train_s.size()), "count");
  report.Set("primary_ms", Median(train_s) * 1e3, "ms");
  report.Set("secondary_ms", Median(distill_s) * 1e3, "ms");
}

}  // namespace

void RunTrainCora(const WorkloadOptions& options, WorkloadResult* result) {
  TrainingPlan plan;
  plan.bench = CoraBench(options.tiny);
  plan.config = rdd::bench::MakeRddConfig(plan.bench, options.tiny ? 2 : 5);
  if (options.tiny) plan.config.train.max_epochs = 20;
  plan.trials_per_10s = 8.0;
  plan.distill = FixedEpochDistill(options.tiny ? 10 : 60);
  RunTraining(plan, options, result);
}

void RunTrainSampled(const WorkloadOptions& options, WorkloadResult* result) {
  TrainingPlan plan;
  plan.bench = PubmedBench(options.tiny);
  plan.config = rdd::bench::MakeRddConfig(plan.bench, 2);
  // A fixed epoch budget per student (patience never fires first), so every
  // call does the same amount of sampled work.
  plan.config.train.max_epochs = options.tiny ? 2 : 6;
  plan.config.train.patience = plan.config.train.max_epochs;
  plan.distill = FixedEpochDistill(options.tiny ? 5 : 20);
  plan.sampled = true;
  plan.mini_batch.batch_size = options.tiny ? 256 : 1024;
  plan.mini_batch.fanouts = {10, 10};
  plan.mini_batch.sampler_seed = DeriveSeed(options.seed, 2);
  RunTraining(plan, options, result);
}

}  // namespace perfbench
