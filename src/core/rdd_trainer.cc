#include "core/rdd_trainer.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "autograd/ops.h"
#include "core/schedule.h"
#include "graph/pagerank.h"
#include "memory/workspace.h"
#include "nn/metrics.h"
#include "observe/trace.h"
#include "parallel/task_group.h"
#include "tensor/ops.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/timer.h"

namespace rdd {

double ComputeEnsembleWeight(const Matrix& probs,
                             const std::vector<double>& pagerank) {
  RDD_CHECK_EQ(static_cast<int64_t>(pagerank.size()), probs.rows());
  const std::vector<double> entropy = RowEntropy(probs);
  double denominator = 0.0;
  for (size_t i = 0; i < entropy.size(); ++i) {
    denominator += entropy[i] * pagerank[i];
  }
  // Floor the denominator: a member that is (over)confident everywhere
  // would otherwise get unbounded weight.
  constexpr double kEpsilon = 1e-8;
  return 1.0 / std::max(denominator, kEpsilon);
}

namespace {

/// A member's cached evaluation-mode outputs over one graph's full view.
struct MemberOutputs {
  Matrix probs;
  Matrix embeddings;
};

MemberOutputs EvalOutputs(GraphModel* model, const GraphView& view) {
  const ModelOutput output = model->Forward(view, /*training=*/false);
  return {SoftmaxRows(output.logits.value()), output.embedding.value()};
}

/// Clones a trained student onto `context`: a fresh model (dropout stream
/// seeded by `seed`) with the old weights copied in. Parameters are view-
/// and graph-size-independent, so they transfer verbatim; an architecture
/// mismatch aborts in RestoreParameters.
std::unique_ptr<GraphModel> WarmClone(const GraphContext& context,
                                      const ModelConfig& arch,
                                      GraphModel* previous, uint64_t seed) {
  auto model = BuildModel(context, arch, seed);
  std::vector<Variable> params = model->Parameters();
  RestoreParameters(SnapshotParameters(previous->Parameters()), &params);
  return model;
}

}  // namespace

RddResult TrainStudentChain(const ChainSource& source, const RddConfig& config,
                            const RddResult& initial, uint64_t seed) {
  const bool warm = !initial.students.empty();
  const int num_students = warm ? static_cast<int>(initial.students.size())
                                 : config.num_base_models;
  RDD_CHECK_GT(num_students, 0);
  if (warm) RDD_CHECK_EQ(initial.alphas.size(), initial.students.size());
  WallTimer timer;
  // Run-level workspace: all students train inside one pool scope, so the
  // tape/gradient buffers student t releases are reused by student t+1
  // instead of being trimmed between per-student Workspaces.
  memory::Workspace workspace;
  Rng seeder(seed);
  // Student seeds are drawn up front in chain order. The student chain is
  // inherently sequential (student t distills from the ensemble of students
  // before it), but hoisting keeps each student's initialization a pure
  // function of (run seed, t) regardless of scheduling.
  std::vector<uint64_t> student_seeds(static_cast<size_t>(num_students));
  for (uint64_t& s : student_seeds) s = seeder.NextU64();

  const Dataset& dataset = *source.dataset;
  const Dataset& train_data = *source.train_data;
  const GraphView eval_view = source.context->FullView();
  const bool separate_train_graph = source.train_data != source.dataset;
  const std::vector<double> pagerank = PageRank(dataset.graph);
  auto ensemble_weight = [&](const Matrix& probs) {
    return config.use_entropy_pagerank_weights
               ? ComputeEnsembleWeight(probs, pagerank)
               : 1.0;
  };

  const std::vector<bool> train_mask = train_data.TrainMask();
  const bool use_l2 = config.gamma_initial != 0.0f;
  const bool use_lreg = config.beta != 0.0f;
  // A warm chain starts from a converged teacher, so Eq. 14's ramp — which
  // keeps an immature teacher from dominating early training — is skipped.
  const bool anneal_gamma = config.anneal_gamma && !warm;
  const int anneal_horizon = config.anneal_horizon_epochs > 0
                                 ? config.anneal_horizon_epochs
                                 : config.train.max_epochs;
  // Normalization constants that make the paper's gamma/beta grids portable
  // across datasets: the L2 sum is scaled so each distilled node carries the
  // same gradient weight as a labeled node in the (mean-reduced) L1 term,
  // and the Lreg sum is scaled by the view's total edge volume.
  const float k = static_cast<float>(source.context->num_classes);
  const float train_size =
      static_cast<float>(std::max<size_t>(train_data.split.train.size(), 1));

  // The ensemble: students, their outputs over the delivered graph (and,
  // for condensed training, over the training graph), and weights. A fresh
  // chain fills slot t when student t finishes; a warm chain starts full.
  std::vector<std::unique_ptr<GraphModel>> students;
  std::vector<MemberOutputs> members(static_cast<size_t>(num_students));
  std::vector<MemberOutputs> train_members(
      separate_train_graph ? members.size() : 0);
  std::vector<double> alphas =
      warm ? initial.alphas : std::vector<double>(members.size());
  auto cache_outputs = [&](GraphModel* student, size_t t) {
    members[t] = EvalOutputs(student, eval_view);
    if (separate_train_graph) {
      train_members[t] = EvalOutputs(student, student->full_view());
    }
  };
  if (warm) {
    for (size_t t = 0; t < members.size(); ++t) {
      students.push_back(WarmClone(*source.train_context, config.base_model,
                                   initial.students[t].get(),
                                   student_seeds[t]));
      cache_outputs(students.back().get(), t);
    }
  }

  RddResult result;
  for (int t = 0; t < num_students; ++t) {
    // Spans name the phases of Algorithms 1-3 so a trace of one run shows,
    // nested under each "rdd/student": the teacher view construction, every
    // "train/epoch" with its reliability classification (Algorithm 1/2)
    // and loss terms, and the closing ensemble update. Tracing observes
    // only — enabled and disabled runs are bit-identical (observe_test).
    observe::TraceSpan student_span("rdd/student", t);
    if (!warm) {
      students.push_back(BuildModel(*source.train_context, config.base_model,
                                    student_seeds[static_cast<size_t>(t)]));
    }
    GraphModel* student = students[static_cast<size_t>(t)].get();
    StudentDiagnostics diag;
    const size_t teacher_size = warm ? members.size() : static_cast<size_t>(t);

    if (teacher_size == 0) {
      // Line 2 of Algorithm 3: the first student of a fresh chain is
      // trained with the supervised loss only.
      result.reports.push_back(TrainWithLoss(
          student, train_data, source.train,
          [&](const GraphView& view, const ModelOutput& output, int) {
            return SupervisedLoss(train_data, view, output);
          },
          source.supervised_views, source.hooks));
    } else {
      // The teacher is frozen while student t trains. Its two weighted
      // averages (probs and embeddings) are independent, so they build as
      // concurrent tasks; each is written to its own slot and the matrices
      // themselves are computed by the same fixed-order reduction either
      // way, so the results are bit-identical to sequential.
      Matrix teacher_probs;
      Matrix teacher_embeddings;
      {
        observe::TraceSpan span("rdd/teacher_views");
        Teacher teacher;
        for (size_t i = 0; i < teacher_size; ++i) {
          const MemberOutputs& m =
              separate_train_graph ? train_members[i] : members[i];
          teacher.AddMember(m.probs, m.embeddings, alphas[i]);
        }
        parallel::TaskGroup group;
        group.Run([&] {
          observe::TraceSpan probs_span("teacher/predict_probs");
          teacher_probs = teacher.PredictProbs();
        });
        group.Run([&] {
          observe::TraceSpan emb_span("teacher/predict_embeddings");
          teacher_embeddings = teacher.PredictEmbeddings();
        });
        group.Wait();
      }

      // Algorithms 1-2 and the three loss terms over one training view.
      auto loss_fn = [&](const GraphView& view, const ModelOutput& output,
                         int epoch) {
        // Line 7: refresh Vr / Er every step from the CURRENT student's
        // (evaluation-mode) predictions over this same view; the p-percent
        // entropy thresholds are quantiles over the view's rows.
        const Matrix student_probs =
            SoftmaxRows(student->Forward(view, /*training=*/false)
                            .logits.value());
        const Matrix teacher_probs_v =
            view.full() ? teacher_probs : GatherRows(teacher_probs, view.nodes);
        std::vector<bool> reliable;
        std::vector<int64_t> distill_nodes;
        if (config.use_node_reliability) {
          observe::TraceSpan span("rdd/node_reliability", epoch);
          NodeReliability rel = ComputeNodeReliability(
              teacher_probs_v, student_probs,
              view.GatherInt64(train_data.labels), view.GatherMask(train_mask),
              config.reliability);
          reliable = std::move(rel.reliable);
          distill_nodes = std::move(rel.distill_nodes);
        } else {
          // WNR ablation: mimic the teacher everywhere, like classic KD.
          reliable.assign(static_cast<size_t>(view.num_nodes), true);
          distill_nodes.resize(static_cast<size_t>(view.num_nodes));
          std::iota(distill_nodes.begin(), distill_nodes.end(), int64_t{0});
        }
        if (!source.frontier_boost) {
          std::erase_if(distill_nodes,
                        [&](int64_t i) { return i >= view.num_targets; });
        }
        // Sum-reduced terms cover ~targets/total of their full-graph index
        // sets while L1's mean is view-size invariant, so sums are scaled
        // back up by total/targets to keep the per-step L1 : L2 : Lreg
        // balance at its full-batch value (exactly 1 on a full view).
        const float upscale = static_cast<float>(train_data.NumNodes()) /
                              static_cast<float>(view.num_targets);

        std::vector<Variable> terms;
        std::vector<float> coeffs;
        // L1 (Eq. 6): supervised loss over the labeled target rows.
        terms.push_back(SupervisedLoss(train_data, view, output));
        coeffs.push_back(1.0f);
        // gamma * L2 (Eq. 7): mimic the teacher on Vb.
        if (use_l2 && !distill_nodes.empty()) {
          const float gamma =
              anneal_gamma
                  ? CosineAnnealedGamma(config.gamma_initial,
                                        std::min(epoch, anneal_horizon - 1),
                                        anneal_horizon)
                  : config.gamma_initial;
          if (gamma > 0.0f) {
            observe::TraceSpan span("rdd/node_distill_loss");
            if (config.distill_loss == DistillLoss::kEmbeddingMse) {
              // The MSE reading has no weighted variant; kept frontier rows
              // anchor through membership alone.
              terms.push_back(ag::RowSquaredError(
                  output.embedding,
                  view.full() ? teacher_embeddings
                              : GatherRows(teacher_embeddings, view.nodes),
                  distill_nodes, ag::Reduction::kSum));
              coeffs.push_back(gamma * upscale / (train_size * k));
            } else {
              if (source.frontier_boost) {
                std::vector<float> weights(
                    static_cast<size_t>(view.num_nodes), 1.0f);
                std::fill(weights.begin() + view.num_targets, weights.end(),
                          *source.frontier_boost);
                terms.push_back(ag::WeightedSoftCrossEntropy(
                    output.logits, teacher_probs_v, distill_nodes, weights,
                    ag::Reduction::kSum));
              } else {
                terms.push_back(ag::SoftCrossEntropy(
                    output.logits, teacher_probs_v, distill_nodes,
                    ag::Reduction::kSum));
              }
              // kDistillScale calibrates the soft-CE transfer so the
              // paper's gamma grid {0, 0.5, 1, 1.5} brackets the optimum
              // near gamma = 1 (see bench/table7_hyperparams).
              constexpr float kDistillScale = 16.0f;
              coeffs.push_back(gamma * kDistillScale * upscale / train_size);
            }
          }
        }
        // beta * Lreg (Eq. 9): Laplacian smoothing over reliable edges.
        if (use_lreg) {
          observe::TraceSpan span("rdd/edge_reg_loss");
          const std::vector<int64_t> student_preds = ArgmaxRows(student_probs);
          const std::vector<std::pair<int64_t, int64_t>> view_edges =
              ViewEdges(view);
          std::vector<std::pair<int64_t, int64_t>> edges;
          {
            observe::TraceSpan edges_span("rdd/edge_reliability", epoch);
            edges = config.use_edge_reliability
                        ? ComputeReliableEdges(view_edges, reliable,
                                               student_preds)
                        : view_edges;
          }
          diag.reliable_edges = static_cast<int64_t>(edges.size());
          if (!edges.empty()) {
            if (config.edge_reg_target == EdgeRegTarget::kEmbedding) {
              terms.push_back(ag::EdgeLaplacian(output.embedding, edges,
                                                ag::Reduction::kSum));
            } else {
              terms.push_back(ag::EdgeLaplacian(ag::Softmax(output.logits),
                                                edges, ag::Reduction::kSum));
            }
            coeffs.push_back(
                config.beta /
                (static_cast<float>(
                     std::max<size_t>(view_edges.size(), size_t{1})) *
                 k));
          }
        }
        diag.reliable_nodes = static_cast<int64_t>(
            std::count(reliable.begin(), reliable.end(), true));
        diag.distill_nodes = static_cast<int64_t>(distill_nodes.size());
        return ag::WeightedSum(terms, coeffs);
      };
      result.reports.push_back(TrainWithLoss(student, train_data,
                                             source.train, loss_fn,
                                             source.views, source.hooks));
    }

    // Lines 19-21: cache the trained student's outputs and add it to the
    // ensemble. A warm chain replaces member t and keeps its frozen weight.
    observe::TraceSpan ensemble_span("rdd/ensemble_update", t);
    cache_outputs(student, static_cast<size_t>(t));
    if (!warm) {
      alphas[static_cast<size_t>(t)] =
          ensemble_weight(members[static_cast<size_t>(t)].probs);
    }
    result.diagnostics.push_back(diag);
  }

  // The delivered teacher H_T. A warm chain's weights are recomputed (Eq.
  // 12) on the retrained members.
  result.single_test_accuracy =
      Accuracy(members.back().probs, dataset.labels, dataset.split.test);
  for (int t = 0; t < num_students; ++t) {
    MemberOutputs& m = members[static_cast<size_t>(t)];
    const double alpha = warm ? ensemble_weight(m.probs)
                              : alphas[static_cast<size_t>(t)];
    result.alphas.push_back(alpha);
    result.teacher.AddMember(std::move(m.probs), std::move(m.embeddings),
                             alpha);
    result.students.push_back(std::move(students[static_cast<size_t>(t)]));
    result.ensemble_accuracy_after_member.push_back(
        result.teacher.Accuracy(dataset.labels, dataset.split.test));
  }
  result.ensemble_test_accuracy =
      result.teacher.Accuracy(dataset.labels, dataset.split.test);
  result.average_member_test_accuracy =
      result.teacher.AverageMemberAccuracy(dataset.labels,
                                           dataset.split.test);
  result.total_seconds = timer.ElapsedSeconds();
  return result;
}

RddResult TrainRdd(const Dataset& dataset, const GraphContext& context,
                   const RddConfig& config, uint64_t seed) {
  return TrainStudentChain(ChainSource(dataset, context, config.train), config,
                           RddResult{}, seed);
}

RddResult TrainRddMiniBatch(const Dataset& dataset,
                            const GraphContext& context,
                            const RddConfig& config,
                            const MiniBatchConfig& mb_config, uint64_t seed) {
  ChainSource source(dataset, context, config.train);
  source.hooks = MiniBatchEvalHooks(dataset, mb_config);
  // The first student sweeps only the labeled nodes — there is nothing to
  // distill yet. Distillation and the edge regularizer act mostly on
  // UNLABELED nodes, so the distilling students' batches sweep every node.
  std::vector<int64_t> all_nodes(static_cast<size_t>(dataset.NumNodes()));
  std::iota(all_nodes.begin(), all_nodes.end(), int64_t{0});
  source.views = MiniBatchViews(dataset, mb_config, std::move(all_nodes));
  // Shards cover every node whatever the targets, so one partition serves
  // both.
  source.supervised_views =
      mb_config.num_shards > 0
          ? source.views
          : MiniBatchViews(dataset, mb_config, dataset.split.train);
  return TrainStudentChain(source, config, RddResult{}, seed);
}

}  // namespace rdd
