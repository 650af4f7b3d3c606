#ifndef RDD_CORE_RDD_TRAINER_H_
#define RDD_CORE_RDD_TRAINER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/rdd_config.h"
#include "core/teacher.h"
#include "data/dataset.h"
#include "models/graph_model.h"
#include "train/minibatch.h"
#include "train/trainer.h"

namespace rdd {

/// Per-student diagnostics captured at the student's final training epoch.
struct StudentDiagnostics {
  int64_t reliable_nodes = 0;   ///< |Vr|
  int64_t distill_nodes = 0;    ///< |Vb|
  int64_t reliable_edges = 0;   ///< |Er|
};

/// Outcome of a full RDD run.
struct RddResult {
  /// The final teacher H_T: the weighted ensemble of all T students. Its
  /// accuracy is the paper's "RDD(Ensemble)".
  Teacher teacher;
  /// Per-student training reports, in training order. The LAST student is
  /// the paper's "RDD(Single)" model.
  std::vector<TrainReport> reports;
  /// The trained student models themselves, in training order (same order
  /// as `reports`/`alphas`). Kept alive for checkpointing and distillation;
  /// shared_ptr keeps RddResult copyable.
  std::vector<std::shared_ptr<GraphModel>> students;
  /// Raw ensemble weights alpha_t (Eq. 12).
  std::vector<double> alphas;
  std::vector<StudentDiagnostics> diagnostics;

  double ensemble_test_accuracy = 0.0;
  double single_test_accuracy = 0.0;  ///< Last student's test accuracy.
  double average_member_test_accuracy = 0.0;
  double total_seconds = 0.0;
  /// Test accuracy of the ensemble after each member was added (element t
  /// is the accuracy of the first t+1 members) — the efficiency analysis of
  /// Table 9 reads how many members a method needs to reach a target.
  std::vector<double> ensemble_accuracy_after_member;
};

/// Where an Algorithm 3 student chain trains. TrainRdd, TrainRddMiniBatch,
/// TrainRddCondensed and stream::IncrementalRddOnDelta each build one and
/// hand it to TrainStudentChain; nothing else differs between them.
struct ChainSource {
  /// Full-graph training on `dataset`, every field below at its default.
  ChainSource(const Dataset& dataset, const GraphContext& context,
              const TrainConfig& train)
      : dataset(&dataset),
        context(&context),
        train_data(&dataset),
        train_context(&context),
        train(train) {}

  /// The graph students are delivered on: Eq. 12 weights, the result's
  /// teacher and every accuracy in the result are over its full view.
  const Dataset* dataset;
  const GraphContext* context;
  /// The graph students are built over and the losses read (labels, split,
  /// edges). Only condensed training sets it apart from `dataset`; the
  /// chain then also caches each member over these rows, as the teacher
  /// Algorithms 1-2 and the L2 term compare against.
  const Dataset* train_data;
  const GraphContext* train_context;
  /// Epoch budget, optimizer and early stopping of every student, and how
  /// they are evaluated.
  TrainConfig train;
  EvalHooks hooks;
  /// Training views of the supervised-only first student of a fresh chain,
  /// and of every distilling student. Empty trains on the full view of
  /// `train_data`, one step per epoch.
  EpochViews supervised_views;
  EpochViews views;
  /// Unset: frontier rows (view rows >= num_targets) leave the distillation
  /// set — in mini-batch training they recur as targets of other batches,
  /// so one epoch distills each node once. Set: frontier rows stay, their
  /// soft cross-entropy weighted by this value, pinning a region view to
  /// the unchanged graph around it. Full views have no frontier rows.
  std::optional<float> frontier_boost;
};

/// Algorithm 3 over `source`: trains a chain of students, each under the
/// L1 + gamma * L2 + beta * Lreg loss over the reliable nodes and edges
/// (Algorithms 1-2) of its training views, distilling from the ensemble of
/// the chain so far, and adds each finished student to the ensemble with
/// its Eq. 12 weight.
///
/// An empty `initial` runs a fresh chain of config.num_base_models
/// students: student 0 is supervised-only (line 2 of Algorithm 3) and
/// gamma follows the Eq. 14 schedule. A trained `initial` runs a warm
/// chain: student t starts from a copy of initial.students[t], the teacher
/// is the whole ensemble with members < t already retrained and every
/// member weight frozen at initial.alphas, gamma is constant, and the Eq.
/// 12 weights are recomputed once the chain finishes.
///
/// Each student's seed is drawn from `seed` up front, in chain order.
/// Observability: one "rdd/student" span per student, nesting
/// "rdd/teacher_views", every "train/epoch", and "rdd/ensemble_update".
RddResult TrainStudentChain(const ChainSource& source, const RddConfig& config,
                            const RddResult& initial, uint64_t seed);

/// Runs Algorithm 3: trains `config.num_base_models` students, each under
/// the reliability-filtered supervision of the ensemble of its
/// predecessors, and returns the final teacher plus per-student metrics.
///
/// Contract: the result is a pure function of (dataset, context, config,
/// seed) — bit-identical at any RDD_NUM_THREADS, RDD_SIMD backend, pool
/// mode, and with metrics/tracing on or off (tests/memory_test.cc,
/// simd_test.cc, observe_test.cc each pin one axis on a full run).
///
/// Observability: with RDD_TRACE set, the run emits one "rdd/student" span
/// per Algorithm 3 iteration, nesting "rdd/teacher_views", per-epoch
/// reliability classification and loss-term spans, and the closing
/// "rdd/ensemble_update" — see DESIGN.md §9 for the span → algorithm map.
RddResult TrainRdd(const Dataset& dataset, const GraphContext& context,
                   const RddConfig& config, uint64_t seed);

/// Mini-batch Algorithm 3: the same student chain, but every student trains
/// over sampled (or sharded) GraphViews, and the reliability machinery runs
/// PER BATCH — node reliability (Algorithm 1) classifies the view's rows
/// with p-percent thresholds over the view, edge reliability (Algorithm 2)
/// filters the view's induced edge list, and the distillation set is
/// restricted to the batch's target rows so one epoch distills each node
/// once. Batches cover ALL nodes (not just labeled ones), since L2/Lreg act
/// mostly on unlabeled nodes. Loss terms are rescaled per batch so the
/// per-step L1 : L2 : Lreg balance matches full-batch training, keeping the
/// paper's beta/gamma grids meaningful.
///
/// Teacher views (the frozen ensemble's averaged probs/embeddings) and the
/// end-of-student ensemble update still run one full-graph forward per
/// student — O(num_nodes * num_classes) memory, the scale anchor being the
/// per-BATCH training activations this path eliminates.
///
/// Determinism contract matches TrainRdd, with the sampler's split streams
/// making batch composition a pure function of (mb_config.sampler_seed,
/// epoch) at any thread count.
RddResult TrainRddMiniBatch(const Dataset& dataset,
                            const GraphContext& context,
                            const RddConfig& config,
                            const MiniBatchConfig& mb_config, uint64_t seed);

/// Computes the ensemble weight alpha_t = 1 / sum_i I_t(x_i) Pr(x_i)
/// (Eq. 12) from a member's prediction entropy and the graph's PageRank.
/// The denominator is floored at a small epsilon so a perfectly confident
/// member cannot produce an unbounded weight.
double ComputeEnsembleWeight(const Matrix& probs,
                             const std::vector<double>& pagerank);

}  // namespace rdd

#endif  // RDD_CORE_RDD_TRAINER_H_
