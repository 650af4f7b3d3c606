#ifndef RDD_CORE_RELIABILITY_H_
#define RDD_CORE_RELIABILITY_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "tensor/matrix.h"

namespace rdd {

/// Which prediction decides the labeled-node reliability rule. The paper's
/// prose (Sec. 3.1) uses the teacher's prediction; Algorithm 1 line 4 is
/// written with the student's. Both readings are exposed; the prose reading
/// is the default (see DESIGN.md "Faithfulness notes").
enum class LabeledReliabilityRule {
  kTeacherCorrect,
  kStudentCorrect,
};

/// How the distillation target set Vb is selected. The paper is internally
/// inconsistent here: Algorithm 1 (lines 8-9) first drops nodes where
/// student and teacher disagree and then keeps the ones the student is
/// UNSURE about, while Figure 3 and Figure 5 state the student learns the
/// reliable knowledge it "wrongly predicts compared to the teacher" — i.e.
/// exactly the disagreeing nodes. Both readings are implemented; the
/// corrective reading is the default because it is the one that actually
/// lets the teacher fix student mistakes (see DESIGN.md and the ablation
/// bench).
enum class DistillTargetRule {
  /// Algorithm 1 literally: Vb = Vr (post-agreement) with student entropy
  /// in the top p percent.
  kUncertainOnly,
  /// Figures 3/5: Vb = entropy-reliable nodes where the student disagrees
  /// with the teacher, plus agreeing nodes the student is unsure about.
  kDisagreeOrUncertain,
  /// Sec. 4.2.1 prose ("the student model tries to mimic the embedding of
  /// each reliable node"): Vb = every entropy-reliable node. This reading
  /// transfers the most knowledge and is the calibrated default.
  kAllReliable,
};

/// Configuration of the node-reliability computation (Algorithm 1).
struct NodeReliabilityConfig {
  /// The paper's p: an unlabeled node is entropy-reliable when the teacher's
  /// prediction entropy falls in the lowest p percent; a reliable node joins
  /// Vb when the student's entropy falls in the highest p percent.
  double p_percent = 40.0;
  LabeledReliabilityRule labeled_rule =
      LabeledReliabilityRule::kTeacherCorrect;
  /// When true (default), the RELIABLE set Vr additionally requires teacher
  /// and student to predict the same label (Algorithm 1 line 8). Vr is what
  /// edge reliability consumes.
  bool require_agreement = true;
  DistillTargetRule distill_rule = DistillTargetRule::kAllReliable;
};

/// Output of Algorithm 1: the reliable node set Vr and the distillation
/// target set Vb (nodes the teacher learned reliably but the student is
/// unsure about), plus the raw entropies for diagnostics.
struct NodeReliability {
  std::vector<bool> reliable;          ///< Membership mask of Vr.
  std::vector<int64_t> reliable_nodes; ///< Vr as an index list.
  std::vector<int64_t> distill_nodes;  ///< Vb as an index list.
  std::vector<double> teacher_entropy;
  std::vector<double> student_entropy;
};

/// Implements Algorithm 1 of the paper. `teacher_probs` / `student_probs`
/// are row-stochastic prediction matrices over all nodes; `labels` holds
/// ground-truth labels (only the rows flagged in `train_mask` are consulted,
/// matching the semi-supervised setting).
NodeReliability ComputeNodeReliability(const Matrix& teacher_probs,
                                       const Matrix& student_probs,
                                       const std::vector<int64_t>& labels,
                                       const std::vector<bool>& train_mask,
                                       const NodeReliabilityConfig& config);

/// Implements Algorithm 2 of the paper: an edge (i, j) of `edges` is
/// reliable iff both endpoints are in Vr and the student predicts the same
/// class for both (w_ij = A_ij * B_ij * C_ij, Eq. 5). `edges` is any (u, v)
/// list, e.g. ViewEdges of a graph view with view-local ids (ViewEdges of
/// the full view lists Graph::edges()). Returns the reliable edge list Er,
/// in input order.
std::vector<std::pair<int64_t, int64_t>> ComputeReliableEdges(
    const std::vector<std::pair<int64_t, int64_t>>& edges,
    const std::vector<bool>& reliable,
    const std::vector<int64_t>& student_predictions);

/// Returns the value below which `percent` percent of `values` fall (the
/// inclusive lower-tail threshold used by the p% rules above). `percent`
/// must be in [0, 100]; empty inputs abort.
double LowerPercentileThreshold(std::vector<double> values, double percent);

}  // namespace rdd

#endif  // RDD_CORE_RELIABILITY_H_
