#include "core/reliability.h"

#include <algorithm>
#include <cmath>

#include "parallel/parallel_for.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace rdd {

double LowerPercentileThreshold(std::vector<double> values, double percent) {
  RDD_CHECK(!values.empty());
  RDD_CHECK_GE(percent, 0.0);
  RDD_CHECK_LE(percent, 100.0);
  const int64_t n = static_cast<int64_t>(values.size());
  // Index of the last element inside the lowest `percent` fraction.
  int64_t k = static_cast<int64_t>(
                  std::ceil(percent / 100.0 * static_cast<double>(n))) -
              1;
  k = std::clamp<int64_t>(k, 0, n - 1);
  std::nth_element(values.begin(), values.begin() + k, values.end());
  return values[static_cast<size_t>(k)];
}

NodeReliability ComputeNodeReliability(const Matrix& teacher_probs,
                                       const Matrix& student_probs,
                                       const std::vector<int64_t>& labels,
                                       const std::vector<bool>& train_mask,
                                       const NodeReliabilityConfig& config) {
  const int64_t n = teacher_probs.rows();
  RDD_CHECK_EQ(student_probs.rows(), n);
  RDD_CHECK_EQ(teacher_probs.cols(), student_probs.cols());
  RDD_CHECK_EQ(static_cast<int64_t>(labels.size()), n);
  RDD_CHECK_EQ(static_cast<int64_t>(train_mask.size()), n);
  RDD_CHECK_GT(config.p_percent, 0.0);
  RDD_CHECK_LE(config.p_percent, 100.0);

  NodeReliability result;
  result.teacher_entropy = RowEntropy(teacher_probs);
  result.student_entropy = RowEntropy(student_probs);
  const std::vector<int64_t> teacher_preds = ArgmaxRows(teacher_probs);
  const std::vector<int64_t> student_preds = ArgmaxRows(student_probs);

  // Lines 1-2 & 7: an unlabeled node is entropy-reliable when the teacher's
  // entropy is among the lowest p percent.
  const double teacher_threshold =
      LowerPercentileThreshold(result.teacher_entropy, config.p_percent);
  // Lines 5-6 & 9: a node joins Vb when the student's entropy is among the
  // HIGHEST p percent, i.e. above the (100 - p) lower percentile.
  const double student_threshold = LowerPercentileThreshold(
      result.student_entropy, 100.0 - config.p_percent);

  // Per-node classification runs data-parallel into byte flags (vector<bool>
  // packs bits, so concurrent chunk writes would race on shared words), and
  // a serial pass then appends the node lists in ascending order — the same
  // order the sequential loop produced, so the output is bit-identical at
  // any thread count.
  std::vector<unsigned char> reliable_flags(static_cast<size_t>(n), 0);
  std::vector<unsigned char> distill_flags(static_cast<size_t>(n), 0);
  parallel::ParallelFor(0, n, parallel::GrainForCost(8), [&](int64_t i0,
                                                             int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      const size_t si = static_cast<size_t>(i);
      // Entropy-reliability, before the agreement filter.
      bool reliable_pre;
      if (train_mask[si]) {
        // Line 4 / Sec. 3.1: labeled nodes are reliable when (the configured
        // model's) prediction matches the known label.
        const int64_t pred =
            config.labeled_rule == LabeledReliabilityRule::kTeacherCorrect
                ? teacher_preds[si]
                : student_preds[si];
        reliable_pre = pred == labels[si];
      } else {
        reliable_pre = result.teacher_entropy[si] <= teacher_threshold;
      }
      const bool agree = teacher_preds[si] == student_preds[si];
      // Line 8: Vr drops nodes on which student and teacher disagree.
      const bool reliable =
          reliable_pre && (!config.require_agreement || agree);
      reliable_flags[si] = reliable ? 1 : 0;

      // Vb selection (see DistillTargetRule).
      const bool uncertain = result.student_entropy[si] >= student_threshold;
      switch (config.distill_rule) {
        case DistillTargetRule::kUncertainOnly:
          // Algorithm 1 line 9: drawn from the post-agreement Vr.
          distill_flags[si] = (reliable && uncertain) ? 1 : 0;
          break;
        case DistillTargetRule::kDisagreeOrUncertain:
          // Figures 3/5: teacher-reliable knowledge the student gets wrong
          // (disagrees) or is unsure about.
          distill_flags[si] = (reliable_pre && (!agree || uncertain)) ? 1 : 0;
          break;
        case DistillTargetRule::kAllReliable:
          distill_flags[si] = reliable_pre ? 1 : 0;
          break;
      }
    }
  });

  result.reliable.assign(static_cast<size_t>(n), false);
  for (int64_t i = 0; i < n; ++i) {
    const size_t si = static_cast<size_t>(i);
    if (reliable_flags[si] != 0) {
      result.reliable[si] = true;
      result.reliable_nodes.push_back(i);
    }
    if (distill_flags[si] != 0) result.distill_nodes.push_back(i);
  }
  return result;
}

std::vector<std::pair<int64_t, int64_t>> ComputeReliableEdges(
    const std::vector<std::pair<int64_t, int64_t>>& edges,
    const std::vector<bool>& reliable,
    const std::vector<int64_t>& student_predictions) {
  std::vector<std::pair<int64_t, int64_t>> reliable_edges;
  for (const auto& [u, v] : edges) {
    const size_t su = static_cast<size_t>(u);
    const size_t sv = static_cast<size_t>(v);
    RDD_CHECK_LT(su, reliable.size());
    RDD_CHECK_LT(sv, reliable.size());
    if (reliable[su] && reliable[sv] &&
        student_predictions[su] == student_predictions[sv]) {
      reliable_edges.emplace_back(u, v);
    }
  }
  return reliable_edges;
}

}  // namespace rdd
