#ifndef RDD_GRAPH_CONDENSE_CONDENSE_H_
#define RDD_GRAPH_CONDENSE_CONDENSE_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "tensor/matrix.h"

namespace rdd::condense {

/// Which condensation recipe builds the small training graph.
enum class Method {
  kOff = 0,      ///< No condensation: train on the full graph.
  kCluster = 1,  ///< k-means over propagated features, one node per cluster.
};

/// Human-readable method name ("off", "cluster").
const char* MethodName(Method method);

/// Configuration of the graph condensers. Defaults give a ~5% Cora-like
/// condensation that keeps RDD's full-graph accuracy within the paper's
/// trial-to-trial noise (see bench/condense_train).
struct CondenseConfig {
  Method method = Method::kCluster;

  /// Target synthetic-node count as a fraction of the full graph's nodes.
  /// The actual count is clamped to [num_classes, num_nodes].
  double ratio = 0.05;

  /// Width of the hashed feature projection (<= 64) and rounds of
  /// D^-1 (A+I) smoothing applied before clustering — the same front end
  /// the propagated-feature partitioner uses.
  int64_t projection_dim = 32;
  int64_t propagation_steps = 2;
  int64_t kmeans_iters = 15;

  /// Keep only the `feature_topk` largest entries of each synthetic feature
  /// row (mean of ~1/ratio member rows, so otherwise far denser than any
  /// real row), rescaled to preserve the row's mass. Caps the condensed
  /// SpMM cost — the dominant per-epoch term — and denoises the means.
  /// 0 keeps every entry.
  int64_t feature_topk = 64;

  /// Condensed RDD training validates on the FULL graph every `eval_every`
  /// epochs (full-graph forwards dominate condensed-epoch cost; this
  /// amortizes them). 1 = validate every epoch, matching TrainWithLoss.
  int eval_every = 10;

  /// Epochs of the full-graph warm-up GCN whose (train-clamped) predictions
  /// pseudo-label every node before condensation. The warm-up is the only
  /// full-graph training the condensed pipeline pays for — a brief fraction
  /// of one student's budget — and lifts pseudo-label quality far above
  /// plain label propagation on feature-heavy graphs. 0 disables the
  /// warm-up and falls back to LP pseudo-labels.
  int warmup_epochs = 20;

  uint64_t seed = 0xc0deULL;

  /// Reads the RDD_CONDENSE_* environment knobs (README "Environment
  /// variables"): RDD_CONDENSE (off|cluster, plus the boolean spellings
  /// where 1/true/on/yes mean cluster) and RDD_CONDENSE_RATIO. Unset
  /// variables keep the defaults above, except `method`, which defaults to
  /// kOff so condensation is strictly opt-in.
  static CondenseConfig FromEnv();
};

/// A condensed stand-in for a full dataset: a synthetic graph of
/// ~ratio * num_nodes nodes whose features, labels, and train split are
/// derived ONLY from the full graph's topology, features, and train-split
/// labels (never val/test labels — no leakage). The dataset carries empty
/// val/test splits: condensed training validates against the FULL graph.
struct CondensedGraph {
  Dataset dataset;

  /// Synthetic node -> the full-graph node ids it merged (ascending).
  std::vector<std::vector<int64_t>> members;

  int64_t original_nodes = 0;
  /// Synthetic over original node count.
  double achieved_ratio = 0.0;
};

/// Synthetic node count for a (num_nodes, num_classes, ratio) triple:
/// round(ratio * num_nodes) clamped to [num_classes, num_nodes].
int64_t CondensedNodeCount(int64_t num_nodes, int64_t num_classes,
                           double ratio);

/// Runs the configured condenser. config.method must not be kOff.
///
/// Contract: the result is a pure function of (full, config) — bit-identical
/// at any RDD_NUM_THREADS and RDD_SIMD backend. Hot loops (k-means
/// assignment and center updates) go through the dispatched simd kernels
/// and fixed-shape block reductions. Observability: emits
/// "condense/project", "condense/kmeans" and "condense/coarsen" spans, and
/// bumps the "condense.runs" / "condense.synthetic_nodes" counters.
CondensedGraph CondenseGraph(const Dataset& full, const CondenseConfig& config);

/// Clustering condenser: pseudo-label-guided k-means++ (deterministically
/// seeded) over propagated projected features. Nodes are pseudo-labeled by
/// the warm-up model (train rows clamped to their true labels), the
/// synthetic-node budget is split across pseudo-classes by largest-remainder
/// apportionment, and k-means runs within each pseudo-class — every cluster
/// is class-pure by construction. Each cluster becomes one synthetic node
/// whose feature row is the mean of its members' raw feature rows, edges
/// connect clusters joined by at least one full-graph edge, labels are the
/// cluster's pseudo-class, and every non-empty cluster enters the condensed
/// train split.
CondensedGraph ClusterCondense(const Dataset& full,
                               const CondenseConfig& config);

namespace internal {

/// Per-node class scores the cluster condenser pseudo-labels from:
/// row-stochastic n x num_classes, train rows clamped to their one-hot true
/// labels. With config.warmup_epochs > 0, the scores are the softmax
/// predictions of a GCN trained on the train split for that many epochs
/// ("condense/warmup" span); with 0, harmonic label propagation
/// (alpha = 0.3). Only train labels are ever read — no val/test leakage.
Matrix PseudoLabelScores(const Dataset& full, const CondenseConfig& config);

}  // namespace internal

}  // namespace rdd::condense

#endif  // RDD_GRAPH_CONDENSE_CONDENSE_H_
