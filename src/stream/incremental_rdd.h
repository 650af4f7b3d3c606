#ifndef RDD_STREAM_INCREMENTAL_RDD_H_
#define RDD_STREAM_INCREMENTAL_RDD_H_

#include <cstdint>
#include <vector>

#include "core/rdd_config.h"
#include "core/rdd_trainer.h"
#include "stream/graph_delta.h"
#include "stream/streaming_graph.h"

namespace rdd::stream {

/// Settings for one incremental retrain after a delta.
struct IncrementalConfig {
  /// k: the retrain region is the k-hop neighborhood of the nodes the delta
  /// touched. Rows inside hop k-1 are TARGET rows; the hop-k shell is the
  /// frontier that anchors the region to the unchanged graph.
  int hops = 2;
  /// Fine-tune budget per student — a small fraction of a from-scratch run:
  /// every student starts from its previously converged weights, so a few
  /// epochs over the delta region recover (bench/stream_train: match) the
  /// full-retrain accuracy.
  int max_epochs = 10;
  /// Early stopping patience, counted in EVALUATIONS (see eval_every).
  int patience = 8;
  /// Full-graph validation runs every eval_every epochs (one full forward
  /// costs far more than a region epoch, so it is amortized exactly like
  /// the condensed trainer's EvalHooks::eval_every).
  int eval_every = 5;
  /// Distillation weight multiplier for frontier rows. Frontier rows sit on
  /// the boundary to the unchanged graph; upweighting their mimic loss pins
  /// the updated region to the teacher's (previous ensemble's) behavior
  /// there, so a local delta cannot drag down far-away predictions.
  float frontier_boost = 2.0f;
};

/// Reads RDD_STREAM_HOPS over the defaults above (see the README env
/// table).
IncrementalConfig IncrementalConfigFromEnv();

/// Outcome of one incremental retrain.
struct IncrementalResult {
  /// Same shape as a from-scratch TrainRdd result: updated students,
  /// rebuilt teacher, per-student reports, accuracies on the CURRENT graph.
  RddResult result;
  /// True when the delta was empty: `result` is the previous result,
  /// returned unchanged (byte-for-byte — no RNG draw, no forward pass).
  bool noop = false;
  int64_t affected_nodes = 0;  ///< |k-hop ball| (targets + frontier).
  int64_t target_nodes = 0;    ///< Rows actually fine-tuned (inner ball).
  double total_seconds = 0.0;
};

/// Warm-start retrain of a previously trained RDD ensemble after `delta`
/// was applied to `stream` (Apply first, then call this). Instead of
/// re-running Algorithm 3 from scratch, every student is rebuilt over the
/// new graph with its OLD weights restored (parameters are
/// view-independent, so they transfer verbatim) and fine-tuned only over
/// the induced view of the delta's k-hop neighborhood, with Algorithms 1-2
/// (node/edge reliability) running per epoch on that view. The teacher for
/// student t is the full T-member ensemble with members < t already
/// updated — student 0 distills from the previous ensemble outright, which
/// is what anchors the warm start. Ensemble weights (Eq. 12) are recomputed
/// from PageRank of the NEW graph.
///
/// `previous` must come from the same RddConfig (arch mismatch aborts via
/// RestoreParameters' shape checks). `num_nodes_before` is the node count
/// before Apply (arrival ids depend on it).
///
/// Contract: a pure function of its arguments — bit-identical at any
/// RDD_NUM_THREADS, RDD_SIMD backend, pool mode, and metrics/tracing
/// on/off, like TrainRdd. An empty delta returns `previous` unchanged.
IncrementalResult IncrementalRddOnDelta(const StreamingGraph& stream,
                                        const GraphDelta& delta,
                                        int64_t num_nodes_before,
                                        const RddResult& previous,
                                        const RddConfig& config,
                                        const IncrementalConfig& inc,
                                        uint64_t seed);

}  // namespace rdd::stream

#endif  // RDD_STREAM_INCREMENTAL_RDD_H_
