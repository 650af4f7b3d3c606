#include "stream/incremental_rdd.h"

#include <algorithm>
#include <iterator>
#include <utility>
#include <vector>

#include "graph/graph_view.h"
#include "observe/trace.h"
#include "util/env.h"
#include "util/logging.h"
#include "util/timer.h"

namespace rdd::stream {

IncrementalConfig IncrementalConfigFromEnv() {
  IncrementalConfig config;
  config.hops = env::IntEnv("RDD_STREAM_HOPS", config.hops, 0, 16);
  return config;
}

IncrementalResult IncrementalRddOnDelta(const StreamingGraph& stream,
                                        const GraphDelta& delta,
                                        int64_t num_nodes_before,
                                        const RddResult& previous,
                                        const RddConfig& config,
                                        const IncrementalConfig& inc,
                                        uint64_t seed) {
  RDD_CHECK(!previous.students.empty());
  WallTimer timer;
  IncrementalResult out;
  if (delta.empty()) {
    // Byte-for-byte no-op: no RNG draw, no forward pass, no copy-on-write
    // churn — the previous result is handed back as-is.
    out.result = previous;
    out.noop = true;
    out.total_seconds = timer.ElapsedSeconds();
    return out;
  }

  observe::TraceSpan span("stream/incremental_rdd");
  const Dataset& dataset = stream.dataset();
  const GraphContext& context = stream.context();

  // The retrain region: target rows are the (k-1)-hop ball around the
  // delta, the hop-k shell rides along as upweighted frontier anchors.
  const std::vector<int64_t> inner =
      stream.AffectedNodes(delta, std::max(inc.hops - 1, 0),
                           num_nodes_before);
  const std::vector<int64_t> ball =
      stream.AffectedNodes(delta, inc.hops, num_nodes_before);
  std::vector<int64_t> shell;
  std::set_difference(ball.begin(), ball.end(), inner.begin(), inner.end(),
                      std::back_inserter(shell));
  std::vector<int64_t> region = inner;
  region.insert(region.end(), shell.begin(), shell.end());
  const int64_t num_targets = static_cast<int64_t>(inner.size());
  out.affected_nodes = static_cast<int64_t>(ball.size());
  out.target_nodes = num_targets;
  RDD_CHECK_GT(num_targets, 0);

  // Every student fine-tunes over the region's induced view while
  // validation and the final test metric run over the full graph — the
  // same train-small / validate-full split the condensed trainer uses.
  ChainSource source(dataset, context, config.train);
  source.train.max_epochs = inc.max_epochs;
  source.train.patience = inc.patience;
  source.hooks.eval_every = inc.eval_every;
  const GraphView view =
      MakeInducedView(dataset.graph, *context.features, context.num_classes,
                      std::move(region), num_targets);
  source.views = [&view](int /*epoch*/, const TrainStep& step) { step(view); };
  // Frontier rows are the rows whose behavior must not move, so unlike the
  // mini-batch trainer they stay in the distillation set, upweighted.
  source.frontier_boost = inc.frontier_boost;

  // Warm chain over the previous ensemble: student 0 distills from the
  // previous ensemble outright, which is what anchors the warm start.
  out.result = TrainStudentChain(source, config, previous, seed);
  out.total_seconds = out.result.total_seconds = timer.ElapsedSeconds();
  return out;
}

}  // namespace rdd::stream
