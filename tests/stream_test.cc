// Determinism and contract suite for the streaming-update subsystem.
// The load-bearing contract: after ANY sequence of Apply calls — however
// the same material is batched across deltas — StreamingGraph::context()
// is BIT-IDENTICAL to GraphContext::FromDataset built from scratch over the
// final dataset, at any RDD_NUM_THREADS and RDD_SIMD backend. On top of it,
// IncrementalRddOnDelta must be a pure function of its arguments, and an
// empty delta must be a byte-for-byte no-op. CI's determinism matrix builds
// this executable and runs it under RDD_NUM_THREADS / RDD_SIMD overrides,
// so keep every test independent of both.

#include "stream/graph_delta.h"

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rdd_trainer.h"
#include "data/citation_gen.h"
#include "parallel/parallel_for.h"
#include "simd/simd.h"
#include "stream/incremental_rdd.h"
#include "stream/streaming_graph.h"

namespace rdd {
namespace {

using stream::GraphDelta;
using stream::IncrementalConfig;
using stream::IncrementalResult;
using stream::IncrementalRddOnDelta;
using stream::NodeArrival;
using stream::ReplayStream;
using stream::SplitIntoStream;
using stream::StreamingGraph;
using stream::StreamSplitOptions;
using stream::TouchedNodes;
using stream::ValidateDelta;

/// Restores the configured thread count on scope exit so tests compose.
class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(parallel::NumThreads()) {}
  ~ThreadCountGuard() { parallel::SetNumThreads(saved_); }

 private:
  int saved_;
};

/// Restores the dispatched SIMD backend on scope exit.
class BackendGuard {
 public:
  BackendGuard() : saved_(simd::ActiveBackend()) {}
  ~BackendGuard() { simd::SetBackend(saved_); }

 private:
  simd::Backend saved_;
};

/// Bit-exact CSR equality.
void ExpectSparseEq(const SparseMatrix& a, const SparseMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_EQ(a.row_ptr(), b.row_ptr());
  ASSERT_EQ(a.col_idx(), b.col_idx());
  ASSERT_EQ(a.values(), b.values());
}

/// Bit-exact equality of two graph contexts: features and both normalized
/// propagation matrices.
void ExpectContextEq(const GraphContext& a, const GraphContext& b) {
  ASSERT_EQ(a.num_nodes, b.num_nodes);
  ASSERT_EQ(a.feature_dim, b.feature_dim);
  ASSERT_EQ(a.num_classes, b.num_classes);
  ExpectSparseEq(*a.features, *b.features);
  ExpectSparseEq(*a.adj_norm, *b.adj_norm);
  ExpectSparseEq(*a.adj_row, *b.adj_row);
}

/// Bit-exact equality of the result surfaces IncrementalRdd reports.
void ExpectRddResultEq(const RddResult& a, const RddResult& b) {
  EXPECT_EQ(a.ensemble_test_accuracy, b.ensemble_test_accuracy);
  EXPECT_EQ(a.single_test_accuracy, b.single_test_accuracy);
  EXPECT_EQ(a.average_member_test_accuracy, b.average_member_test_accuracy);
  ASSERT_EQ(a.alphas.size(), b.alphas.size());
  for (size_t t = 0; t < a.alphas.size(); ++t) {
    EXPECT_EQ(a.alphas[t], b.alphas[t]);
  }
  ASSERT_EQ(a.ensemble_accuracy_after_member.size(),
            b.ensemble_accuracy_after_member.size());
  for (size_t t = 0; t < a.ensemble_accuracy_after_member.size(); ++t) {
    EXPECT_EQ(a.ensemble_accuracy_after_member[t],
              b.ensemble_accuracy_after_member[t]);
  }
}

/// A small but structurally honest dataset the whole suite shares.
class StreamTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CitationGenConfig config;
    config.num_nodes = 500;
    config.num_features = 120;
    config.num_edges = 1700;
    config.num_classes = 5;
    config.homophily = 0.72;
    config.topic_purity = 0.35;
    config.labeled_per_class = 10;
    config.val_size = 70;
    config.test_size = 120;
    full_ = new Dataset(GenerateCitationNetwork(config, 91));
  }
  static void TearDownTestSuite() { delete full_; }

  /// A fast RDD config for warm-start tests: 2 students, short budgets.
  static RddConfig MakeRddConfig() {
    RddConfig config;
    config.num_base_models = 2;
    config.train.max_epochs = 40;
    return config;
  }

  static IncrementalConfig MakeIncConfig() {
    IncrementalConfig inc;
    inc.hops = 2;
    inc.max_epochs = 15;
    inc.eval_every = 5;
    return inc;
  }

  static Dataset* full_;
};

Dataset* StreamTest::full_ = nullptr;

TEST_F(StreamTest, ValidateDeltaRejectsMalformedInput) {
  const int64_t n = full_->NumNodes();
  const int64_t dim = full_->FeatureDim();
  const int64_t classes = full_->num_classes;

  GraphDelta ok;
  ok.added_edges.push_back({0, 1});
  EXPECT_TRUE(ValidateDelta(ok, n, dim, classes).ok());

  GraphDelta self_loop;
  self_loop.added_edges.push_back({3, 3});
  EXPECT_FALSE(ValidateDelta(self_loop, n, dim, classes).ok());

  GraphDelta out_of_range;
  out_of_range.added_edges.push_back({0, n});  // no arrivals: n is invalid
  EXPECT_FALSE(ValidateDelta(out_of_range, n, dim, classes).ok());

  // The same endpoint becomes valid once an arrival creates node n.
  GraphDelta with_arrival = out_of_range;
  NodeArrival arrival;
  arrival.features = {{0, 1.0f}};
  arrival.label = 0;
  with_arrival.added_nodes.push_back(arrival);
  EXPECT_TRUE(ValidateDelta(with_arrival, n, dim, classes).ok());

  GraphDelta unsorted_features;
  NodeArrival bad;
  bad.features = {{5, 1.0f}, {2, 1.0f}};  // columns must strictly increase
  unsorted_features.added_nodes.push_back(bad);
  EXPECT_FALSE(ValidateDelta(unsorted_features, n, dim, classes).ok());

  GraphDelta bad_label;
  NodeArrival labeled;
  labeled.features = {{0, 1.0f}};
  labeled.label = classes;  // out of range
  bad_label.added_nodes.push_back(labeled);
  EXPECT_FALSE(ValidateDelta(bad_label, n, dim, classes).ok());

  GraphDelta duplicate_update;
  duplicate_update.feature_updates.push_back({7, {{0, 1.0f}}});
  duplicate_update.feature_updates.push_back({7, {{1, 2.0f}}});
  EXPECT_FALSE(ValidateDelta(duplicate_update, n, dim, classes).ok());
}

TEST_F(StreamTest, TouchedNodesCoversEndpointsUpdatesAndArrivals) {
  const int64_t n = full_->NumNodes();
  GraphDelta delta;
  delta.added_edges.push_back({4, 9});
  delta.feature_updates.push_back({2, {{0, 1.0f}}});
  NodeArrival arrival;
  arrival.features = {{0, 1.0f}};
  delta.added_nodes.push_back(arrival);

  const std::vector<int64_t> touched = TouchedNodes(delta, n);
  EXPECT_EQ(touched, (std::vector<int64_t>{2, 4, 9, n}));
}

TEST_F(StreamTest, ReplayedStreamMatchesFromScratchRebuild) {
  StreamSplitOptions options;
  options.edge_holdout = 0.08;
  options.node_holdout = 0.05;
  options.num_deltas = 3;
  const ReplayStream replay = SplitIntoStream(*full_, options, 5);
  ASSERT_EQ(replay.deltas.size(), 3u);
  EXPECT_LT(replay.base.NumNodes(), full_->NumNodes());
  EXPECT_LT(replay.base.graph.num_edges(), full_->graph.num_edges());
  // Held-out nodes are never split nodes: the split sets survive the
  // relabeling as the SAME nodes (same size, same labels in order) under
  // their new ids.
  ASSERT_EQ(replay.base.split.train.size(), full_->split.train.size());
  ASSERT_EQ(replay.base.split.val.size(), full_->split.val.size());
  ASSERT_EQ(replay.base.split.test.size(), full_->split.test.size());
  for (size_t i = 0; i < full_->split.test.size(); ++i) {
    EXPECT_EQ(replay.base.labels[replay.base.split.test[i]],
              full_->labels[full_->split.test[i]]);
  }

  StreamingGraph graph(replay.base);
  for (const GraphDelta& delta : replay.deltas) {
    ASSERT_TRUE(graph.Apply(delta).ok());
  }
  EXPECT_EQ(graph.version(), 3);
  EXPECT_EQ(graph.dataset().NumNodes(), full_->NumNodes());
  EXPECT_EQ(graph.dataset().graph.num_edges(), full_->graph.num_edges());

  // THE streaming contract: the incrementally maintained context is
  // bit-identical to building one from scratch over the final dataset.
  ExpectContextEq(graph.context(),
                  GraphContext::FromDataset(graph.dataset()));
}

TEST_F(StreamTest, FinalStateIsInvariantToDeltaBatching) {
  // The same held-out material spread over 1, 2, and 5 deltas must land on
  // the same final graph, features, labels, and context, bit for bit.
  StreamSplitOptions one;
  one.edge_holdout = 0.06;
  one.node_holdout = 0.04;
  one.num_deltas = 1;
  StreamSplitOptions two = one;
  two.num_deltas = 2;
  StreamSplitOptions five = one;
  five.num_deltas = 5;

  StreamingGraph* reference = nullptr;
  for (const StreamSplitOptions& options : {one, two, five}) {
    const ReplayStream replay = SplitIntoStream(*full_, options, 11);
    auto* graph = new StreamingGraph(replay.base);
    for (const GraphDelta& delta : replay.deltas) {
      ASSERT_TRUE(graph->Apply(delta).ok());
    }
    if (reference == nullptr) {
      reference = graph;
      continue;
    }
    EXPECT_EQ(graph->dataset().labels, reference->dataset().labels);
    ExpectContextEq(graph->context(), reference->context());
    delete graph;
  }
  delete reference;
}

TEST_F(StreamTest, ApplyIsBitIdenticalAcrossThreadsAndBackends) {
  ThreadCountGuard thread_guard;
  BackendGuard backend_guard;

  StreamSplitOptions options;
  options.edge_holdout = 0.08;
  options.node_holdout = 0.05;
  options.num_deltas = 2;
  const ReplayStream replay = SplitIntoStream(*full_, options, 23);

  parallel::SetNumThreads(1);
  simd::SetBackend(simd::Backend::kScalar);
  StreamingGraph reference(replay.base);
  for (const GraphDelta& delta : replay.deltas) {
    ASSERT_TRUE(reference.Apply(delta).ok());
  }

  for (const simd::Backend backend :
       {simd::Backend::kScalar, simd::Backend::kAvx2, simd::Backend::kNeon}) {
    if (!simd::BackendSupported(backend)) continue;
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string("backend=") + simd::BackendName(backend) +
                   " threads=" + std::to_string(threads));
      parallel::SetNumThreads(threads);
      simd::SetBackend(backend);
      StreamingGraph graph(replay.base);
      for (const GraphDelta& delta : replay.deltas) {
        ASSERT_TRUE(graph.Apply(delta).ok());
      }
      ExpectContextEq(reference.context(), graph.context());
    }
  }
}

TEST_F(StreamTest, ApplyRejectsTimeTravelAndBadDeltasUnchanged) {
  StreamSplitOptions options;
  options.edge_holdout = 0.05;
  const ReplayStream replay = SplitIntoStream(*full_, options, 7);

  StreamingGraph graph(replay.base);
  GraphDelta first;
  first.timestamp = 10;
  first.added_edges.push_back({0, 1});
  // {0, 1} may already exist; either way Apply must succeed (merge).
  ASSERT_TRUE(graph.Apply(first).ok());
  const SparseMatrix before = *graph.context().adj_norm;

  GraphDelta stale;
  stale.timestamp = 9;  // precedes last_timestamp()
  stale.added_edges.push_back({1, 2});
  EXPECT_FALSE(graph.Apply(stale).ok());

  GraphDelta invalid;
  invalid.timestamp = 11;
  invalid.added_edges.push_back({2, 2});  // self-loop
  EXPECT_FALSE(graph.Apply(invalid).ok());

  // Failed applies leave the stream untouched.
  EXPECT_EQ(graph.version(), 1);
  EXPECT_EQ(graph.last_timestamp(), 10);
  ExpectSparseEq(before, *graph.context().adj_norm);
}

TEST_F(StreamTest, EmptyDeltaIsByteForByteNoop) {
  StreamSplitOptions options;
  options.edge_holdout = 0.05;
  const ReplayStream replay = SplitIntoStream(*full_, options, 13);

  StreamingGraph graph(replay.base);
  const RddResult previous =
      TrainRdd(graph.dataset(), graph.context(), MakeRddConfig(), 3);

  GraphDelta empty;
  empty.timestamp = 1;
  const int64_t nodes_before = graph.dataset().NumNodes();
  ASSERT_TRUE(graph.Apply(empty).ok());
  const IncrementalResult out = IncrementalRddOnDelta(
      graph, empty, nodes_before, previous, MakeRddConfig(), MakeIncConfig(),
      99);
  EXPECT_TRUE(out.noop);
  EXPECT_EQ(out.affected_nodes, 0);
  EXPECT_EQ(out.target_nodes, 0);
  ExpectRddResultEq(out.result, previous);
  // The students themselves are the previous objects, not retrained copies.
  ASSERT_EQ(out.result.students.size(), previous.students.size());
  for (size_t t = 0; t < previous.students.size(); ++t) {
    EXPECT_EQ(out.result.students[t].get(), previous.students[t].get());
  }
}

TEST_F(StreamTest, IncrementalRetrainIsDeterministicAndAboveChance) {
  ThreadCountGuard thread_guard;
  BackendGuard backend_guard;

  StreamSplitOptions options;
  options.edge_holdout = 0.06;
  options.node_holdout = 0.03;
  const ReplayStream replay = SplitIntoStream(*full_, options, 31);
  ASSERT_EQ(replay.deltas.size(), 1u);

  parallel::SetNumThreads(1);
  simd::SetBackend(simd::Backend::kScalar);
  StreamingGraph graph(replay.base);
  const RddResult previous =
      TrainRdd(graph.dataset(), graph.context(), MakeRddConfig(), 3);
  const int64_t nodes_before = graph.dataset().NumNodes();
  ASSERT_TRUE(graph.Apply(replay.deltas[0]).ok());

  const IncrementalResult reference =
      IncrementalRddOnDelta(graph, replay.deltas[0], nodes_before, previous,
                            MakeRddConfig(), MakeIncConfig(), 7);
  EXPECT_FALSE(reference.noop);
  EXPECT_GT(reference.affected_nodes, 0);
  EXPECT_GT(reference.target_nodes, 0);
  EXPECT_LE(reference.target_nodes, reference.affected_nodes);
  // Far above the 1/num_classes = 0.2 chance floor on the NEW graph.
  EXPECT_GT(reference.result.ensemble_test_accuracy, 0.3);
  ASSERT_EQ(reference.result.alphas.size(), 2u);

  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    parallel::SetNumThreads(threads);
    const IncrementalResult repeat =
        IncrementalRddOnDelta(graph, replay.deltas[0], nodes_before, previous,
                              MakeRddConfig(), MakeIncConfig(), 7);
    ExpectRddResultEq(reference.result, repeat.result);
    EXPECT_EQ(reference.affected_nodes, repeat.affected_nodes);
    EXPECT_EQ(reference.target_nodes, repeat.target_nodes);
  }
}

TEST_F(StreamTest, IncrementalConfigFromEnvReadsKnobs) {
  // EnvVarGuard idiom from condense_test: save, mutate, restore.
  const char* saved_value = std::getenv("RDD_STREAM_HOPS");
  const bool had = saved_value != nullptr;
  const std::string saved = had ? saved_value : "";
  unsetenv("RDD_STREAM_HOPS");

  const IncrementalConfig defaults = stream::IncrementalConfigFromEnv();
  EXPECT_EQ(defaults.hops, 2);
  EXPECT_EQ(defaults.max_epochs, 10);
  EXPECT_FLOAT_EQ(defaults.frontier_boost, 2.0f);

  setenv("RDD_STREAM_HOPS", "3", 1);
  const IncrementalConfig parsed = stream::IncrementalConfigFromEnv();
  EXPECT_EQ(parsed.hops, 3);

  if (had) {
    setenv("RDD_STREAM_HOPS", saved.c_str(), 1);
  } else {
    unsetenv("RDD_STREAM_HOPS");
  }
}

}  // namespace
}  // namespace rdd
