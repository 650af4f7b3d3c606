// Tests for the GraphView abstraction: the identity full view must alias
// the context's matrices (so the full-batch path is bit-identical to the
// pre-view code), and induced views must renormalize adjacency on induced
// degrees following the Cluster-GCN convention.

#include "graph/graph_view.h"

#include <gtest/gtest.h>

#include "data/citation_gen.h"
#include "graph/generators.h"
#include "models/graph_model.h"
#include "tensor/sparse.h"

namespace rdd {
namespace {

/// Bit-exact CSR equality: same shape, same structure, same values.
void ExpectSparseEq(const SparseMatrix& a, const SparseMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_EQ(a.row_ptr(), b.row_ptr());
  ASSERT_EQ(a.col_idx(), b.col_idx());
  ASSERT_EQ(a.values(), b.values());
}

SparseMatrix IdentityFeatures(int64_t n) {
  std::vector<SparseEntry> entries;
  for (int64_t i = 0; i < n; ++i) entries.push_back({i, i, 1.0f});
  return SparseMatrix::FromCoo(n, n, std::move(entries));
}

TEST(GraphViewTest, FullViewAliasesContextMatrices) {
  const Dataset dataset = GenerateCitationNetwork(CoraLikeConfig(), 3);
  const GraphContext context = GraphContext::FromDataset(dataset);
  const GraphView view = context.FullView();
  EXPECT_TRUE(view.full());
  // Aliasing (not copies) is what makes the full-batch path bit-identical:
  // models read the exact same buffers the pre-view code read.
  EXPECT_EQ(view.features.get(), context.features.get());
  EXPECT_EQ(view.adj_norm.get(), context.adj_norm.get());
  EXPECT_EQ(view.adj_row.get(), context.adj_row.get());
  EXPECT_EQ(view.num_nodes, dataset.NumNodes());
  EXPECT_EQ(view.num_targets, dataset.NumNodes());
  EXPECT_EQ(view.num_classes, dataset.num_classes);
  EXPECT_EQ(view.GlobalId(0), 0);
  EXPECT_EQ(view.GlobalId(view.num_nodes - 1), view.num_nodes - 1);
}

TEST(GraphViewTest, InducedViewOverAllNodesMatchesFullNormalization) {
  const Dataset dataset = GenerateCitationNetwork(CiteseerLikeConfig(), 5);
  const GraphContext context = GraphContext::FromDataset(dataset);
  std::vector<int64_t> all(static_cast<size_t>(dataset.NumNodes()));
  for (int64_t i = 0; i < dataset.NumNodes(); ++i) {
    all[static_cast<size_t>(i)] = i;
  }
  const GraphView view =
      MakeInducedView(dataset.graph, dataset.features, dataset.num_classes,
                      all, dataset.NumNodes());
  // Every edge is induced, so degrees — and both normalizations — must be
  // bit-identical to the full-graph matrices.
  ExpectSparseEq(*view.adj_norm, *context.adj_norm);
  ExpectSparseEq(*view.adj_row, *context.adj_row);
  ExpectSparseEq(*view.features, *context.features);
}

TEST(GraphViewTest, InducedSubsetRenormalizesOnInducedDegrees) {
  // Path 0-1-2, view over {0, 1}: the 1-2 edge is dropped, so both kept
  // nodes have induced degree 2 (one kept neighbor + self loop).
  const Graph graph = MakePathGraph(3);
  const SparseMatrix features = IdentityFeatures(3);
  const GraphView view = MakeInducedView(graph, features, 2, {0, 1}, 2);
  EXPECT_EQ(view.num_nodes, 2);
  EXPECT_EQ(view.num_targets, 2);
  // D^-1/2 (A+I) D^-1/2 with d0 = d1 = 2: every entry is 1/2.
  EXPECT_FLOAT_EQ(view.adj_norm->At(0, 0), 0.5f);
  EXPECT_FLOAT_EQ(view.adj_norm->At(0, 1), 0.5f);
  EXPECT_FLOAT_EQ(view.adj_norm->At(1, 0), 0.5f);
  EXPECT_FLOAT_EQ(view.adj_norm->At(1, 1), 0.5f);
  // Row normalization D^-1 (A+I): also 1/2 everywhere here.
  EXPECT_FLOAT_EQ(view.adj_row->At(0, 0), 0.5f);
  EXPECT_FLOAT_EQ(view.adj_row->At(1, 0), 0.5f);
  // Features are row-sliced in view order.
  EXPECT_FLOAT_EQ(view.features->At(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(view.features->At(1, 1), 1.0f);
  EXPECT_EQ(view.features->cols(), 3);
}

TEST(GraphViewTest, FrontierRowsFollowTargetRows) {
  // Star graph centered at 0; targets {3, 1} then frontier node 0.
  const Graph graph = MakeStarGraph(4);
  const GraphView view =
      MakeInducedView(graph, IdentityFeatures(4), 2, {3, 1, 0}, 2);
  EXPECT_FALSE(view.full());
  EXPECT_EQ(view.num_targets, 2);
  EXPECT_EQ(view.GlobalId(0), 3);  // Targets keep caller order.
  EXPECT_EQ(view.GlobalId(1), 1);
  EXPECT_EQ(view.GlobalId(2), 0);
  const std::vector<int64_t> targets = view.TargetIndices();
  ASSERT_EQ(targets.size(), 2u);
  EXPECT_EQ(targets[0], 0);
  EXPECT_EQ(targets[1], 1);
}

TEST(GraphViewTest, GatherHelpersMapGlobalToViewOrder) {
  const Graph graph = MakePathGraph(4);
  const GraphView view =
      MakeInducedView(graph, IdentityFeatures(4), 2, {2, 0}, 2);
  const std::vector<int64_t> labels = {10, 11, 12, 13};
  const std::vector<int64_t> gathered = view.GatherInt64(labels);
  ASSERT_EQ(gathered.size(), 2u);
  EXPECT_EQ(gathered[0], 12);
  EXPECT_EQ(gathered[1], 10);
  const std::vector<bool> mask = {true, false, false, true};
  const std::vector<bool> gathered_mask = view.GatherMask(mask);
  ASSERT_EQ(gathered_mask.size(), 2u);
  EXPECT_FALSE(gathered_mask[0]);
  EXPECT_TRUE(gathered_mask[1]);
}

TEST(GraphViewTest, ViewEdgesListsEachInducedEdgeOnce) {
  // Cycle 0-1-2-3-0, view over {0, 1, 2}: induced edges 0-1 and 1-2
  // (3 is absent, so 2-3 and 3-0 drop out); self loops never appear.
  const Graph graph = MakeCycleGraph(4);
  const GraphView view =
      MakeInducedView(graph, IdentityFeatures(4), 2, {0, 1, 2}, 3);
  const std::vector<std::pair<int64_t, int64_t>> edges = ViewEdges(view);
  ASSERT_EQ(edges.size(), 2u);
  for (const auto& [u, v] : edges) {
    EXPECT_LT(u, v);
    EXPECT_LT(v, view.num_nodes);
  }
  EXPECT_EQ(edges[0], (std::pair<int64_t, int64_t>{0, 1}));
  EXPECT_EQ(edges[1], (std::pair<int64_t, int64_t>{1, 2}));
}

TEST(GraphViewTest, FullViewEdgesAreTheGraphsCanonicalEdgeList) {
  // The RDD student chain reads Algorithm 2's edge set from ViewEdges on
  // every view, the full one included, so on the full view it must be
  // Graph::edges() exactly: same pairs, same (row-sorted) order.
  const Dataset dataset = GenerateCitationNetwork(CoraLikeConfig(), 3);
  const GraphContext context = GraphContext::FromDataset(dataset);
  const std::vector<std::pair<int64_t, int64_t>> edges =
      ViewEdges(context.FullView());
  ASSERT_EQ(static_cast<int64_t>(edges.size()), dataset.graph.num_edges());
  for (size_t i = 0; i < edges.size(); ++i) {
    ASSERT_EQ(edges[i].first, dataset.graph.edges()[i].u) << "edge " << i;
    ASSERT_EQ(edges[i].second, dataset.graph.edges()[i].v) << "edge " << i;
  }
}

}  // namespace
}  // namespace rdd
