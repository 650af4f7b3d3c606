#include "core/reliability.h"

#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/graph.h"
#include "tensor/ops.h"

namespace rdd {
namespace {

/// Builds a row-stochastic matrix where row i has probability `confidence`
/// on class `preds[i]` and the rest uniform.
Matrix MakeProbs(const std::vector<int64_t>& preds, int64_t k,
                 const std::vector<double>& confidence) {
  Matrix probs(static_cast<int64_t>(preds.size()), k);
  for (size_t i = 0; i < preds.size(); ++i) {
    const float rest =
        static_cast<float>((1.0 - confidence[i]) / static_cast<double>(k - 1));
    for (int64_t c = 0; c < k; ++c) {
      probs.At(static_cast<int64_t>(i), c) = rest;
    }
    probs.At(static_cast<int64_t>(i), preds[i]) =
        static_cast<float>(confidence[i]);
  }
  return probs;
}

/// The graph's canonical edge list as the (u, v) pairs Algorithm 2 filters
/// (what ViewEdges returns for a full-graph view).
std::vector<std::pair<int64_t, int64_t>> EdgePairs(const Graph& graph) {
  std::vector<std::pair<int64_t, int64_t>> pairs;
  for (const Edge& e : graph.edges()) pairs.emplace_back(e.u, e.v);
  return pairs;
}

TEST(PercentileTest, BasicThresholds) {
  std::vector<double> values = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(LowerPercentileThreshold(values, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(LowerPercentileThreshold(values, 40.0), 4.0);
  EXPECT_DOUBLE_EQ(LowerPercentileThreshold(values, 100.0), 10.0);
}

TEST(PercentileTest, UnsortedInput) {
  std::vector<double> values = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(LowerPercentileThreshold(values, 40.0), 2.0);
}

TEST(PercentileTest, ZeroPercentKeepsMinimum) {
  std::vector<double> values = {3, 1, 2};
  EXPECT_DOUBLE_EQ(LowerPercentileThreshold(values, 0.0), 1.0);
}

TEST(PercentileTest, SingleValue) {
  EXPECT_DOUBLE_EQ(LowerPercentileThreshold({7.0}, 50.0), 7.0);
}

class NodeReliabilityTest : public ::testing::Test {
 protected:
  // 8 nodes, 2 classes. Nodes 0, 1 are labeled.
  const std::vector<int64_t> labels_ = {0, 1, 0, 0, 1, 1, 0, 1};
  const std::vector<bool> train_mask_ = {true, true, false, false,
                                         false, false, false, false};
};

TEST_F(NodeReliabilityTest, CorrectLabeledNodesAreReliable) {
  // Teacher predicts everything correctly with high confidence.
  const Matrix teacher =
      MakeProbs(labels_, 2, std::vector<double>(8, 0.95));
  const Matrix student = teacher;
  NodeReliabilityConfig config;
  config.p_percent = 100.0;  // Entropy gate wide open.
  const NodeReliability rel =
      ComputeNodeReliability(teacher, student, labels_, train_mask_, config);
  EXPECT_TRUE(rel.reliable[0]);
  EXPECT_TRUE(rel.reliable[1]);
}

TEST_F(NodeReliabilityTest, MisclassifiedLabeledNodeIsUnreliable) {
  std::vector<int64_t> teacher_preds = labels_;
  teacher_preds[0] = 1;  // Teacher wrong on labeled node 0.
  const Matrix teacher =
      MakeProbs(teacher_preds, 2, std::vector<double>(8, 0.95));
  NodeReliabilityConfig config;
  config.p_percent = 100.0;
  const NodeReliability rel = ComputeNodeReliability(
      teacher, teacher, labels_, train_mask_, config);
  EXPECT_FALSE(rel.reliable[0]);
  EXPECT_TRUE(rel.reliable[1]);
}

TEST_F(NodeReliabilityTest, StudentRuleUsesStudentPrediction) {
  std::vector<int64_t> teacher_preds = labels_;
  teacher_preds[0] = 1;  // Teacher wrong on node 0.
  const Matrix teacher =
      MakeProbs(teacher_preds, 2, std::vector<double>(8, 0.95));
  const Matrix student =
      MakeProbs(labels_, 2, std::vector<double>(8, 0.95));  // Student right.
  NodeReliabilityConfig config;
  config.p_percent = 100.0;
  config.labeled_rule = LabeledReliabilityRule::kStudentCorrect;
  config.require_agreement = false;
  const NodeReliability rel =
      ComputeNodeReliability(teacher, student, labels_, train_mask_, config);
  EXPECT_TRUE(rel.reliable[0]);
}

TEST_F(NodeReliabilityTest, LowEntropyUnlabeledNodesAreReliable) {
  // Unlabeled nodes 2, 3 confident; 4..7 uncertain.
  std::vector<double> confidence = {0.99, 0.99, 0.99, 0.99,
                                    0.55, 0.55, 0.55, 0.55};
  const Matrix teacher = MakeProbs(labels_, 2, confidence);
  NodeReliabilityConfig config;
  config.p_percent = 50.0;
  const NodeReliability rel = ComputeNodeReliability(
      teacher, teacher, labels_, train_mask_, config);
  EXPECT_TRUE(rel.reliable[2]);
  EXPECT_TRUE(rel.reliable[3]);
  EXPECT_FALSE(rel.reliable[4]);
  EXPECT_FALSE(rel.reliable[7]);
}

TEST_F(NodeReliabilityTest, AgreementFilterRemovesDisagreements) {
  const Matrix teacher =
      MakeProbs(labels_, 2, std::vector<double>(8, 0.95));
  std::vector<int64_t> student_preds = labels_;
  student_preds[2] = 1 - student_preds[2];  // Student disagrees on node 2.
  const Matrix student =
      MakeProbs(student_preds, 2, std::vector<double>(8, 0.95));
  NodeReliabilityConfig config;
  config.p_percent = 100.0;
  config.require_agreement = true;
  const NodeReliability rel =
      ComputeNodeReliability(teacher, student, labels_, train_mask_, config);
  EXPECT_FALSE(rel.reliable[2]);
  EXPECT_TRUE(rel.reliable[3]);
  // Without the filter the node is reliable again.
  config.require_agreement = false;
  const NodeReliability rel2 =
      ComputeNodeReliability(teacher, student, labels_, train_mask_, config);
  EXPECT_TRUE(rel2.reliable[2]);
}

TEST_F(NodeReliabilityTest, DistillRuleUncertainOnly) {
  // All teacher-reliable; student confidences strictly increasing in
  // entropy from node 0 to node 7, so percentile ties cannot occur.
  std::vector<double> student_conf = {0.99, 0.98, 0.97, 0.96,
                                      0.58, 0.57, 0.56, 0.55};
  const Matrix teacher =
      MakeProbs(labels_, 2, std::vector<double>(8, 0.95));
  const Matrix student = MakeProbs(labels_, 2, student_conf);
  NodeReliabilityConfig config;
  config.p_percent = 50.0;
  config.distill_rule = DistillTargetRule::kUncertainOnly;
  const NodeReliability rel =
      ComputeNodeReliability(teacher, student, labels_, train_mask_, config);
  // Distill targets must be reliable AND in the student's top-50% entropy
  // band; the inclusive threshold sits at the 4th lowest entropy (node 3).
  EXPECT_FALSE(rel.distill_nodes.empty());
  for (int64_t v : rel.distill_nodes) {
    EXPECT_TRUE(rel.reliable[static_cast<size_t>(v)]);
    EXPECT_GE(v, 3);
  }
  // The clearly-confident nodes are never distill targets.
  for (int64_t v : rel.distill_nodes) EXPECT_NE(v, 0);
}

TEST_F(NodeReliabilityTest, DistillRuleDisagreeOrUncertain) {
  const Matrix teacher =
      MakeProbs(labels_, 2, std::vector<double>(8, 0.95));
  std::vector<int64_t> student_preds = labels_;
  student_preds[3] = 1 - student_preds[3];  // Confident disagreement.
  const Matrix student =
      MakeProbs(student_preds, 2, std::vector<double>(8, 0.95));
  NodeReliabilityConfig config;
  config.p_percent = 100.0;
  config.distill_rule = DistillTargetRule::kDisagreeOrUncertain;
  const NodeReliability rel =
      ComputeNodeReliability(teacher, student, labels_, train_mask_, config);
  // Node 3 disagrees -> distill target even though the student is sure.
  EXPECT_NE(std::find(rel.distill_nodes.begin(), rel.distill_nodes.end(), 3),
            rel.distill_nodes.end());
}

TEST_F(NodeReliabilityTest, DistillRuleAllReliable) {
  const Matrix teacher =
      MakeProbs(labels_, 2, std::vector<double>(8, 0.95));
  NodeReliabilityConfig config;
  config.p_percent = 100.0;
  config.distill_rule = DistillTargetRule::kAllReliable;
  const NodeReliability rel = ComputeNodeReliability(
      teacher, teacher, labels_, train_mask_, config);
  EXPECT_EQ(rel.distill_nodes.size(), 8u);
}

TEST_F(NodeReliabilityTest, EntropiesExposedForDiagnostics) {
  const Matrix teacher =
      MakeProbs(labels_, 2, {0.99, 0.99, 0.9, 0.9, 0.6, 0.6, 0.51, 0.51});
  const NodeReliability rel = ComputeNodeReliability(
      teacher, teacher, labels_, train_mask_, NodeReliabilityConfig{});
  EXPECT_EQ(rel.teacher_entropy.size(), 8u);
  EXPECT_LT(rel.teacher_entropy[0], rel.teacher_entropy[4]);
  EXPECT_LT(rel.teacher_entropy[4], rel.teacher_entropy[6]);
}

TEST(EdgeReliabilityTest, RequiresBothEndpointsReliableAndAgreeing) {
  // Path 0-1-2-3.
  const Graph g = MakePathGraph(4);
  const std::vector<bool> reliable = {true, true, true, false};
  const std::vector<int64_t> preds = {0, 0, 1, 1};
  const auto edges = ComputeReliableEdges(EdgePairs(g), reliable, preds);
  // Edge (0,1): both reliable, same class -> kept.
  // Edge (1,2): classes differ -> dropped.
  // Edge (2,3): node 3 unreliable -> dropped.
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].first, 0);
  EXPECT_EQ(edges[0].second, 1);
}

TEST(EdgeReliabilityTest, AllReliableSameClassKeepsAll) {
  const Graph g = MakeCompleteGraph(4);
  const auto edges = ComputeReliableEdges(
      EdgePairs(g), std::vector<bool>(4, true), std::vector<int64_t>(4, 2));
  EXPECT_EQ(static_cast<int64_t>(edges.size()), g.num_edges());
}

TEST(EdgeReliabilityTest, NoneReliableKeepsNone) {
  const Graph g = MakeCompleteGraph(4);
  const auto edges = ComputeReliableEdges(
      EdgePairs(g), std::vector<bool>(4, false), std::vector<int64_t>(4, 0));
  EXPECT_TRUE(edges.empty());
}

}  // namespace
}  // namespace rdd
