#include <gtest/gtest.h>

#include "data/dataset.h"
#include "synth/covtype_like.h"
#include "synth/presets.h"
#include "tree/builder.h"
#include "tree/compare.h"
#include "tree/decision_tree.h"

namespace popp {
namespace {

Dataset XorLikeData() {
  // Needs both attributes: class = (x > 5) XOR (y > 5).
  Dataset d({"x", "y"}, {"n", "p"});
  d.AddRow({2, 2}, 0);
  d.AddRow({3, 8}, 1);
  d.AddRow({8, 3}, 1);
  d.AddRow({9, 9}, 0);
  d.AddRow({1, 1}, 0);
  d.AddRow({2, 9}, 1);
  d.AddRow({9, 2}, 1);
  d.AddRow({8, 8}, 0);
  return d;
}

// ------------------------------------------------------- tree structure --

TEST(DecisionTreeTest, SingleLeaf) {
  DecisionTree t;
  const NodeId leaf = t.AddLeaf(1, {0, 3});
  t.SetRoot(leaf);
  EXPECT_EQ(t.NumNodes(), 1u);
  EXPECT_EQ(t.NumLeaves(), 1u);
  EXPECT_EQ(t.NumInternal(), 0u);
  EXPECT_EQ(t.Depth(), 0u);
  EXPECT_EQ(t.Predict({42.0}), 1);
}

TEST(DecisionTreeTest, ManualTwoLevelTree) {
  DecisionTree t;
  const NodeId l = t.AddLeaf(0);
  const NodeId r = t.AddLeaf(1);
  const NodeId root = t.AddInternal(0, 5.0, l, r);
  t.SetRoot(root);
  EXPECT_EQ(t.Depth(), 1u);
  EXPECT_EQ(t.NumLeaves(), 2u);
  EXPECT_EQ(t.Predict({4.0}), 0);
  EXPECT_EQ(t.Predict({5.0}), 0);  // <= goes left
  EXPECT_EQ(t.Predict({6.0}), 1);
}

TEST(DecisionTreeTest, PathsEnumeration) {
  DecisionTree t;
  const NodeId ll = t.AddLeaf(0);
  const NodeId lr = t.AddLeaf(1);
  const NodeId l = t.AddInternal(1, 2.0, ll, lr);
  const NodeId r = t.AddLeaf(2);
  t.SetRoot(t.AddInternal(0, 5.0, l, r));
  const auto paths = t.Paths();
  ASSERT_EQ(paths.size(), 3u);
  // Left-left path: x <= 5 AND y <= 2 -> class 0.
  EXPECT_EQ(paths[0].length(), 2u);
  EXPECT_EQ(paths[0].conditions[0].op, PathCondition::Op::kLe);
  EXPECT_EQ(paths[0].conditions[1].attribute, 1u);
  EXPECT_EQ(paths[0].leaf_label, 0);
  // Left-right: x <= 5 AND y > 2 -> class 1.
  EXPECT_EQ(paths[1].conditions[1].op, PathCondition::Op::kGt);
  EXPECT_EQ(paths[1].leaf_label, 1);
  // Right: x > 5 -> class 2.
  EXPECT_EQ(paths[2].length(), 1u);
  EXPECT_EQ(paths[2].conditions[0].op, PathCondition::Op::kGt);
  EXPECT_EQ(paths[2].leaf_label, 2);
}

TEST(DecisionTreeTest, EmptyTreeBasics) {
  DecisionTree t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.Depth(), 0u);
  EXPECT_TRUE(t.Paths().empty());
}

TEST(DecisionTreeTest, ToTextMentionsNamesAndThresholds) {
  const Dataset d = MakeFigure1Dataset();
  const DecisionTree t = DecisionTreeBuilder().Build(d);
  const std::string text = t.ToText(d.schema());
  EXPECT_NE(text.find("age"), std::string::npos);
  EXPECT_NE(text.find("High"), std::string::npos);
}

// ---------------------------------------------------------- tree builder --

TEST(BuilderTest, PureDataYieldsLeaf) {
  Dataset d({"x"}, {"a", "b"});
  d.AddRow({1}, 0);
  d.AddRow({2}, 0);
  const DecisionTree t = DecisionTreeBuilder().Build(d);
  EXPECT_EQ(t.NumNodes(), 1u);
  EXPECT_EQ(t.node(t.root()).label, 0);
}

TEST(BuilderTest, PerfectlySeparableSingleSplit) {
  Dataset d({"x"}, {"a", "b"});
  d.AddRow({1}, 0);
  d.AddRow({2}, 0);
  d.AddRow({10}, 1);
  d.AddRow({11}, 1);
  const DecisionTree t = DecisionTreeBuilder().Build(d);
  EXPECT_EQ(t.NumLeaves(), 2u);
  const auto& root = t.node(t.root());
  ASSERT_FALSE(root.is_leaf);
  EXPECT_EQ(root.attribute, 0u);
  EXPECT_DOUBLE_EQ(root.threshold, 6.0);  // midpoint of 2 and 10
  EXPECT_DOUBLE_EQ(t.Accuracy(d), 1.0);
}

TEST(BuilderTest, Figure1TreeShape) {
  const Dataset d = MakeFigure1Dataset();
  const DecisionTree t = DecisionTreeBuilder().Build(d);
  // Root splits age at (23+32)/2 = 27.5 (paper Figure 1d), then salary.
  const auto& root = t.node(t.root());
  ASSERT_FALSE(root.is_leaf);
  EXPECT_EQ(root.attribute, 0u);
  EXPECT_DOUBLE_EQ(root.threshold, 27.5);
  EXPECT_DOUBLE_EQ(t.Accuracy(d), 1.0);
}

TEST(BuilderTest, XorNeedsBothAttributes) {
  const Dataset d = XorLikeData();
  const DecisionTree t = DecisionTreeBuilder().Build(d);
  EXPECT_DOUBLE_EQ(t.Accuracy(d), 1.0);
  EXPECT_GE(t.Depth(), 2u);
}

TEST(BuilderTest, MaxDepthZeroForcesLeaf) {
  BuildOptions options;
  options.max_depth = 0;
  const Dataset d = XorLikeData();
  const DecisionTree t = DecisionTreeBuilder(options).Build(d);
  EXPECT_EQ(t.NumNodes(), 1u);
}

TEST(BuilderTest, MinSplitSizeStopsGrowth) {
  BuildOptions options;
  options.min_split_size = 100;
  const Dataset d = XorLikeData();
  const DecisionTree t = DecisionTreeBuilder(options).Build(d);
  EXPECT_EQ(t.NumNodes(), 1u);
}

TEST(BuilderTest, MinLeafSizeRespected) {
  BuildOptions options;
  options.min_leaf_size = 2;
  const Dataset d = XorLikeData();
  const DecisionTree t = DecisionTreeBuilder(options).Build(d);
  for (const auto& path : t.Paths()) {
    uint64_t total = 0;
    for (uint64_t c : t.node(path.leaf).class_hist) total += c;
    EXPECT_GE(total, 2u);
  }
}

TEST(BuilderTest, MajorityLabelAtForcedLeaf) {
  BuildOptions options;
  options.max_depth = 0;
  Dataset d({"x"}, {"a", "b"});
  d.AddRow({1}, 1);
  d.AddRow({2}, 1);
  d.AddRow({3}, 0);
  const DecisionTree t = DecisionTreeBuilder(options).Build(d);
  EXPECT_EQ(t.node(t.root()).label, 1);
}

TEST(BuilderTest, MajorityTieBreaksToSmallestClassId) {
  EXPECT_EQ(MajorityClass({3, 3}), 0);
  EXPECT_EQ(MajorityClass({0, 2, 2}), 1);
  EXPECT_EQ(MajorityClass({}), kNoClass);
}

TEST(BuilderTest, GiniAndEntropyBothSeparate) {
  const Dataset d = XorLikeData();
  for (auto criterion : {SplitCriterion::kGini, SplitCriterion::kEntropy}) {
    BuildOptions options;
    options.criterion = criterion;
    const DecisionTree t = DecisionTreeBuilder(options).Build(d);
    EXPECT_DOUBLE_EQ(t.Accuracy(d), 1.0) << ToString(criterion);
  }
}

TEST(BuilderTest, CandidateModesAgree) {
  // Lemma 2: restricting the search to label-run boundaries must not
  // change the tree.
  Rng rng(5);
  const Dataset d = GenerateCovtypeLike(SmallCovtypeSpec(1500), rng);
  BuildOptions all;
  all.candidate_mode = BuildOptions::CandidateMode::kAllBoundaries;
  BuildOptions runs;
  runs.candidate_mode = BuildOptions::CandidateMode::kRunBoundaries;
  const DecisionTree ta = DecisionTreeBuilder(all).Build(d);
  const DecisionTree tr = DecisionTreeBuilder(runs).Build(d);
  EXPECT_TRUE(ExactlyEqual(ta, tr)) << DescribeDifference(ta, tr);
}

TEST(BuilderTest, FindBestSplitReportsBoundary) {
  Dataset d({"x"}, {"a", "b"});
  d.AddRow({1}, 0);
  d.AddRow({3}, 0);
  d.AddRow({7}, 1);
  const DecisionTreeBuilder builder;
  const SplitDecision split = builder.FindBestSplit(d, {0, 1, 2});
  ASSERT_TRUE(split.found);
  EXPECT_EQ(split.attribute, 0u);
  EXPECT_EQ(split.boundary_index, 2u);
  EXPECT_DOUBLE_EQ(split.left_max, 3.0);
  EXPECT_DOUBLE_EQ(split.right_min, 7.0);
  EXPECT_DOUBLE_EQ(split.threshold, 5.0);
  EXPECT_DOUBLE_EQ(split.impurity, 0.0);
}

TEST(BuilderTest, FindBestSplitNoneOnConstantAttribute) {
  Dataset d({"x"}, {"a", "b"});
  d.AddRow({4}, 0);
  d.AddRow({4}, 1);
  const SplitDecision split =
      DecisionTreeBuilder().FindBestSplit(d, {0, 1});
  EXPECT_FALSE(split.found);
}

TEST(BuilderTest, AllAlgorithmsAgreeBitForBit) {
  for (uint64_t seed : {1u, 5u, 9u}) {
    Rng rng(seed);
    const Dataset d = GenerateCovtypeLike(SmallCovtypeSpec(1200), rng);
    for (auto criterion : {SplitCriterion::kGini, SplitCriterion::kEntropy,
                           SplitCriterion::kGainRatio}) {
      BuildOptions resort;
      resort.algorithm = BuildOptions::Algorithm::kResort;
      resort.criterion = criterion;
      const DecisionTree a = DecisionTreeBuilder(resort).Build(d);
      BuildOptions frontier = resort;
      frontier.algorithm = BuildOptions::Algorithm::kFrontier;
      const DecisionTree b = DecisionTreeBuilder(frontier).Build(d);
      EXPECT_TRUE(ExactlyEqual(a, b))
          << ToString(criterion) << " seed " << seed << ": "
          << DescribeDifference(a, b);
    }
  }
}

TEST(BuilderTest, AlgorithmsAgreeUnderDepthAndLeafLimits) {
  Rng rng(13);
  const Dataset d = GenerateCovtypeLike(SmallCovtypeSpec(1000), rng);
  BuildOptions resort;
  resort.algorithm = BuildOptions::Algorithm::kResort;
  resort.max_depth = 5;
  resort.min_leaf_size = 4;
  resort.min_split_size = 10;
  const DecisionTree reference = DecisionTreeBuilder(resort).Build(d);
  BuildOptions frontier = resort;
  frontier.algorithm = BuildOptions::Algorithm::kFrontier;
  EXPECT_TRUE(ExactlyEqual(reference, DecisionTreeBuilder(frontier).Build(d)));
}

TEST(BuilderTest, DeterministicAcrossCalls) {
  Rng rng(9);
  const Dataset d = GenerateCovtypeLike(SmallCovtypeSpec(1000), rng);
  const DecisionTree a = DecisionTreeBuilder().Build(d);
  const DecisionTree b = DecisionTreeBuilder().Build(d);
  EXPECT_TRUE(ExactlyEqual(a, b));
}

TEST(BuilderTest, AccuracyHighOnStructuredData) {
  Rng rng(11);
  const Dataset d = GenerateCovtypeLike(SmallCovtypeSpec(2000), rng);
  const DecisionTree t = DecisionTreeBuilder().Build(d);
  // Mono pieces make a large share of values perfectly predictable.
  EXPECT_GT(t.Accuracy(d), 0.6);
}

// --------------------------------------------------------------- compare --

TEST(CompareTest, ExactEqualityDetectsThresholdChange) {
  const Dataset d = MakeFigure1Dataset();
  DecisionTree a = DecisionTreeBuilder().Build(d);
  DecisionTree b = DecisionTreeBuilder().Build(d);
  EXPECT_TRUE(ExactlyEqual(a, b));
  EXPECT_EQ(DescribeDifference(a, b), "");
  b.mutable_node(b.root()).threshold += 0.25;
  EXPECT_FALSE(ExactlyEqual(a, b));
  EXPECT_TRUE(StructurallyIdentical(a, b));
  EXPECT_NE(DescribeDifference(a, b).find("threshold"), std::string::npos);
}

TEST(CompareTest, StructuralDetectsLabelChange) {
  const Dataset d = MakeFigure1Dataset();
  DecisionTree a = DecisionTreeBuilder().Build(d);
  DecisionTree b = DecisionTreeBuilder().Build(d);
  // Flip the first leaf's label.
  for (size_t i = 0; i < b.NumNodes(); ++i) {
    auto& node = b.mutable_node(static_cast<NodeId>(i));
    if (node.is_leaf) {
      node.label = node.label == 0 ? 1 : 0;
      break;
    }
  }
  EXPECT_FALSE(StructurallyIdentical(a, b));
}

TEST(CompareTest, PartitionIdenticalToleratesThresholdJitter) {
  const Dataset d = MakeFigure1Dataset();
  DecisionTree a = DecisionTreeBuilder().Build(d);
  DecisionTree b = DecisionTreeBuilder().Build(d);
  // Nudge the root threshold within its inter-value gap (23, 32): still
  // the same partition of D.
  b.mutable_node(b.root()).threshold = 24.0;
  EXPECT_FALSE(ExactlyEqual(a, b));
  EXPECT_TRUE(PartitionIdenticalOn(a, b, d));
  // Push it past value 32: now the partition differs.
  b.mutable_node(b.root()).threshold = 33.0;
  EXPECT_FALSE(PartitionIdenticalOn(a, b, d));
}

TEST(CompareTest, CanonicalizeRestoresMidpoints) {
  const Dataset d = MakeFigure1Dataset();
  DecisionTree a = DecisionTreeBuilder().Build(d);
  DecisionTree b = DecisionTreeBuilder().Build(d);
  b.mutable_node(b.root()).threshold = 28.9;  // still within (23, 32)
  CanonicalizeThresholds(b, d);
  EXPECT_TRUE(ExactlyEqual(a, b)) << DescribeDifference(a, b);
}

TEST(CompareTest, EmptyTrees) {
  DecisionTree a, b;
  EXPECT_TRUE(ExactlyEqual(a, b));
  EXPECT_TRUE(StructurallyIdentical(a, b));
  DecisionTree c;
  c.SetRoot(c.AddLeaf(0));
  EXPECT_FALSE(ExactlyEqual(a, c));
}

}  // namespace
}  // namespace popp
