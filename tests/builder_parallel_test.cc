#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "data/dataset.h"
#include "parallel/exec_policy.h"
#include "synth/covtype_like.h"
#include "synth/presets.h"
#include "tree/builder.h"
#include "tree/compare.h"
#include "tree/serialize.h"
#include "util/rng.h"

/// \file
/// The frontier builder's serial == parallel contract, stress-tested where
/// it is easiest to break: inputs whose split searches are wall-to-wall
/// exact ties. A scheduling-order dependence anywhere in the (node ×
/// attribute) fan-out — a merge that prefers whichever attribute finished
/// first, a repartition that drifts from stability, a histogram that
/// accumulates in claim order — shows up here as a byte difference in the
/// serialized tree. Every assertion compares full SerializeTree bytes, not
/// just structure, at thread counts chosen to cover the inline path (1),
/// even/odd worker splits (2, 3), more workers than attributes (7) and the
/// acceptance bar's count (8).

namespace popp {
namespace {

constexpr size_t kThreadCounts[] = {1, 2, 3, 7, 8};

/// Serializes the tree the builder produces serially (ExecPolicy default).
std::string SerialTreeBytes(const Dataset& d, const BuildOptions& options) {
  return SerializeTree(DecisionTreeBuilder(options).Build(d));
}

/// Asserts byte-identical serialized trees at every thread count.
void ExpectParallelMatchesSerial(const Dataset& d,
                                 const BuildOptions& options,
                                 const std::string& what) {
  const std::string serial = SerialTreeBytes(d, options);
  for (size_t threads : kThreadCounts) {
    const DecisionTree parallel =
        DecisionTreeBuilder(options, ExecPolicy{threads}).Build(d);
    EXPECT_EQ(SerializeTree(parallel), serial)
        << what << ": tree bytes differ at " << threads << " threads";
  }
}

// ---------------------------------------------------------------------------
// All-tied gain columns: every attribute is a copy (or mirror) of the same
// column, so every cross-attribute comparison is an exact tie and the
// attribute-order merge alone decides the split.

TEST(BuilderParallel, IdenticalColumnsAllTieEverywhere) {
  Dataset d({"x", "x_copy1", "x_copy2", "x_copy3"}, {"a", "b"});
  const int values[] = {1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6};
  for (int i = 0; i < 12; ++i) {
    const double v = values[i];
    d.AddRow({v, v, v, v}, i % 2);
  }
  ExpectParallelMatchesSerial(d, BuildOptions{}, "identical columns");
}

TEST(BuilderParallel, PalindromicClassStructureTiesBothEnds) {
  // Classes a,b,b,...,b,a over each attribute: isolating either outer 'a'
  // scores identically; the canonical-position tie-break must resolve the
  // same way regardless of scheduling.
  for (auto criterion : {SplitCriterion::kGini, SplitCriterion::kEntropy}) {
    Dataset d({"x", "y"}, {"a", "b"});
    for (int i = 0; i < 10; ++i) {
      const ClassId c = (i == 0 || i == 9) ? 0 : 1;
      d.AddRow({static_cast<double>(i), static_cast<double>(9 - i)}, c);
    }
    BuildOptions options;
    options.criterion = criterion;
    ExpectParallelMatchesSerial(d, options, ToString(criterion));
  }
}

// ---------------------------------------------------------------------------
// Degenerate attributes and nodes.

TEST(BuilderParallel, ConstantAttributesNeverSplit) {
  // Attributes 1 and 3 are constant: their scans find nothing, and the
  // merge must not let an empty local decision displace a real one.
  Dataset d({"x", "const1", "y", "const2"}, {"a", "b", "c"});
  Rng rng(7);
  for (int i = 0; i < 60; ++i) {
    d.AddRow({static_cast<double>(rng.UniformInt(0, 5)), 42.0,
              static_cast<double>(rng.UniformInt(0, 3)), -1.0},
             static_cast<ClassId>(rng.UniformInt(0, 2)));
  }
  ExpectParallelMatchesSerial(d, BuildOptions{}, "constant attributes");
}

TEST(BuilderParallel, SingleClassNodesLeafImmediately) {
  Dataset d({"x", "y"}, {"only"});
  Rng rng(11);
  for (int i = 0; i < 40; ++i) {
    d.AddRow({static_cast<double>(rng.UniformInt(0, 9)),
              static_cast<double>(rng.UniformInt(0, 9))},
             0);
  }
  ExpectParallelMatchesSerial(d, BuildOptions{}, "single class");
  // A two-class dataset that purifies after one split exercises the
  // pure-node gate mid-frontier rather than at the root.
  Dataset split({"x"}, {"a", "b"});
  for (int i = 0; i < 20; ++i) {
    split.AddRow({static_cast<double>(i)}, i < 10 ? 0 : 1);
  }
  ExpectParallelMatchesSerial(split, BuildOptions{}, "purifying split");
}

// ---------------------------------------------------------------------------
// min_leaf_size boundaries: the feasibility filter interacts with the
// candidate mode — interior-of-run fallbacks only exist under
// kAllBoundaries — and each (mode, criterion, leaf size) combination must
// stay scheduling-independent.

TEST(BuilderParallel, MinLeafSizeBoundarySweep) {
  Dataset d({"x", "y"}, {"a", "b"});
  const int xs[] = {1, 1, 1, 2, 2, 3, 3, 3, 4, 4, 5, 5};
  const int cs[] = {0, 0, 0, 1, 1, 0, 0, 0, 1, 1, 0, 0};
  for (int i = 0; i < 12; ++i) {
    d.AddRow({static_cast<double>(xs[i]), static_cast<double>(12 - i)},
             cs[i]);
  }
  for (auto mode : {BuildOptions::CandidateMode::kRunBoundaries,
                    BuildOptions::CandidateMode::kAllBoundaries}) {
    for (auto criterion :
         {SplitCriterion::kGini, SplitCriterion::kEntropy}) {
      for (size_t min_leaf : {size_t{1}, size_t{2}, size_t{3}, size_t{4}}) {
        BuildOptions options;
        options.candidate_mode = mode;
        options.criterion = criterion;
        options.min_leaf_size = min_leaf;
        ExpectParallelMatchesSerial(
            d, options,
            std::string(ToString(criterion)) + " min_leaf " +
                std::to_string(min_leaf));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// F_bi multiplicity permutations: a bijective release piece may permute
// how many tuples carry each value *within* a monochromatic run without
// moving the run's boundaries. Every variant must be serial == parallel,
// and — because run-boundary splits only read whole-run aggregates — the
// variants must agree with each other structurally.

TEST(BuilderParallel, FbiMultiplicityPermutationsAreStable) {
  // Three monochromatic runs over values {1..9}; `counts` permutes the
  // per-value multiplicities within each run across variants.
  const int multiplicities[][9] = {
      {3, 1, 2, 2, 2, 2, 1, 3, 2},  // base
      {1, 2, 3, 2, 2, 2, 3, 2, 1},  // permuted within each run
      {2, 3, 1, 2, 2, 2, 2, 1, 3},  // another permutation
  };
  const ClassId run_class[] = {0, 0, 0, 1, 1, 1, 0, 0, 0};
  BuildOptions options;
  options.candidate_mode = BuildOptions::CandidateMode::kRunBoundaries;
  options.min_leaf_size = 1;
  std::vector<DecisionTree> variants;
  for (const auto& counts : multiplicities) {
    Dataset d({"x"}, {"a", "b"});
    for (int v = 0; v < 9; ++v) {
      for (int k = 0; k < counts[v]; ++k) {
        d.AddRow({static_cast<double>(v + 1)}, run_class[v]);
      }
    }
    ExpectParallelMatchesSerial(d, options, "F_bi variant");
    variants.push_back(DecisionTreeBuilder(options).Build(d));
  }
  for (size_t i = 1; i < variants.size(); ++i) {
    EXPECT_TRUE(StructurallyIdentical(variants[0], variants[i]))
        << "variant " << i << " changed the tree shape";
  }
}

// ---------------------------------------------------------------------------
// Randomized tie-heavy sweeps: small integer domains force massive value
// duplication and frequent exact score ties at every node.

TEST(BuilderParallel, RandomSmallDomainSweep) {
  for (uint64_t seed : {3u, 19u, 41u}) {
    Rng rng(seed);
    Dataset d({"x", "y", "z"}, {"a", "b", "c"});
    for (int i = 0; i < 300; ++i) {
      d.AddRow({static_cast<double>(rng.UniformInt(0, 4)),
                static_cast<double>(rng.UniformInt(0, 2)),
                static_cast<double>(rng.UniformInt(0, 6))},
               static_cast<ClassId>(rng.UniformInt(0, 2)));
    }
    ExpectParallelMatchesSerial(d, BuildOptions{},
                                "seed " + std::to_string(seed));
  }
}

TEST(BuilderParallel, CovtypeLikeDeepTreeSweep) {
  Rng rng(5);
  const Dataset d = GenerateCovtypeLike(SmallCovtypeSpec(2000), rng);
  BuildOptions options;
  options.min_split_size = 4;
  ExpectParallelMatchesSerial(d, options, "covtype-like 2000 rows");
}

// ---------------------------------------------------------------------------
// Three-way algorithm equality under parallel execution: the frontier
// engine must match both recursive engines bit for bit at every thread
// count, not just serially.

TEST(BuilderParallel, AllAlgorithmsAgreeAtEveryThreadCount) {
  Rng rng(31);
  const Dataset d = GenerateCovtypeLike(SmallCovtypeSpec(1500), rng);
  BuildOptions reference;
  reference.algorithm = BuildOptions::Algorithm::kResort;
  const std::string expected =
      SerializeTree(DecisionTreeBuilder(reference).Build(d));
  for (auto algorithm : {BuildOptions::Algorithm::kResort,
                         BuildOptions::Algorithm::kFrontier}) {
    BuildOptions options;
    options.algorithm = algorithm;
    for (size_t threads : kThreadCounts) {
      const DecisionTree tree =
          DecisionTreeBuilder(options, ExecPolicy{threads}).Build(d);
      EXPECT_EQ(SerializeTree(tree), expected)
          << "algorithm " << static_cast<int>(algorithm) << " at "
          << threads << " threads";
    }
  }
}

// ---------------------------------------------------------------------------
// BuildStats: the per-stage breakdown must account for the build without
// perturbing it.

TEST(BuilderParallel, BuildStatsReportsLevelsAndNodes) {
  Rng rng(13);
  const Dataset d = GenerateCovtypeLike(SmallCovtypeSpec(500), rng);
  BuildStats stats;
  const DecisionTree with_stats =
      DecisionTreeBuilder().Build(d, &stats);
  const DecisionTree without = DecisionTreeBuilder().Build(d);
  EXPECT_TRUE(ExactlyEqual(with_stats, without));
  EXPECT_EQ(stats.nodes, with_stats.NumNodes());
  EXPECT_GE(stats.levels, 1u);
  EXPECT_GE(stats.sort_s, 0.0);
  EXPECT_GE(stats.scan_s, 0.0);
  EXPECT_GE(stats.partition_s, 0.0);
  EXPECT_GE(stats.emit_s, 0.0);
}

}  // namespace
}  // namespace popp
