#ifndef POPP_TREE_BUILDER_H_
#define POPP_TREE_BUILDER_H_

#include <cstddef>
#include <vector>

#include "data/dataset.h"
#include "data/summary.h"
#include "parallel/exec_policy.h"
#include "tree/criterion.h"
#include "tree/decision_tree.h"

/// \file
/// C4.5-style top-down induction of binary decision trees on numeric
/// attributes, with gini or entropy split selection.
///
/// The builder is engineered so that the tree it produces is a function of
/// (a) the class-count structure of each attribute's sorted projection and
/// (b) the attribute order — never of the raw attribute values themselves.
/// Ties are broken by (attribute index, boundary index), majority labels by
/// class id. This is the property Section 4 of the paper relies on: a
/// monotone transformation leaves every quantity the builder looks at
/// bit-identical, so the induced tree is identical too (Theorems 1 and 2).

namespace popp {

class ThreadPool;

/// Stopping and search parameters for tree induction.
struct BuildOptions {
  SplitCriterion criterion = SplitCriterion::kGini;

  /// Maximum tree height; 0 forces a single leaf.
  size_t max_depth = 64;

  /// Nodes with fewer tuples become leaves.
  size_t min_split_size = 2;

  /// Both children of a split must receive at least this many tuples.
  size_t min_leaf_size = 1;

  /// A split must lower the weighted impurity by strictly more than this.
  double min_impurity_decrease = 0.0;

  /// Which candidate split positions to evaluate.
  ///
  /// With min_leaf_size == 1 and a concave criterion the two modes build
  /// the same tree: the optimal boundary always lies on a label-run
  /// boundary (Lemma 2), so pruning the candidate set loses nothing. With
  /// min_leaf_size > 1 they can differ — when the leaf constraint rules
  /// out every run boundary at a node, kAllBoundaries falls back to the
  /// best *feasible* boundary, which may be interior to a single-class
  /// run, while kRunBoundaries makes the node a leaf. Both are legitimate
  /// induction, but an interior-of-run split is outside Lemma 2, so the
  /// no-outcome-change guarantee for plans with bijective or
  /// direction-free pieces only covers miners whose splits stay on run
  /// boundaries (see DecodeTreeWithData).
  enum class CandidateMode {
    /// Every boundary between consecutive distinct values.
    kAllBoundaries,
    /// Only label-run boundaries (Lemma 2).
    kRunBoundaries,
  };
  CandidateMode candidate_mode = CandidateMode::kRunBoundaries;

  /// Internal search strategy; both produce bit-identical trees.
  enum class Algorithm {
    /// Sort the node's tuples per attribute at every node. Simple; the
    /// reference implementation the frontier engine is tested (and the
    /// scaling benchmark's tree speedup measured) against.
    kResort,
    /// Breadth-first frontier over SoA columnar node partitions: one
    /// stable sort + bin coding per attribute up front, then per level a
    /// parallel (node × attribute) split scan and a ping-pong stable
    /// repartition of the index views (SLIQ/LightGBM-style); child class
    /// histograms fall out of the mark pass, never from a rescan.
    /// Allocation-free per node, parallelizes across the whole frontier,
    /// and emits the finished tree in the kResort reference's exact
    /// post-order — the default.
    kFrontier,
  };
  Algorithm algorithm = Algorithm::kFrontier;
};

/// Wall-clock breakdown of one frontier build (seconds per stage), filled
/// by Build(data, &stats) when the algorithm is kFrontier (the kResort
/// reference leaves it zeroed). The scan stage is the histogram/split search;
/// partition covers row marking plus the columnar repartition.
struct BuildStats {
  double sort_s = 0;       ///< root presort + bin coding
  double scan_s = 0;       ///< leaf gate + per-attribute split scans
  double partition_s = 0;  ///< side marking + ping-pong view repartition
  double subtree_s = 0;    ///< depth-first solving of sub-cutover subtrees
  double emit_s = 0;       ///< post-order arena emission
  size_t levels = 0;       ///< frontier iterations of the upper tree
  size_t nodes = 0;        ///< nodes emitted (leaves + internal)
};

/// The outcome of searching one node for its best binary split.
struct SplitDecision {
  bool found = false;
  size_t attribute = 0;
  /// Boundary index over the attribute's distinct values at this node:
  /// values [0, boundary) go left, [boundary, n) go right.
  size_t boundary_index = 0;
  /// Midpoint threshold between the adjacent distinct values.
  AttrValue threshold = 0;
  /// Largest value routed left / smallest routed right (the two values the
  /// threshold lies strictly between).
  AttrValue left_max = 0;
  AttrValue right_min = 0;
  /// The criterion's badness of the split (lower is better): weighted
  /// impurity for gini/entropy, negated gain ratio for gain-ratio.
  double impurity = 0.0;
  /// How much the split improves on the parent (SplitImprovement); the
  /// builder requires this to exceed min_impurity_decrease strictly.
  double improvement = 0.0;
};

/// Builds decision trees from datasets.
///
/// With a non-serial ExecPolicy the work units run on a thread pool: the
/// frontier engine parallelizes over every (open node × attribute) pair of
/// a level, the kResort reference over the attributes of one node. In all
/// cases each work unit writes an index-addressed local result and all
/// combining — the cross-attribute best-split merge, the level's child
/// scheduling, the final post-order emission — happens serially in index
/// order, which reproduces the serial scan's tie-breaking exactly, so the
/// induced tree is bit-identical to serial execution at every thread
/// count (see DESIGN.md, "Parallel tree-build contract").
class DecisionTreeBuilder {
 public:
  explicit DecisionTreeBuilder(BuildOptions options = {},
                               ExecPolicy exec = {})
      : options_(options), exec_(exec) {}

  const BuildOptions& options() const { return options_; }
  const ExecPolicy& exec() const { return exec_; }

  /// Induces a tree from all rows of `data`. Requires NumRows() > 0.
  DecisionTree Build(const Dataset& data) const;

  /// As Build(data), additionally reporting the per-stage wall-clock
  /// breakdown (kFrontier only; see BuildStats). `stats` may be null.
  DecisionTree Build(const Dataset& data, BuildStats* stats) const;

  /// Searches the best split of the subset `rows` of `data`.
  /// Exposed for tests of Lemma 2 / Theorem 1.
  SplitDecision FindBestSplit(const Dataset& data,
                              const std::vector<size_t>& rows) const;

 private:
  SplitDecision FindBestSplit(const Dataset& data,
                              const std::vector<size_t>& rows,
                              ThreadPool* pool) const;
  NodeId BuildNode(const Dataset& data, std::vector<size_t>& rows,
                   size_t depth, DecisionTree& tree,
                   ThreadPool* pool) const;
  void BuildFrontier(const Dataset& data, ThreadPool* pool,
                     DecisionTree& tree, BuildStats* stats) const;
  void ScanAttribute(size_t attr, const AttributeSummary& summary,
                     const std::vector<uint64_t>& parent_hist,
                     SplitDecision& best) const;
  void ScanAttributeReference(size_t attr, const AttributeSummary& summary,
                              const std::vector<uint64_t>& parent_hist,
                              SplitDecision& best) const;

  BuildOptions options_;
  ExecPolicy exec_;
};

/// Majority class of a histogram; ties go to the smallest class id.
ClassId MajorityClass(const std::vector<uint64_t>& hist);

}  // namespace popp

#endif  // POPP_TREE_BUILDER_H_
