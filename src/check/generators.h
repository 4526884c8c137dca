#ifndef POPP_CHECK_GENERATORS_H_
#define POPP_CHECK_GENERATORS_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "transform/piecewise.h"
#include "tree/builder.h"
#include "util/rng.h"

/// \file
/// Randomized case generation for the invariant-checking harness.
///
/// A *trial case* bundles everything one differential check needs: a random
/// dataset, a random transform configuration, a random tree-builder
/// configuration, and the seed the plan is sampled from. The generators are
/// deliberately adversarial — heavy ties, constant columns, duplicated
/// rows, single-class data, tiny domains — because those are the shapes
/// where an "exact guarantee" implementation breaks first, and none of them
/// appear in the calibrated covtype-like data the regular tests sweep.

namespace popp::check {

/// Bounds and adversarial-shape probabilities for dataset generation.
struct GeneratorOptions {
  size_t min_rows = 2;
  size_t max_rows = 200;
  size_t min_attributes = 1;
  size_t max_attributes = 4;
  size_t min_classes = 2;
  size_t max_classes = 4;

  /// Probability that any one attribute is a constant column.
  double constant_column_prob = 0.12;
  /// Probability that a batch of exact duplicate rows is appended.
  double duplicate_rows_prob = 0.25;
  /// Probability that the whole dataset carries a single class label
  /// (the degenerate "already monochromatic" partition).
  double single_class_prob = 0.08;
};

/// One self-contained randomized trial.
///
/// The plan is *not* stored: it is deterministically re-sampled from
/// `plan_seed` whenever the case is evaluated, which keeps cases cheap to
/// copy, shrink and serialize (the reproducer recipe records the seed).
struct TrialCase {
  Dataset data;
  PiecewiseOptions transform_options;
  BuildOptions build_options;
  uint64_t plan_seed = 0;
};

/// Samples a dataset within `options`' bounds. Column shapes are drawn per
/// attribute from: uniform integers (tie-heavy when the range is narrow),
/// clamped gaussian integers, zipf-ranked support values, a handful of
/// distinct values (maximal ties), an all-distinct spread, and constant
/// columns. Labels are drawn from random class weights; duplicate-row
/// batches and single-class labelings are injected with the configured
/// probabilities.
Dataset GenerateDataset(const GeneratorOptions& options, Rng& rng);

/// Samples a transform configuration across the full option surface:
/// every breakpoint policy, monochromatic exploitation on and off, both
/// global directions, anti-monotone piece probabilities in {0, 0.5, 1},
/// and randomized output-range / gap / stick-breaking knobs.
PiecewiseOptions GeneratePiecewiseOptions(Rng& rng);

/// True if a plan created under `options` can map some attribute
/// non-order-preservingly *within* a piece while the rest of the attribute
/// follows the global direction: permutation (F_bi) pieces, or
/// direction-free monotone pieces on monochromatic ranges that can be
/// drawn against the global direction. Such plans only carry the
/// no-outcome-change guarantee for miners whose splits stay on label-run
/// boundaries (Lemma 2) — see GenerateBuildOptions.
bool MayMixOrder(const PiecewiseOptions& options);

/// Samples a builder configuration: every criterion, both candidate modes
/// and algorithms, and randomized depth / size / improvement limits.
///
/// The configuration is correlated with `transform_options` to stay inside
/// the guarantee's envelope: when MayMixOrder(transform_options), the miner
/// either restricts candidates to run boundaries (safe with any criterion
/// and leaf limit) or uses all boundaries with min_leaf_size 1 and a
/// concave criterion — the combinations for which the best split provably
/// lies on a run boundary. The harness found the complement to be a real
/// hole, not a bug: kAllBoundaries with min_leaf_size > 1 can be forced to
/// split interior to a single-class run, and inside an F_bi piece no
/// original-space threshold reproduces that routing.
BuildOptions GenerateBuildOptions(const PiecewiseOptions& transform_options,
                                  Rng& rng);

/// Builds the full trial case for `seed` (deterministic: equal seeds give
/// equal cases).
TrialCase GenerateTrialCase(const GeneratorOptions& options, uint64_t seed);

/// The fixed edge list of the CSV cell formatter's contract: ±0, ±inf,
/// NaN of either sign, the smallest denormal, DBL_MIN, DBL_MAX, the
/// integral branch's switch (999999999999999, ±1e15 and their neighbours),
/// 2^53 - 1 .. 2^53 + 2, and 0.1.
std::vector<double> FormatEdgeValues();

/// Samples `n` doubles for the formatter differential: half raw 64-bit
/// patterns (every exponent, denormals, infinities and NaN payloads of
/// either sign), the rest integers straddling the 1e15 switch, small
/// integers and halves, reals across forty decades, and edge values
/// nudged by a few ulps.
std::vector<double> GenerateFormatProbes(size_t n, Rng& rng);

/// Projects `data` onto the given attribute indices (order respected);
/// labels and schema class names are preserved. Used by the shrinker to
/// drop attributes. Requires at least one index, all in range.
Dataset SelectAttributes(const Dataset& data,
                         const std::vector<size_t>& attrs);

}  // namespace popp::check

#endif  // POPP_CHECK_GENERATORS_H_
