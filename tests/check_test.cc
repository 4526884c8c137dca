#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "check/generators.h"
#include "check/oracles.h"
#include "check/runner.h"
#include "check/shrink.h"
#include "transform/function.h"

/// \file
/// Tests of the checking harness itself: generator determinism and bounds,
/// the guarantee-envelope correlation between transform and builder
/// options, oracle verdicts on known-good and known-bad cases, shrinker
/// minimality, reproducer persistence, and pinned regressions for the
/// latent core bugs the fuzzer originally surfaced.

namespace popp::check {
namespace {

GeneratorOptions SmallGen() {
  GeneratorOptions g;
  g.max_rows = 60;
  return g;
}

TEST(Generators, TrialCasesAreDeterministicPerSeed) {
  const TrialCase a = GenerateTrialCase(SmallGen(), 99);
  const TrialCase b = GenerateTrialCase(SmallGen(), 99);
  EXPECT_EQ(a.plan_seed, b.plan_seed);
  ASSERT_EQ(a.data.NumRows(), b.data.NumRows());
  ASSERT_EQ(a.data.NumAttributes(), b.data.NumAttributes());
  for (size_t r = 0; r < a.data.NumRows(); ++r) {
    EXPECT_EQ(a.data.Label(r), b.data.Label(r));
    for (size_t at = 0; at < a.data.NumAttributes(); ++at) {
      EXPECT_EQ(a.data.Value(r, at), b.data.Value(r, at));
    }
  }
  const TrialCase c = GenerateTrialCase(SmallGen(), 100);
  EXPECT_NE(a.plan_seed, c.plan_seed);
}

TEST(Generators, DatasetsRespectConfiguredBounds) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    const TrialCase c = GenerateTrialCase(SmallGen(), seed);
    EXPECT_GE(c.data.NumRows(), SmallGen().min_rows);
    // Duplicate-row injection may append up to NumRows()/2 extra rows.
    EXPECT_LE(c.data.NumRows(), SmallGen().max_rows + SmallGen().max_rows / 2);
    EXPECT_GE(c.data.NumAttributes(), SmallGen().min_attributes);
    EXPECT_LE(c.data.NumAttributes(), SmallGen().max_attributes);
  }
}

TEST(Generators, BuildOptionsStayInsideTheGuaranteeEnvelope) {
  // Whenever the transform can mix order within an attribute, the sampled
  // builder must either stick to run boundaries or use min_leaf_size 1
  // with a concave criterion (Lemma 2's envelope).
  size_t mixing_all_boundaries = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    const TrialCase c = GenerateTrialCase(SmallGen(), seed);
    if (!MayMixOrder(c.transform_options)) continue;
    if (c.build_options.candidate_mode !=
        BuildOptions::CandidateMode::kAllBoundaries) {
      continue;
    }
    ++mixing_all_boundaries;
    EXPECT_EQ(c.build_options.min_leaf_size, 1u) << "seed " << seed;
    EXPECT_NE(c.build_options.criterion, SplitCriterion::kGainRatio)
        << "seed " << seed;
  }
  EXPECT_GT(mixing_all_boundaries, 0u) << "envelope case never sampled";
}

TEST(Oracles, AllPassOnASweepOfGeneratedCases) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    const TrialContext ctx =
        MakeTrialContext(GenerateTrialCase(SmallGen(), seed));
    for (const Oracle& oracle : AllOracles()) {
      const OracleResult r = oracle.run(ctx);
      EXPECT_TRUE(r.passed)
          << oracle.name << " seed " << seed << ": " << r.message;
    }
  }
}

TEST(Oracles, LabelRunOracleRejectsAShuffledRelease) {
  // Swap two released values across a run boundary: the run decomposition
  // changes and the oracle must say so.
  TrialCase c = GenerateTrialCase(SmallGen(), 3);
  TrialContext ctx = MakeTrialContext(c);
  // Find an attribute with at least two distinct released values.
  bool checked = false;
  for (size_t a = 0; a < ctx.released.NumAttributes() && !checked; ++a) {
    auto& col = ctx.released.MutableColumn(a);
    size_t lo = 0, hi = 0;
    for (size_t r = 1; r < col.size(); ++r) {
      if (col[r] < col[lo]) lo = r;
      if (col[r] > col[hi]) hi = r;
    }
    if (col[lo] == col[hi] ||
        ctx.c.data.Label(lo) == ctx.c.data.Label(hi)) {
      continue;
    }
    std::swap(col[lo], col[hi]);
    const OracleResult r =
        CheckLabelRunPreservation(ctx.c.data, ctx.plan, ctx.released);
    EXPECT_FALSE(r.passed);
    checked = true;
  }
  EXPECT_TRUE(checked) << "no swappable attribute found in the fixture";
}

TEST(Shrink, ShrinksARowCountPredicateToTheMinimum)
{
  // A synthetic failure — "at least 3 rows" — must shrink to exactly 3
  // rows and a single attribute.
  TrialCase c = GenerateTrialCase(SmallGen(), 12);
  ASSERT_GE(c.data.NumRows(), 3u);
  ShrinkStats stats;
  const TrialCase small = ShrinkCase(
      c, [](const TrialCase& t) { return t.data.NumRows() >= 3; }, &stats);
  EXPECT_EQ(small.data.NumRows(), 3u);
  EXPECT_EQ(small.data.NumAttributes(), 1u);
  EXPECT_GT(stats.candidates_tried, 0u);
}

TEST(Shrink, ReproducerRoundTripsThroughDisk) {
  const std::string dir = testing::TempDir();
  const std::string csv = dir + "/check_test_repro.csv";
  const std::string recipe = dir + "/check_test_repro.recipe";
  Reproducer repro{GenerateTrialCase(SmallGen(), 21), "label_runs",
                   "synthetic"};
  ASSERT_TRUE(WriteReproducer(repro, csv, recipe).ok());
  auto back = LoadReproducer(recipe);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const TrialCase& a = repro.c;
  const TrialCase& b = back.value().c;
  EXPECT_EQ(back.value().oracle_name, "label_runs");
  EXPECT_EQ(a.plan_seed, b.plan_seed);
  ASSERT_EQ(a.data.NumRows(), b.data.NumRows());
  for (size_t r = 0; r < a.data.NumRows(); ++r) {
    EXPECT_EQ(a.data.Label(r), b.data.Label(r));
    for (size_t at = 0; at < a.data.NumAttributes(); ++at) {
      EXPECT_EQ(a.data.Value(r, at), b.data.Value(r, at));
    }
  }
  // Same plan seed + same options + same data = same oracle behavior.
  EXPECT_EQ(a.build_options.criterion, b.build_options.criterion);
  EXPECT_EQ(a.transform_options.global_anti_monotone,
            b.transform_options.global_anti_monotone);
  std::remove(csv.c_str());
  std::remove(recipe.c_str());
}

TEST(Shrink, RecipeRejectsTheRetiredPresortedEngine) {
  // Only the kResort reference and the kFrontier product engine exist;
  // a recipe naming any other engine is refused, never silently remapped.
  const std::string dir = testing::TempDir();
  const std::string csv = dir + "/check_test_engine.csv";
  const std::string recipe = dir + "/check_test_engine.recipe";
  Reproducer repro{GenerateTrialCase(SmallGen(), 22), "label_runs",
                   "synthetic"};
  repro.c.build_options.algorithm = BuildOptions::Algorithm::kResort;
  ASSERT_TRUE(WriteReproducer(repro, csv, recipe).ok());
  std::stringstream text;
  text << std::ifstream(recipe).rdbuf();
  std::string edited = text.str();
  const size_t at = edited.find(" algorithm resort");
  ASSERT_NE(at, std::string::npos) << edited;
  edited.replace(at, std::string(" algorithm resort").size(),
                 " algorithm presorted");
  std::ofstream(recipe, std::ios::trunc) << edited;
  auto back = LoadReproducer(recipe);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(back.status().message().find("unknown algorithm 'presorted'"),
            std::string::npos)
      << back.status().ToString();
  std::remove(csv.c_str());
  std::remove(recipe.c_str());
}

TEST(Runner, BoundedRunPassesAndRendersEveryOracle) {
  CheckOptions options;
  options.trials = 40;
  options.seed = 11;
  options.shrink = false;
  std::ostringstream log;
  const CheckReport report = RunChecks(options, log);
  EXPECT_TRUE(report.AllPassed()) << RenderReport(report);
  EXPECT_EQ(report.trials_run, 40u);
  EXPECT_EQ(report.tallies.size(), AllOracles().size());
  const std::string table = RenderReport(report);
  for (const Oracle& oracle : AllOracles()) {
    EXPECT_NE(table.find(oracle.name), std::string::npos) << table;
  }
}

// ------------------------------------------------------------------------
// Pinned regressions for core bugs the fuzzer surfaced. Each reproduces
// the original failing geometry directly against the core API.

TEST(FuzzerRegression, AntiPieceEndpointImageStaysInsideItsInterval) {
  // Found by encode_bijective: with these exact parameters the endpoint
  // image `ohi - (ohi - olo) * 1.0` rounded an ulp below olo, the piece
  // router read it as lying in the inter-piece gap, and the gap bridge
  // decoded it to the *adjacent piece's* boundary value (38 -> 34).
  const double dlo = 34, dhi = 38;
  const double olo = 4.6160315125481857, ohi = 45.465572290465651;
  const RescaledFunction f(std::make_unique<PowerShape>(2.2296656499181537),
                           dlo, dhi, olo, ohi, /*anti_monotone=*/true);
  const AttrValue y = f.Apply(dhi);
  EXPECT_GE(y, olo);
  EXPECT_LE(y, ohi);
  EXPECT_NEAR(f.Inverse(y), dhi, 1e-7 * dhi);
  const AttrValue y_lo = f.Apply(dlo);
  EXPECT_GE(y_lo, olo);
  EXPECT_LE(y_lo, ohi);
  EXPECT_NEAR(f.Inverse(y_lo), dlo, 1e-7 * dlo);
}

TEST(FuzzerRegression, TreeEquivalenceSurvivesWithinRunMultiplicityShifts) {
  // Found by tree_equivalence: an F_bi piece permutes duplicate
  // multiplicities within a single-class run, which changed the builder's
  // old value-granular tie-break and moved an exactly-tied threshold.
  // The block-granular tie-break must keep the decode identical. The 5-row
  // fixture is the shrunken reproducer's shape: a two-value pure run with
  // uneven multiplicities next to a mixed value.
  Dataset d({"x"}, {"p", "q"});
  d.AddRow({10}, 0);
  d.AddRow({20}, 1);
  d.AddRow({20}, 1);
  d.AddRow({30}, 1);
  d.AddRow({40}, 0);
  PiecewiseOptions transform_options;
  transform_options.policy = BreakpointPolicy::kChooseMaxMP;
  transform_options.exploit_monochromatic = true;
  transform_options.min_mono_width = 2;
  BuildOptions build_options;  // defaults: run boundaries, gini
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    const TransformPlan plan =
        TransformPlan::Create(d, transform_options, rng);
    const Dataset released = plan.EncodeDataset(d);
    const OracleResult r = CheckTreeEquivalence(
        d, plan, released, build_options,
        {SplitCriterion::kGini, SplitCriterion::kEntropy}, /*pruned=*/false);
    EXPECT_TRUE(r.passed) << "seed " << seed << ": " << r.message;
  }
}

TEST(FuzzerRegression, MayMixOrderClassifiesTheKnownPlans) {
  PiecewiseOptions o;
  o.policy = BreakpointPolicy::kChooseBP;
  o.family.anti_monotone_prob = 0.0;
  o.global_anti_monotone = false;
  EXPECT_FALSE(MayMixOrder(o));  // strictly order-preserving
  o.family.anti_monotone_prob = 0.5;
  EXPECT_TRUE(MayMixOrder(o));  // mono ranges may draw against the grain
  o.family.anti_monotone_prob = 1.0;
  o.global_anti_monotone = true;
  EXPECT_FALSE(MayMixOrder(o));  // every piece follows the global reversal
  o.policy = BreakpointPolicy::kChooseMaxMP;
  o.exploit_monochromatic = true;
  EXPECT_TRUE(MayMixOrder(o));  // F_bi permutation pieces
}

}  // namespace
}  // namespace popp::check
