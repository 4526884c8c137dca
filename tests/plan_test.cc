#include <gtest/gtest.h>

#include <limits>

#include "data/summary.h"
#include "synth/covtype_like.h"
#include "synth/presets.h"
#include "transform/plan.h"
#include "tree/label_runs.h"

namespace popp {
namespace {

TEST(PlanTest, OneTransformPerAttribute) {
  Rng rng(3);
  const Dataset d = MakeFigure1Dataset();
  const TransformPlan plan = TransformPlan::Create(d, PiecewiseOptions{}, rng);
  EXPECT_EQ(plan.NumAttributes(), 2u);
}

TEST(PlanTest, EncodeDatasetPreservesLabelsAndShape) {
  Rng rng(5);
  const Dataset d = MakeFigure1Dataset();
  const TransformPlan plan = TransformPlan::Create(d, PiecewiseOptions{}, rng);
  const Dataset dp = plan.EncodeDataset(d);
  ASSERT_EQ(dp.NumRows(), d.NumRows());
  ASSERT_EQ(dp.NumAttributes(), d.NumAttributes());
  EXPECT_EQ(dp.schema(), d.schema());
  for (size_t r = 0; r < d.NumRows(); ++r) {
    EXPECT_EQ(dp.Label(r), d.Label(r));
  }
}

TEST(PlanTest, EncodeDecodeRoundTripsEveryCell) {
  Rng rng(7);
  const Dataset d = GenerateCovtypeLike(SmallCovtypeSpec(600), rng);
  PiecewiseOptions options;
  options.min_breakpoints = 10;
  const TransformPlan plan = TransformPlan::Create(d, options, rng);
  const Dataset dp = plan.EncodeDataset(d);
  for (size_t a = 0; a < d.NumAttributes(); ++a) {
    for (size_t r = 0; r < d.NumRows(); ++r) {
      EXPECT_NEAR(plan.Decode(a, dp.Value(r, a)), d.Value(r, a), 1e-7);
    }
  }
}

TEST(PlanTest, EncodeValueMatchesDatasetEncoding) {
  Rng rng(9);
  const Dataset d = MakeFigure1Dataset();
  const TransformPlan plan = TransformPlan::Create(d, PiecewiseOptions{}, rng);
  const Dataset dp = plan.EncodeDataset(d);
  for (size_t r = 0; r < d.NumRows(); ++r) {
    for (size_t a = 0; a < d.NumAttributes(); ++a) {
      EXPECT_DOUBLE_EQ(plan.Encode(a, d.Value(r, a)), dp.Value(r, a));
    }
  }
}

TEST(PlanTest, ClassStringPreservedUnderGlobalMonotone) {
  // Lemma 1, end to end at the dataset level: the class string of every
  // attribute is unchanged by a global-monotone piecewise transform.
  Rng rng(11);
  const Dataset d = GenerateCovtypeLike(SmallCovtypeSpec(800), rng);
  PiecewiseOptions options;
  options.min_breakpoints = 12;
  const TransformPlan plan = TransformPlan::Create(d, options, rng);
  const Dataset dp = plan.EncodeDataset(d);
  for (size_t a = 0; a < d.NumAttributes(); ++a) {
    // Compare label-run structure (lengths + labels), which is invariant
    // under the canonical-order freedom at tied values.
    const auto runs_d = LabelRunsOf(d, a);
    const auto runs_dp = LabelRunsOf(dp, a);
    // Bijective pieces permute same-class values, which cannot change the
    // run structure; monotone pieces preserve order outright.
    EXPECT_EQ(runs_d.size(), runs_dp.size()) << "attr " << a;
  }
}

TEST(PlanTest, ClassStringExactlyPreservedWithoutTies) {
  // With all-distinct values the class string comparison is exact.
  Dataset d({"x"}, {"a", "b"});
  const std::vector<ClassId> labels{0, 0, 1, 0, 1, 1, 0, 1, 0, 0};
  for (size_t i = 0; i < labels.size(); ++i) {
    d.AddRow({static_cast<double>(i * 7)}, labels[i]);
  }
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    PiecewiseOptions options;
    options.min_breakpoints = 3;
    const TransformPlan plan = TransformPlan::Create(d, options, rng);
    const Dataset dp = plan.EncodeDataset(d);
    EXPECT_EQ(ClassString(d.SortedProjection(0)),
              ClassString(dp.SortedProjection(0)))
        << "seed " << seed;
  }
}

TEST(PlanTest, ClassStringReversedUnderGlobalAntiMonotone) {
  // Lemma 1's anti-monotone half, with a single anti-monotone piece.
  Dataset d({"x"}, {"a", "b"});
  const std::vector<ClassId> labels{0, 1, 1, 0, 0, 0, 1};
  for (size_t i = 0; i < labels.size(); ++i) {
    d.AddRow({static_cast<double>(i * 3)}, labels[i]);
  }
  Rng rng(13);
  PiecewiseOptions options;
  options.policy = BreakpointPolicy::kNone;
  options.global_anti_monotone = true;
  const TransformPlan plan = TransformPlan::Create(d, options, rng);
  const Dataset dp = plan.EncodeDataset(d);
  EXPECT_EQ(Reversed(ClassString(d.SortedProjection(0))),
            ClassString(dp.SortedProjection(0)));
}

TEST(PlanTest, PerAttributeOptions) {
  Rng rng(17);
  const Dataset d = MakeFigure1Dataset();
  std::vector<PiecewiseOptions> per_attr(2);
  per_attr[0].policy = BreakpointPolicy::kNone;
  per_attr[1].policy = BreakpointPolicy::kChooseBP;
  per_attr[1].min_breakpoints = 2;
  const TransformPlan plan =
      TransformPlan::CreatePerAttribute(d, per_attr, rng);
  EXPECT_EQ(plan.transform(0).NumPieces(), 1u);
  EXPECT_GT(plan.transform(1).NumPieces(), 1u);
}

TEST(PlanTest, DescribeMentionsAttributes) {
  Rng rng(19);
  const Dataset d = MakeFigure1Dataset();
  const TransformPlan plan = TransformPlan::Create(d, PiecewiseOptions{}, rng);
  const std::string text = plan.Describe(d.schema());
  EXPECT_NE(text.find("age"), std::string::npos);
  EXPECT_NE(text.find("salary"), std::string::npos);
}

TEST(PlanTest, DeterministicGivenSeed) {
  const Dataset d = MakeFigure1Dataset();
  Rng rng1(21), rng2(21);
  const TransformPlan p1 = TransformPlan::Create(d, PiecewiseOptions{}, rng1);
  const TransformPlan p2 = TransformPlan::Create(d, PiecewiseOptions{}, rng2);
  EXPECT_EQ(p1.EncodeDataset(d), p2.EncodeDataset(d));
}

TEST(PlanTest, CheckFitRangeRejectsOnlyRangesTheFitCannotRepresent) {
  // The fit draws output bounds up to |lo| + (0.5 + 1.8) * (hi - lo) under
  // the default options; anything that stays a finite double is fittable.
  const PiecewiseOptions defaults;
  EXPECT_TRUE(CheckFitRange("a", 0, 1, defaults).ok());
  EXPECT_TRUE(CheckFitRange("a", -3e307, 3e307, defaults).ok());
  EXPECT_TRUE(CheckFitRange("a", 1.7e308, 1.7e308, defaults).ok());
  EXPECT_TRUE(CheckFitRange("a", 0, 7.8e307, defaults).ok());
  const Status wide = CheckFitRange("a", -1e308, 1e308, defaults);
  EXPECT_EQ(wide.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(wide.message().find("attribute 'a' spans [-1e+308, 1e+308]"),
            std::string::npos)
      << wide.ToString();
  EXPECT_FALSE(CheckFitRange("a", -7.8e307, 0, defaults).ok());
  EXPECT_FALSE(CheckFitRange("a", 0, std::numeric_limits<double>::infinity(),
                             defaults).ok());
  // The bound follows the options: a wider width factor rejects sooner.
  PiecewiseOptions wider;
  wider.out_width_factor_max = 10;
  EXPECT_TRUE(CheckFitRange("a", 0, 2e307, defaults).ok());
  EXPECT_FALSE(CheckFitRange("a", 0, 2e307, wider).ok());
}

TEST(PlanTest, CheckFitRangesNamesTheFirstOverflowingAttribute) {
  Dataset data({"calm", "wide"}, {"x"});
  data.AddRow({1, -1e308}, 0);
  data.AddRow({2, 1e308}, 0);
  const Status status = CheckFitRanges(data, PiecewiseOptions{});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("attribute 'wide'"), std::string::npos)
      << status.ToString();
  Dataset calm({"calm"}, {"x"});
  calm.AddRow({1}, 0);
  EXPECT_TRUE(CheckFitRanges(calm, PiecewiseOptions{}).ok());
}

}  // namespace
}  // namespace popp
