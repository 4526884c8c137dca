#include "check/generators.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>

#include "synth/distributions.h"
#include "util/status.h"

namespace popp::check {
namespace {

/// Column shapes the dataset generator mixes.
enum class ColumnShape {
  kUniform,      // uniform integers over a random-width range
  kGaussian,     // clamped rounded gaussian (dense center, sparse tails)
  kZipf,         // zipf-ranked picks from a random support (few hot values)
  kFewDistinct,  // 2..5 distinct values: maximal ties
  kAllDistinct,  // every row its own value: no ties at all
  kConstant,     // a single value everywhere
};

ColumnShape SampleShape(const GeneratorOptions& options, Rng& rng) {
  if (rng.Bernoulli(options.constant_column_prob)) {
    return ColumnShape::kConstant;
  }
  switch (rng.UniformInt(0, 4)) {
    case 0: return ColumnShape::kUniform;
    case 1: return ColumnShape::kGaussian;
    case 2: return ColumnShape::kZipf;
    case 3: return ColumnShape::kFewDistinct;
    default: return ColumnShape::kAllDistinct;
  }
}

std::vector<AttrValue> GenerateColumn(size_t rows,
                                      const GeneratorOptions& options,
                                      Rng& rng) {
  std::vector<AttrValue> column(rows);
  const int64_t base = rng.UniformInt(-1000, 1000);
  switch (SampleShape(options, rng)) {
    case ColumnShape::kUniform: {
      // A narrow range against the row count forces ties; a wide one gives
      // discontinuities. Sample the width across both regimes.
      const int64_t width = rng.UniformInt(1, static_cast<int64_t>(rows) * 4);
      for (auto& v : column) {
        v = static_cast<AttrValue>(base + rng.UniformInt(0, width));
      }
      return column;
    }
    case ColumnShape::kGaussian: {
      const double stddev = rng.Uniform(1.0, 50.0);
      for (auto& v : column) {
        v = static_cast<AttrValue>(
            ClampedGaussianInt(static_cast<double>(base), stddev, base - 200,
                               base + 200, rng));
      }
      return column;
    }
    case ColumnShape::kZipf: {
      const size_t support = static_cast<size_t>(
          rng.UniformInt(2, static_cast<int64_t>(std::max<size_t>(2, rows))));
      const ZipfSampler zipf(support, rng.Uniform(0.5, 2.0));
      const auto values = SampleDistinctSupport(
          base, base + static_cast<int64_t>(support) * 3, support, rng);
      for (auto& v : column) {
        v = static_cast<AttrValue>(values[zipf.Sample(rng) - 1]);
      }
      return column;
    }
    case ColumnShape::kFewDistinct: {
      const size_t k = static_cast<size_t>(rng.UniformInt(2, 5));
      std::vector<int64_t> values(k);
      for (auto& v : values) v = base + rng.UniformInt(0, 40);
      for (auto& v : column) {
        v = static_cast<AttrValue>(
            values[static_cast<size_t>(rng.UniformInt(0, k - 1))]);
      }
      return column;
    }
    case ColumnShape::kAllDistinct: {
      // Irregular strictly-increasing steps, then shuffled across rows.
      std::vector<AttrValue> values(rows);
      int64_t v = base;
      for (auto& out : values) {
        v += rng.UniformInt(1, 7);
        out = static_cast<AttrValue>(v);
      }
      rng.Shuffle(values);
      return values;
    }
    case ColumnShape::kConstant: {
      std::fill(column.begin(), column.end(),
                static_cast<AttrValue>(base));
      return column;
    }
  }
  return column;
}

}  // namespace

Dataset GenerateDataset(const GeneratorOptions& options, Rng& rng) {
  POPP_CHECK(options.min_rows >= 1 && options.min_rows <= options.max_rows);
  POPP_CHECK(options.min_attributes >= 1 &&
             options.min_attributes <= options.max_attributes);
  POPP_CHECK(options.min_classes >= 1 &&
             options.min_classes <= options.max_classes);

  const size_t rows = static_cast<size_t>(
      rng.UniformInt(static_cast<int64_t>(options.min_rows),
                     static_cast<int64_t>(options.max_rows)));
  const size_t attrs = static_cast<size_t>(
      rng.UniformInt(static_cast<int64_t>(options.min_attributes),
                     static_cast<int64_t>(options.max_attributes)));
  size_t classes = static_cast<size_t>(
      rng.UniformInt(static_cast<int64_t>(options.min_classes),
                     static_cast<int64_t>(options.max_classes)));
  if (rng.Bernoulli(options.single_class_prob)) classes = 1;

  std::vector<std::string> attr_names(attrs);
  for (size_t a = 0; a < attrs; ++a) attr_names[a] = "a" + std::to_string(a);
  std::vector<std::string> class_names(classes);
  for (size_t c = 0; c < classes; ++c) class_names[c] = "c" + std::to_string(c);
  Dataset data(std::move(attr_names), std::move(class_names));

  std::vector<std::vector<AttrValue>> columns(attrs);
  for (size_t a = 0; a < attrs; ++a) {
    columns[a] = GenerateColumn(rows, options, rng);
  }

  // Skewed class weights exercise single-class partitions deep in the tree.
  std::vector<double> weights(classes);
  for (auto& w : weights) w = rng.Uniform(0.05, 1.0);
  const CategoricalSampler labels(weights);

  data.Reserve(rows);
  std::vector<AttrValue> tuple(attrs);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t a = 0; a < attrs; ++a) tuple[a] = columns[a][r];
    data.AddRow(tuple, static_cast<ClassId>(labels.Sample(rng)));
  }

  if (rows >= 2 && rng.Bernoulli(options.duplicate_rows_prob)) {
    const size_t copies =
        static_cast<size_t>(rng.UniformInt(1, static_cast<int64_t>(rows) / 2));
    for (size_t i = 0; i < copies; ++i) {
      const size_t r = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(data.NumRows()) - 1));
      data.AddRow(data.Row(r), data.Label(r));
    }
  }
  return data;
}

PiecewiseOptions GeneratePiecewiseOptions(Rng& rng) {
  PiecewiseOptions options;
  switch (rng.UniformInt(0, 2)) {
    case 0: options.policy = BreakpointPolicy::kNone; break;
    case 1: options.policy = BreakpointPolicy::kChooseBP; break;
    default: options.policy = BreakpointPolicy::kChooseMaxMP; break;
  }
  options.min_breakpoints = static_cast<size_t>(rng.UniformInt(0, 24));
  options.min_mono_width = static_cast<size_t>(rng.UniformInt(1, 4));
  options.exploit_monochromatic = rng.Bernoulli(0.7);
  options.global_anti_monotone = rng.Bernoulli(0.5);
  switch (rng.UniformInt(0, 2)) {
    case 0: options.family.anti_monotone_prob = 0.0; break;
    case 1: options.family.anti_monotone_prob = 0.5; break;
    default: options.family.anti_monotone_prob = 1.0; break;
  }
  options.out_width_factor_min = rng.Uniform(0.3, 1.0);
  options.out_width_factor_max =
      options.out_width_factor_min + rng.Uniform(0.1, 1.5);
  options.out_offset_min = rng.Uniform(-0.8, 0.0);
  options.out_offset_max = rng.Uniform(0.0, 0.8);
  options.gap_fraction = rng.Uniform(0.0, 0.2);
  options.width_split_skew = rng.Uniform(0.0, 0.95);
  return options;
}

bool MayMixOrder(const PiecewiseOptions& options) {
  const bool permutation_pieces =
      options.policy == BreakpointPolicy::kChooseMaxMP &&
      options.exploit_monochromatic;
  // Direction-free pieces (monochromatic ranges under any policy) mix
  // order whenever the draw can come out against the global direction.
  const double against_global =
      options.global_anti_monotone ? 1.0 - options.family.anti_monotone_prob
                                   : options.family.anti_monotone_prob;
  return permutation_pieces || against_global > 0.0;
}

BuildOptions GenerateBuildOptions(const PiecewiseOptions& transform_options,
                                  Rng& rng) {
  BuildOptions options;
  switch (rng.UniformInt(0, 2)) {
    case 0: options.criterion = SplitCriterion::kGini; break;
    case 1: options.criterion = SplitCriterion::kEntropy; break;
    default: options.criterion = SplitCriterion::kGainRatio; break;
  }
  options.max_depth = static_cast<size_t>(rng.UniformInt(1, 24));
  options.min_split_size = static_cast<size_t>(rng.UniformInt(2, 8));
  options.min_leaf_size = static_cast<size_t>(rng.UniformInt(1, 4));
  options.min_impurity_decrease = rng.Bernoulli(0.3) ? 0.01 : 0.0;
  options.candidate_mode =
      rng.Bernoulli(0.5) ? BuildOptions::CandidateMode::kAllBoundaries
                         : BuildOptions::CandidateMode::kRunBoundaries;
  options.algorithm = rng.Bernoulli(0.5) ? BuildOptions::Algorithm::kResort
                                         : BuildOptions::Algorithm::kFrontier;

  // Envelope correlation (see the header): plans that can mix order within
  // an attribute are only decode-safe for run-boundary splits. Lemma 2
  // extends that safety to kAllBoundaries exactly when the leaf constraint
  // cannot displace the optimum (min_leaf_size 1) and the criterion is
  // concave — gain ratio's normalization can prefer interior-of-run cuts.
  if (MayMixOrder(transform_options) &&
      options.candidate_mode == BuildOptions::CandidateMode::kAllBoundaries) {
    options.min_leaf_size = 1;
    if (options.criterion == SplitCriterion::kGainRatio) {
      options.criterion = rng.Bernoulli(0.5) ? SplitCriterion::kGini
                                             : SplitCriterion::kEntropy;
    }
  }
  return options;
}

TrialCase GenerateTrialCase(const GeneratorOptions& options, uint64_t seed) {
  Rng rng(seed);
  TrialCase c;
  c.data = GenerateDataset(options, rng);
  c.transform_options = GeneratePiecewiseOptions(rng);
  c.build_options = GenerateBuildOptions(c.transform_options, rng);
  c.plan_seed = rng.Next();
  return c;
}

std::vector<double> FormatEdgeValues() {
  using Limits = std::numeric_limits<double>;
  const double nan = Limits::quiet_NaN();
  const double two53 = 9007199254740992.0;
  return {0.0,
          -0.0,
          Limits::infinity(),
          -Limits::infinity(),
          nan,
          std::copysign(nan, -1.0),
          Limits::denorm_min(),
          -Limits::denorm_min(),
          Limits::min(),
          Limits::max(),
          -Limits::max(),
          999999999999999.0,
          -999999999999999.0,
          999999999999999.5,
          1e15,
          -1e15,
          std::nextafter(1e15, 0.0),
          std::nextafter(1e15, 2e15),
          two53 - 1.0,
          two53,
          two53 + 1.0,  // not representable: rounds to 2^53
          two53 + 2.0,
          0.1,
          -0.1,
          0.5,
          1.0,
          -1.0};
}

std::vector<double> GenerateFormatProbes(size_t n, Rng& rng) {
  const std::vector<double> edges = FormatEdgeValues();
  std::vector<double> out;
  out.reserve(n);
  while (out.size() < n) {
    const uint64_t bits = rng.Next();
    switch (rng.Next() % 8) {
      case 0:
      case 1:
      case 2:
      case 3:
        out.push_back(std::bit_cast<double>(bits));
        break;
      case 4:  // integers in (-2e15, 2e15): both sides of the 1e15 switch
        out.push_back(static_cast<double>(
            static_cast<int64_t>(bits % 4000000000000000ull) -
            2000000000000000ll));
        break;
      case 5: {  // small integers and halves, either sign
        const double k = static_cast<double>(bits % 2000001) - 1000000.0;
        out.push_back(rng.Bernoulli(0.5) ? k : k + 0.5);
        break;
      }
      case 6: {  // reals over forty decades around 1
        const double scale =
            std::pow(10.0, static_cast<double>(bits % 41) - 20.0);
        out.push_back((rng.Bernoulli(0.5) ? 1.0 : -1.0) * rng.Uniform01() *
                      scale);
        break;
      }
      default: {  // an edge value, a few ulps off
        double v = edges[bits % edges.size()];
        const double toward = rng.Bernoulli(0.5)
                                  ? std::numeric_limits<double>::infinity()
                                  : -std::numeric_limits<double>::infinity();
        for (uint64_t step = (bits >> 32) % 4; step > 0; --step) {
          v = std::nextafter(v, toward);
        }
        out.push_back(v);
        break;
      }
    }
  }
  return out;
}

Dataset SelectAttributes(const Dataset& data,
                         const std::vector<size_t>& attrs) {
  POPP_CHECK_MSG(!attrs.empty(), "SelectAttributes: no attributes");
  std::vector<std::string> names;
  names.reserve(attrs.size());
  for (size_t a : attrs) {
    POPP_CHECK_MSG(a < data.NumAttributes(), "bad attribute " << a);
    names.push_back(data.schema().AttributeName(a));
  }
  Dataset out(Schema(std::move(names), data.schema().class_names()));
  out.Reserve(data.NumRows());
  std::vector<AttrValue> tuple(attrs.size());
  for (size_t r = 0; r < data.NumRows(); ++r) {
    for (size_t i = 0; i < attrs.size(); ++i) {
      tuple[i] = data.Value(r, attrs[i]);
    }
    out.AddRow(tuple, data.Label(r));
  }
  return out;
}

}  // namespace popp::check
