#include "transform/plan.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "data/csv.h"
#include "data/summary.h"
#include "parallel/parallel_for.h"
#include "util/status.h"

namespace popp {

TransformPlan TransformPlan::Create(const Dataset& data,
                                    const PiecewiseOptions& options,
                                    Rng& rng, const ExecPolicy& exec) {
  return CreatePerAttribute(
      data, std::vector<PiecewiseOptions>(data.NumAttributes(), options),
      rng, exec);
}

TransformPlan TransformPlan::CreatePerAttribute(
    const Dataset& data, const std::vector<PiecewiseOptions>& options,
    Rng& rng, const ExecPolicy& exec) {
  POPP_CHECK_MSG(options.size() == data.NumAttributes(),
                 "need one PiecewiseOptions per attribute");
  TransformPlan plan;
  plan.transforms_.resize(data.NumAttributes());
  // Advance the caller's generator exactly once, then give every attribute
  // its own stateless child stream. Serial and parallel execution derive
  // the same streams, so the plan is bit-identical at any thread count.
  const Rng base = rng.Fork();
  ParallelFor(exec, data.NumAttributes(), [&](size_t attr) {
    Rng child = base.Fork(attr);
    const AttributeSummary summary =
        AttributeSummary::FromDataset(data, attr);
    plan.transforms_[attr] =
        PiecewiseTransform::Create(summary, options[attr], child);
  });
  return plan;
}

TransformPlan TransformPlan::CreateFromSummaries(
    const std::vector<AttributeSummary>& summaries,
    const PiecewiseOptions& options, Rng& rng, const ExecPolicy& exec) {
  POPP_CHECK_MSG(!summaries.empty(), "CreateFromSummaries: no summaries");
  TransformPlan plan;
  plan.transforms_.resize(summaries.size());
  // Identical RNG discipline to CreatePerAttribute: one fork of the
  // caller's stream, then index-derived children — so the plan matches the
  // batch fit bit-for-bit given equal summaries and seed.
  const Rng base = rng.Fork();
  ParallelFor(exec, summaries.size(), [&](size_t attr) {
    Rng child = base.Fork(attr);
    plan.transforms_[attr] =
        PiecewiseTransform::Create(summaries[attr], options, child);
  });
  return plan;
}

TransformPlan TransformPlan::FromTransforms(
    std::vector<PiecewiseTransform> transforms) {
  POPP_CHECK_MSG(!transforms.empty(), "FromTransforms: no transforms");
  TransformPlan plan;
  plan.transforms_ = std::move(transforms);
  return plan;
}

Status CheckFitRange(const std::string& attribute, AttrValue lo, AttrValue hi,
                     const PiecewiseOptions& options) {
  const double reach =
      std::max(std::fabs(options.out_offset_min),
               std::fabs(options.out_offset_max)) +
      options.out_width_factor_max;
  if (std::isfinite(std::fabs(lo) + std::max(1.0, hi - lo) * reach)) {
    return Status::Ok();
  }
  return Status::InvalidArgument(
      "attribute '" + attribute + "' spans [" + FormatCsvCell(lo) + ", " +
      FormatCsvCell(hi) +
      "], a range too wide to fit: the transformed range would overflow "
      "a double (rescale the column)");
}

Status CheckFitRanges(const Dataset& data, const PiecewiseOptions& options) {
  for (size_t attr = 0; attr < data.NumAttributes(); ++attr) {
    const auto& col = data.Column(attr);
    if (col.empty()) continue;
    const auto [lo, hi] = std::minmax_element(col.begin(), col.end());
    POPP_RETURN_IF_ERROR(CheckFitRange(data.schema().AttributeName(attr), *lo,
                                       *hi, options));
  }
  return Status::Ok();
}

const PiecewiseTransform& TransformPlan::transform(size_t attr) const {
  POPP_CHECK_MSG(attr < transforms_.size(), "bad attribute " << attr);
  return transforms_[attr];
}

AttrValue TransformPlan::Encode(size_t attr, AttrValue v) const {
  return transform(attr).Apply(v);
}

AttrValue TransformPlan::Decode(size_t attr, AttrValue v) const {
  return transform(attr).Inverse(v);
}

Dataset TransformPlan::EncodeDataset(const Dataset& data,
                                     const ExecPolicy& exec) const {
  POPP_CHECK_MSG(data.NumAttributes() == transforms_.size(),
                 "plan/dataset attribute count mismatch");
  const size_t rows = data.NumRows();
  std::vector<std::vector<AttrValue>> columns(transforms_.size());
  ParallelFor(exec, transforms_.size(), [&](size_t attr) {
    const std::vector<AttrValue>& in = data.Column(attr);
    const PiecewiseTransform& f = transforms_[attr];
    std::vector<AttrValue> out(rows);
    for (size_t r = 0; r < rows; ++r) {
      out[r] = f.Apply(in[r]);
    }
    columns[attr] = std::move(out);
  });
  return Dataset(data.schema(), std::move(columns), data.labels());
}

std::string TransformPlan::Describe(const Schema& schema) const {
  std::ostringstream oss;
  for (size_t attr = 0; attr < transforms_.size(); ++attr) {
    oss << schema.AttributeName(attr) << ": "
        << transforms_[attr].Describe();
  }
  return oss.str();
}

}  // namespace popp
