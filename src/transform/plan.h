#ifndef POPP_TRANSFORM_PLAN_H_
#define POPP_TRANSFORM_PLAN_H_

#include <string>
#include <vector>

#include "data/dataset.h"
#include "parallel/exec_policy.h"
#include "transform/piecewise.h"
#include "util/rng.h"
#include "util/status.h"

/// \file
/// A TransformPlan is the custodian's complete encoding key for one
/// dataset: one PiecewiseTransform per attribute (the vector of
/// transformations f of Section 3.1). It encodes D into D' for release and
/// decodes values/thresholds of the mining outcome back into the original
/// space. Class labels are never transformed (the paper transforms
/// attribute values only).

namespace popp {

class TransformPlan {
 public:
  TransformPlan() = default;

  /// Samples a fresh plan for `data`, using the same options for every
  /// attribute. Every attribute must have at least one value. Attributes
  /// are processed under `exec` (serial by default); the plan is
  /// bit-identical for every thread count because each attribute draws
  /// from its own index-derived RNG stream.
  static TransformPlan Create(const Dataset& data,
                              const PiecewiseOptions& options, Rng& rng,
                              const ExecPolicy& exec = {});

  /// Samples a plan with per-attribute options; `options.size()` must
  /// equal data.NumAttributes().
  static TransformPlan CreatePerAttribute(
      const Dataset& data, const std::vector<PiecewiseOptions>& options,
      Rng& rng, const ExecPolicy& exec = {});

  /// Samples a plan from precomputed per-attribute summaries (one per
  /// attribute, each non-empty). Consumes `rng` exactly like Create on a
  /// dataset with these summaries, so a fit from incrementally merged
  /// chunk summaries (src/stream) is byte-identical to the batch fit for
  /// the same seed.
  static TransformPlan CreateFromSummaries(
      const std::vector<AttributeSummary>& summaries,
      const PiecewiseOptions& options, Rng& rng, const ExecPolicy& exec = {});

  /// Reassembles a plan from explicit per-attribute transforms
  /// (deserialization).
  static TransformPlan FromTransforms(
      std::vector<PiecewiseTransform> transforms);

  size_t NumAttributes() const { return transforms_.size(); }

  const PiecewiseTransform& transform(size_t attr) const;

  /// Encodes one value of attribute `attr`.
  AttrValue Encode(size_t attr, AttrValue v) const;

  /// Decodes one transformed value of attribute `attr`.
  AttrValue Decode(size_t attr, AttrValue v) const;

  /// Produces D': every attribute column transformed, labels unchanged.
  /// `data` must have the same number of attributes as the plan.
  /// Attributes are encoded under `exec` (serial by default) into freshly
  /// allocated columns (no copy-then-overwrite); the output is
  /// bit-identical at every thread count.
  Dataset EncodeDataset(const Dataset& data, const ExecPolicy& exec = {}) const;

  /// Renders the decoding key the custodian stores: per attribute, the
  /// breakpoints and the function used in each piece (Section 5.4 notes
  /// this is all that must be kept).
  std::string Describe(const Schema& schema) const;

 private:
  std::vector<PiecewiseTransform> transforms_;
};

/// Guards a fit against ranges it cannot represent: the fit draws output
/// bounds up to |lo| + (max |offset| + max width factor) * (hi - lo), and
/// near the double limits (a column spanning -1e308..1e308) that
/// overflows. InvalidArgument naming `attribute` and its range if the
/// active domain [lo, hi] cannot be fitted under `options`; a non-finite
/// bound is rejected too. Every fitting surface checks this first.
Status CheckFitRange(const std::string& attribute, AttrValue lo, AttrValue hi,
                     const PiecewiseOptions& options);

/// CheckFitRange over every attribute of `data` (the batch fits' guard).
Status CheckFitRanges(const Dataset& data, const PiecewiseOptions& options);

}  // namespace popp

#endif  // POPP_TRANSFORM_PLAN_H_
