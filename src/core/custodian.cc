#include "core/custodian.h"

#include "tree/compare.h"
#include "util/rng.h"
#include "util/status.h"

namespace popp {

Custodian::Custodian(Dataset data, CustodianOptions options)
    : original_(std::move(data)), options_(options) {
  POPP_CHECK_MSG(original_.NumRows() > 0, "custodian needs data");
  Rng rng(options_.seed);
  plan_ = TransformPlan::Create(original_, options_.transform, rng,
                                options_.exec);
  compiled_ = CompiledPlan::Compile(plan_);
}

Dataset Custodian::Release() const {
  return compiled_.EncodeDataset(original_, options_.exec);
}

DecisionTree Custodian::MineReleased() const {
  const DecisionTreeBuilder builder(options_.tree, options_.exec);
  return builder.Build(Release());
}

DecisionTree Custodian::Decode(const DecisionTree& tprime) const {
  return DecodeTreeWithData(tprime, plan_, original_);
}

DecisionTree Custodian::MineDirectly() const {
  const DecisionTreeBuilder builder(options_.tree, options_.exec);
  return builder.Build(original_);
}

bool Custodian::VerifyNoOutcomeChange(std::string* detail) const {
  const DecisionTree direct = MineDirectly();
  const DecisionTree decoded = Decode(MineReleased());
  const std::string diff = DescribeDifference(direct, decoded);
  if (detail != nullptr) {
    *detail = diff;
  }
  return diff.empty();
}

}  // namespace popp
