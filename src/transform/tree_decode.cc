#include "transform/tree_decode.h"

#include <algorithm>
#include <functional>
#include <vector>

#include "transform/compiled.h"
#include "util/status.h"

namespace popp {
namespace {

/// Recursive pure-function decode; returns the new node's id in `out`.
NodeId DecodePure(const DecisionTree& tprime, NodeId id,
                  const TransformPlan& plan, DecisionTree& out) {
  const auto& n = tprime.node(id);
  if (n.is_leaf) {
    return out.AddLeaf(n.label, n.class_hist);
  }
  const PiecewiseTransform::ThresholdDecode decode =
      plan.transform(n.attribute).InverseThreshold(n.threshold);
  NodeId left_src = n.left;
  NodeId right_src = n.right;
  if (decode.order_reversed) {
    std::swap(left_src, right_src);
  }
  const NodeId left = DecodePure(tprime, left_src, plan, out);
  const NodeId right = DecodePure(tprime, right_src, plan, out);
  return out.AddInternal(n.attribute, decode.value, left, right,
                         n.class_hist);
}

}  // namespace

DecisionTree DecodeTree(const DecisionTree& tprime,
                        const TransformPlan& plan) {
  DecisionTree out;
  if (tprime.empty()) return out;
  out.SetRoot(DecodePure(tprime, tprime.root(), plan, out));
  return out;
}

DecisionTree DecodeTreeWithData(const DecisionTree& tprime,
                                const TransformPlan& plan,
                                const Dataset& original) {
  DecisionTree out;
  if (tprime.empty()) return out;

  const Dataset encoded = CompiledPlan::Compile(plan).EncodeDataset(original);

  std::function<NodeId(NodeId, const std::vector<size_t>&)> walk =
      [&](NodeId id, const std::vector<size_t>& rows) -> NodeId {
    const auto& n = tprime.node(id);
    if (n.is_leaf) {
      return out.AddLeaf(n.label, n.class_hist);
    }
    std::vector<size_t> left_rows, right_rows;
    for (size_t r : rows) {
      (encoded.Value(r, n.attribute) <= n.threshold ? left_rows : right_rows)
          .push_back(r);
    }
    if (left_rows.empty() || right_rows.empty()) {
      // The node does not separate any custodian tuples (possible only if
      // T' was mined from different data); fall back to pure inversion.
      return DecodePure(tprime, id, plan, out);
    }
    // Original-space value ranges of the two sides.
    auto range_of = [&](const std::vector<size_t>& side) {
      AttrValue lo = original.Value(side[0], n.attribute);
      AttrValue hi = lo;
      for (size_t r : side) {
        const AttrValue v = original.Value(r, n.attribute);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      return std::pair<AttrValue, AttrValue>{lo, hi};
    };
    const auto [lmin, lmax] = range_of(left_rows);
    const auto [rmin, rmax] = range_of(right_rows);

    if (lmax < rmin) {
      // Order preserved: left side holds the smaller original values.
      const AttrValue threshold = lmax + (rmin - lmax) / 2;
      const NodeId left = walk(n.left, left_rows);
      const NodeId right = walk(n.right, right_rows);
      return out.AddInternal(n.attribute, threshold, left, right,
                             n.class_hist);
    }
    POPP_CHECK_MSG(rmax < lmin,
                   "decode: sides interleave in original space — either the "
                   "plan does not match the data T' was mined from, or the "
                   "split threshold falls inside a bijective/direction-free "
                   "piece (possible when the miner's best feasible split is "
                   "interior to a label run, e.g. kAllBoundaries with "
                   "min_leaf_size > 1), where no original-space threshold "
                   "reproduces the routing");
    // Order reversed around this threshold: T''s right side holds the
    // smaller original values, so it becomes the decoded left subtree.
    const AttrValue threshold = rmax + (lmin - rmax) / 2;
    const NodeId left = walk(n.right, right_rows);
    const NodeId right = walk(n.left, left_rows);
    return out.AddInternal(n.attribute, threshold, left, right,
                           n.class_hist);
  };

  std::vector<size_t> rows(original.NumRows());
  for (size_t r = 0; r < rows.size(); ++r) rows[r] = r;
  out.SetRoot(walk(tprime.root(), rows));
  return out;
}

}  // namespace popp
