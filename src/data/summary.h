#ifndef POPP_DATA_SUMMARY_H_
#define POPP_DATA_SUMMARY_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "data/value.h"

/// \file
/// Distinct-value summary of one attribute: the domain-level view on which
/// most of the paper's machinery operates (label runs, monochromatic
/// analysis, ChooseBP/ChooseMaxMP, domain-disclosure attacks).
///
/// Summarizing first makes 500-trial experiments cheap: a trial touches
/// O(#distinct values) state instead of O(#tuples).

namespace popp {

/// Sorted distinct values of an attribute with a per-value class histogram.
class AttributeSummary {
 public:
  AttributeSummary() = default;

  /// Builds the summary of `attr` from `data`. O(n log n).
  static AttributeSummary FromDataset(const Dataset& data, size_t attr);

  /// Builds a summary directly from value/label pairs (need not be sorted).
  static AttributeSummary FromTuples(std::vector<ValueLabel> tuples,
                                     size_t num_classes);

  /// Builds a summary from tuples already sorted by value — one linear
  /// scan, no sort. FromTuples sorts and then delegates here.
  /// Sortedness is checked in debug builds.
  static AttributeSummary FromSortedTuples(const std::vector<ValueLabel>& tuples,
                                           size_t num_classes);

  /// Rebuilds this summary in place from a value-sorted, bin-coded element
  /// slice: elems[i] is a packed (bin, row, label) word (data/binned_elem.h)
  /// whose bin is the dense rank of the i-th tuple's value (ascending,
  /// equal values share a code), and bin_values maps codes back to exact
  /// values. Produces exactly what FromTuples would on the raw pairs, but
  /// in one branch-light linear scan with all vector capacity reused — the
  /// frontier builder calls this once per (node, attribute) with a
  /// per-worker scratch summary.
  void AssignFromBinnedSlice(const uint64_t* elems, size_t n,
                             const AttrValue* bin_values, size_t num_classes);

  /// Rebuilds this summary in place as the exact difference `full - part`:
  /// the summary of the tuple multiset left when `part`'s tuples are
  /// removed from `full`'s. `part` must be a sub-multiset of `full` whose
  /// values are (bit-for-bit) drawn from `full`'s value table — the
  /// frontier builder guarantees this, since both children of a split
  /// share the parent's bin table. All arithmetic is integer subtraction
  /// on stored counts; values whose count reaches zero are dropped, so the
  /// result is field-for-field identical to summarizing the remaining
  /// tuples directly. This is what lets the builder scan only the smaller
  /// child of each split and derive the larger sibling's summary in
  /// O(parent distinct * classes) instead of O(sibling rows).
  void AssignDifference(const AttributeSummary& full,
                        const AttributeSummary& part);

  /// Rebuilds this summary in place as the value-index range [begin, end)
  /// of `full` — pure copies of the stored values, totals and class
  /// counts, no arithmetic. A binary split is a boundary over the parent's
  /// distinct values, so on the SPLIT attribute each child's summary is
  /// exactly such a range of the parent's ([0, boundary) left,
  /// [boundary, n) right — a split never divides a value), and the
  /// builder uses this instead of a rescan or subtraction there. The
  /// result is field-for-field identical to summarizing the child's
  /// tuples directly. Requires begin < end <= NumDistinct().
  void AssignRange(const AttributeSummary& full, size_t begin, size_t end);

  /// Builds a summary directly from domain-level state: strictly increasing
  /// distinct values and a row-major [value x class] count matrix
  /// (`class_counts.size() == values.size() * num_classes`). This is the
  /// streaming path — an IncrementalSummary merged over chunks reassembles
  /// the exact batch summary without ever materializing the tuples.
  static AttributeSummary FromDistinctCounts(std::vector<AttrValue> values,
                                             std::vector<uint32_t> class_counts,
                                             size_t num_classes);

  size_t NumDistinct() const { return values_.size(); }
  size_t NumClasses() const { return num_classes_; }
  size_t NumTuples() const { return num_tuples_; }
  bool empty() const { return values_.empty(); }

  /// Sorted distinct values (the active domain delta(A)).
  const std::vector<AttrValue>& values() const { return values_; }

  AttrValue ValueAt(size_t i) const { return values_[i]; }
  AttrValue MinValue() const;
  AttrValue MaxValue() const;

  /// Number of tuples having the i-th distinct value.
  uint32_t CountAt(size_t i) const { return totals_[i]; }

  /// Number of tuples with the i-th distinct value and class `c`.
  uint32_t ClassCountAt(size_t i, ClassId c) const;

  /// The i-th value's class-count row, NumClasses() entries (the flat
  /// storage behind ClassCountAt — lets the split scan's inner loops read
  /// one value's counts without re-deriving the row offset per class).
  const uint32_t* ClassCountsRow(size_t i) const {
    return &class_counts_[i * num_classes_];
  }

  /// True iff all tuples carrying the i-th value share one class label
  /// (Definition 9: a *monochromatic* value).
  bool IsMonochromatic(size_t i) const;

  /// The single class of a monochromatic value, or kNoClass otherwise.
  ClassId MonoClassAt(size_t i) const;

  /// Width of the dynamic range in units of `step` (for integer domains,
  /// step=1 makes this max - min + 1, matching the paper's Figure 8).
  double DynamicRangeWidth(double step = 1.0) const;

  /// Number of *discontinuities*: grid points of the dynamic range (with
  /// spacing `step`) at which no tuple occurs. For integer domains this is
  /// DynamicRangeWidth - NumDistinct, the quantity the paper derives from
  /// Figure 8 and uses in Figure 11.
  size_t NumDiscontinuities(double step = 1.0) const;

  /// Index of `v` in values(), or npos if absent. O(log n).
  static constexpr size_t npos = static_cast<size_t>(-1);
  size_t IndexOf(AttrValue v) const;

  /// Aggregate class histogram over all tuples.
  std::vector<size_t> ClassHistogram() const;

 private:
  std::vector<AttrValue> values_;               // sorted distinct
  std::vector<uint32_t> totals_;                // tuples per value
  std::vector<uint32_t> class_counts_;          // [i * num_classes_ + c]
  size_t num_classes_ = 0;
  size_t num_tuples_ = 0;
};

}  // namespace popp

#endif  // POPP_DATA_SUMMARY_H_
