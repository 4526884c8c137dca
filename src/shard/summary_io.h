#ifndef POPP_SHARD_SUMMARY_IO_H_
#define POPP_SHARD_SUMMARY_IO_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "shard/planner.h"
#include "stream/incremental_summary.h"
#include "util/status.h"

/// \file
/// Serialization of one shard worker's summarize-phase result. Forked
/// (`--workers-mode process`) workers hand their `IncrementalSummary` to
/// the coordinator through these CRC64-footered artifacts; thread workers
/// pass the same struct in memory. The encoding is exact — attribute
/// values travel as 64-bit IEEE bit patterns, never through decimal — so a
/// summary survives the round trip bit-identical and the merged fit stays
/// byte-equal to the single-process release.
///
///     popp-shard-summary v2
///     shard <k> <num_shards>
///     range <begin> <end|open>
///     rows <n>
///     attributes <m>
///     names <a>
///     name <hex-encoded attribute name> (a lines, schema order)
///     classes <c>
///     class <hex-encoded name>          (c lines, shard-local id order)
///     value <attr> <bits> <n0> <n1> ... (per-class counts, padded to c)
///     footer <payload-bytes> <crc64>
///
/// An all-empty shard (zero rows) serializes with `attributes 0` and no
/// value lines.

namespace popp::shard {

/// One worker's phase-1 result: the summary plus the shard-local class
/// dictionary (first-appearance order) the coordinator needs to remap
/// class ids into the global dictionary before merging, and the attribute
/// names the coordinator's fit quotes in its diagnostics.
struct ShardSummary {
  size_t shard_index = 0;
  size_t num_shards = 1;
  ShardRange range;
  /// Class names in shard-local ClassId order; size equals the summary's
  /// NumClasses(). Empty for an empty shard.
  std::vector<std::string> class_names;
  /// Attribute names in schema order. Empty for an empty shard.
  std::vector<std::string> attribute_names;
  /// Absent when the shard's range holds no rows.
  std::optional<stream::IncrementalSummary> summary;
};

class SummaryCodec {
 public:
  /// Renders the artifact text, integrity footer included.
  static std::string Serialize(const ShardSummary& shard);

  /// Strict inverse of Serialize. kDataLoss on any corruption — footer
  /// mismatch, truncation, or a malformed line.
  static Result<ShardSummary> Parse(std::string_view text);

  /// Atomic (temp + rename) save / integrity-checked load.
  static Status Save(const ShardSummary& shard, const std::string& path);
  static Result<ShardSummary> Load(const std::string& path);

  /// Returns `in` with every class id `c` moved to `local_to_global[c]`
  /// and the class dimension widened to `num_global_classes`. Row and
  /// per-(value, class) counts are preserved exactly.
  static stream::IncrementalSummary RemapClasses(
      const stream::IncrementalSummary& in,
      const std::vector<size_t>& local_to_global, size_t num_global_classes);
};

}  // namespace popp::shard

#endif  // POPP_SHARD_SUMMARY_IO_H_
