#include "serve/plan_cache.h"

#include <utility>

#include "util/crc64.h"
#include "util/exact_double.h"
#include "util/status.h"

namespace popp::serve {
namespace {

void AppendDelimited(std::string* out, const std::string& piece) {
  out->append(std::to_string(piece.size()));
  out->push_back(':');
  out->append(piece);
}

}  // namespace

uint64_t SchemaFingerprint(const Schema& schema) {
  // Length-delimited so ("ab","c") and ("a","bc") cannot collide.
  std::string canon = "schema/";
  canon += std::to_string(schema.NumAttributes());
  canon.push_back('/');
  for (const std::string& name : schema.attribute_names()) {
    AppendDelimited(&canon, name);
  }
  canon += "/classes/";
  canon += std::to_string(schema.NumClasses());
  canon.push_back('/');
  for (const std::string& name : schema.class_names()) {
    AppendDelimited(&canon, name);
  }
  return Crc64(canon);
}

std::string PolicyFingerprint(const PiecewiseOptions& o) {
  // Knobs render exactly (ExactDouble), so distinct settings cannot
  // collide into one fingerprint.
  std::string s = "policy=" + ToString(o.policy);
  s += " w=" + std::to_string(o.min_breakpoints);
  s += " minmono=" + std::to_string(o.min_mono_width);
  s += " exploit=" + std::to_string(o.exploit_monochromatic ? 1 : 0);
  s += " anti=" + std::to_string(o.global_anti_monotone ? 1 : 0);
  s += " shape=" + std::to_string(static_cast<int>(o.family.forced_shape));
  s += " fam=";
  s += o.family.allow_linear ? 'L' : '-';
  s += o.family.allow_polynomial ? 'P' : '-';
  s += o.family.allow_log ? 'G' : '-';
  s += o.family.allow_sqrt_log ? 'S' : '-';
  s += " pow=" + ExactDouble(o.family.min_power) + ".." +
       ExactDouble(o.family.max_power);
  s += " alpha=" + ExactDouble(o.family.min_alpha) + ".." +
       ExactDouble(o.family.max_alpha);
  s += " antiprob=" + ExactDouble(o.family.anti_monotone_prob);
  s += " width=" + ExactDouble(o.out_width_factor_min) + ".." +
       ExactDouble(o.out_width_factor_max);
  s += " offset=" + ExactDouble(o.out_offset_min) + ".." +
       ExactDouble(o.out_offset_max);
  s += " gap=" + ExactDouble(o.gap_fraction);
  s += " skew=" + ExactDouble(o.width_split_skew);
  return s;
}

std::string PlanKey::Render() const {
  return Crc64Hex(schema_fp) + "/" + std::to_string(seed) + "/" + policy;
}

PlanKey PlanKey::Make(const Schema& schema, uint64_t seed,
                      const PiecewiseOptions& options) {
  return PlanKey{SchemaFingerprint(schema), seed, PolicyFingerprint(options)};
}

PlanCache::PlanCache(size_t capacity) : capacity_(capacity) {
  POPP_CHECK_MSG(capacity_ >= 1, "plan cache capacity must be >= 1");
  stats_.capacity = capacity_;
}

const CachedPlan* PlanCache::Lookup(const PlanKey& key) {
  const auto it = entries_.find(key.Render());
  if (it == entries_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);  // promote to front
  return &it->second->plan;
}

const CachedPlan* PlanCache::Insert(const PlanKey& key, CachedPlan plan) {
  std::string rendered = key.Render();
  const auto it = entries_.find(rendered);
  if (it != entries_.end()) {
    it->second->plan = std::move(plan);
    lru_.splice(lru_.begin(), lru_, it->second);
    stats_.resident = entries_.size();
    return &it->second->plan;
  }
  lru_.push_front(Entry{rendered, std::move(plan)});
  entries_[std::move(rendered)] = lru_.begin();
  while (entries_.size() > capacity_) {
    entries_.erase(lru_.back().rendered_key);
    lru_.pop_back();
    ++stats_.evictions;
  }
  stats_.resident = entries_.size();
  return &lru_.front().plan;
}

}  // namespace popp::serve
