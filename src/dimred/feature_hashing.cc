#include "dimred/feature_hashing.h"

#include "common/check.h"
#include "common/prng.h"
#include "hash/string_key.h"

namespace sketch {

namespace {
constexpr RowHashing kFeatureRows = {
    [](uint64_t s, uint64_t) { return SplitMix64Once(s * 7 + 1); },
    [](uint64_t s, uint64_t) { return SplitMix64Once(~s * 7 + 3); },
    2};
}  // namespace

FeatureHasher::FeatureHasher(uint64_t output_dim, uint64_t seed)
    : rows_(output_dim, 1, seed, kFeatureRows) {}

uint64_t FeatureHasher::FeatureId(std::string_view name) {
  return StringKeyId(name);
}

void FeatureHasher::AddFeature(std::string_view name, double value,
                               std::vector<double>* out) const {
  SKETCH_CHECK(out->size() == output_dim());
  const uint64_t id = FeatureId(name);
  (*out)[rows_.BucketOf(0, id)] +=
      static_cast<double>(rows_.SignOf(0, id)) * value;
}

std::vector<double> FeatureHasher::HashFeatures(
    const std::vector<std::pair<std::string_view, double>>& features) const {
  std::vector<double> out(output_dim(), 0.0);
  for (const auto& [name, value] : features) AddFeature(name, value, &out);
  return out;
}

}  // namespace sketch
