#include "sketch/dyadic_count_min.h"

#include <algorithm>
#include <cstddef>

#include "common/byte_buffer.h"
#include "common/check.h"
#include "common/prng.h"
#include "common/wrapping.h"
#include "telemetry/telemetry.h"

namespace sketch {

namespace {
constexpr uint64_t kDyadicMagic = 0x534b4459434d3031ULL;  // "SKDYCM01"

/// Seed of level `level` (1-based), derived from the sketch's seed.
uint64_t LevelSeed(uint64_t seed, uint64_t level) {
  return SplitMix64Once(seed + 1000 * level);
}
}  // namespace

DyadicCountMin::DyadicCountMin(int log_universe, uint64_t width,
                               uint64_t depth, uint64_t seed)
    : log_universe_(log_universe) {
  SKETCH_CHECK(log_universe >= 1 && log_universe <= 40);
  levels_.reserve(log_universe);
  for (int l = 1; l <= log_universe; ++l) {
    levels_.emplace_back(width, depth, LevelSeed(seed, l));
  }
}

void DyadicCountMin::Update(const StreamUpdate& update) {
  SKETCH_DCHECK(update.item < (1ULL << log_universe_));
  total_ = WrapAdd(total_, update.delta);
  for (int l = 1; l <= log_universe_; ++l) {
    const uint64_t prefix = update.item >> (log_universe_ - l);
    levels_[l - 1].Update({prefix, update.delta});
  }
}

void DyadicCountMin::UpdateAll(const std::vector<StreamUpdate>& updates) {
  ApplyBatch(updates);
}

void DyadicCountMin::ApplyBatch(UpdateSpan updates) {
  // Level-major traversal: per block of updates, build each level's prefix
  // block once and hand it to that level's kernelized CountMin ApplyBatch.
  // This keeps one level's hash coefficients and counter rows hot instead
  // of cycling through all `log_universe_` levels per item. Bit-identical
  // to per-item Update() because counter addition commutes.
  SKETCH_TRACE_SPAN("dyadic.apply_batch");
  SKETCH_COUNTER_ADD("sketch.dyadic.batched_updates", updates.size());
  constexpr std::size_t kBlock = 256;
  StreamUpdate prefixes[kBlock];
  const std::size_t total = updates.size();
  for (std::size_t start = 0; start < total; start += kBlock) {
    const std::size_t n = std::min(kBlock, total - start);
    const StreamUpdate* block = updates.data() + start;
    for (std::size_t i = 0; i < n; ++i) {
      SKETCH_DCHECK(block[i].item < (1ULL << log_universe_));
      total_ = WrapAdd(total_, block[i].delta);
    }
    for (int l = 1; l <= log_universe_; ++l) {
      const int shift = log_universe_ - l;
      for (std::size_t i = 0; i < n; ++i) {
        prefixes[i] = {block[i].item >> shift, block[i].delta};
      }
      levels_[static_cast<std::size_t>(l - 1)].ApplyBatch(
          UpdateSpan(prefixes, n));
    }
  }
}

int64_t DyadicCountMin::Estimate(uint64_t item) const {
  return levels_.back().Estimate(item);
}

std::vector<uint64_t> DyadicCountMin::HeavyHitters(int64_t threshold) const {
  SKETCH_CHECK(threshold > 0);
  std::vector<uint64_t> result;
  // Frontier of candidate prefixes at the current level.
  std::vector<uint64_t> frontier = {0, 1};
  for (int l = 1; l <= log_universe_; ++l) {
    std::vector<uint64_t> next;
    for (uint64_t prefix : frontier) {
      if (levels_[l - 1].Estimate(prefix) < threshold) continue;
      if (l == log_universe_) {
        result.push_back(prefix);
      } else {
        next.push_back(prefix << 1);
        next.push_back((prefix << 1) | 1);
      }
    }
    frontier = std::move(next);
    if (l < log_universe_ && frontier.empty()) break;
  }
  std::sort(result.begin(), result.end());
  return result;
}

int64_t DyadicCountMin::RangeSum(uint64_t lo, uint64_t hi) const {
  SKETCH_CHECK(lo <= hi);
  SKETCH_CHECK(hi < (1ULL << log_universe_));
  // Decompose [lo, hi] into maximal dyadic intervals, summing each from
  // the sketch of the appropriate level. An interval of size 2^s aligned
  // at a multiple of 2^s is the node (lo >> s) at level log_universe - s.
  int64_t sum = 0;
  uint64_t cur = lo;
  while (cur <= hi) {
    // Largest aligned power-of-two block starting at cur that fits.
    int s = (cur == 0) ? log_universe_
                       : std::min<int>(log_universe_, __builtin_ctzll(cur));
    while (s > 0 &&
           (cur + (1ULL << s) - 1 > hi || cur + (1ULL << s) - 1 < cur)) {
      --s;
    }
    const int level = log_universe_ - s;
    if (level == 0) {
      sum += total_;  // whole-universe block
    } else {
      sum += levels_[level - 1].Estimate(cur >> s);
    }
    const uint64_t block = 1ULL << s;
    if (cur > hi - block + 1) break;  // avoid overflow at universe end
    cur += block;
    if (cur == 0) break;  // wrapped
  }
  return sum;
}

uint64_t DyadicCountMin::Quantile(double q) const {
  SKETCH_CHECK(q >= 0.0 && q <= 1.0);
  const auto target = static_cast<int64_t>(q * static_cast<double>(total_));
  // Binary-search the item domain using prefix sums; descend the dyadic
  // tree keeping the running mass to the left of the current node.
  uint64_t prefix = 0;
  int64_t mass_left = 0;
  for (int l = 1; l <= log_universe_; ++l) {
    const uint64_t left_child = prefix << 1;
    const int64_t left_mass = levels_[l - 1].Estimate(left_child);
    if (mass_left + left_mass >= target) {
      prefix = left_child;
    } else {
      mass_left += left_mass;
      prefix = left_child | 1;
    }
  }
  return prefix;
}

void DyadicCountMin::Merge(const DyadicCountMin& other) {
  SKETCH_CHECK_MSG(log_universe_ == other.log_universe_ &&
                       levels_.size() == other.levels_.size(),
                   "merge requires identical geometry and seed");
  for (size_t l = 0; l < levels_.size(); ++l) {
    levels_[l].Merge(other.levels_[l]);  // checks width/depth/seed
  }
  total_ = WrapAdd(total_, other.total_);
}

uint64_t DyadicCountMin::SizeInCounters() const {
  uint64_t total = 0;
  for (const CountMinSketch& s : levels_) total += s.SizeInCounters();
  return total;
}

uint64_t DyadicCountMin::MemoryFootprintBytes() const {
  // Each level reports sizeof(CountMinSketch) plus its heap allocations,
  // so only the container slack is added on top of this object.
  uint64_t bytes = sizeof(*this) + (levels_.capacity() - levels_.size()) *
                                       sizeof(CountMinSketch);
  for (const CountMinSketch& s : levels_) bytes += s.MemoryFootprintBytes();
  return bytes;
}

void DyadicCountMin::AppendSerialized(std::vector<uint8_t>* out) const {
  // Header: magic, log_universe, total, width, depth (all levels share
  // geometry). Payload: log_universe full CountMin blobs, each of the
  // fixed size (4 + width * depth) words, carrying its own derived seed.
  const uint64_t width = levels_.front().width();
  const uint64_t depth = levels_.front().depth();
  AppendU64(kDyadicMagic, out);
  AppendU64(static_cast<uint64_t>(log_universe_), out);
  AppendI64(total_, out);
  AppendU64(width, out);
  AppendU64(depth, out);
  for (const CountMinSketch& level : levels_) level.AppendSerialized(out);
}

std::vector<uint8_t> DyadicCountMin::Serialize() const {
  return SerializedBytes(*this);
}

std::optional<DyadicCountMin> DyadicCountMin::TryDeserialize(
    std::span<const uint8_t> bytes, std::string* error,
    std::optional<uint64_t> seed) {
  ByteReader reader(bytes);
  uint64_t header[5] = {};
  if (!reader.ReadWords(header)) {
    return FailDecode(error, "truncated sketch buffer");
  }
  const auto [magic, log_universe, total, width, depth] = header;
  if (magic != kDyadicMagic) {
    return FailDecode(error, "not a DyadicCountMin buffer");
  }
  if (log_universe < 1 || log_universe > 40) {
    return FailDecode(error, "invalid DyadicCountMin universe");
  }
  if (width < 1 || depth < 1) {
    return FailDecode(error, "invalid DyadicCountMin geometry");
  }
  uint64_t cells = 0;
  uint64_t table_words = 0;
  if (!CheckedMulU64(width, depth, &cells) || cells > UINT64_MAX - 4 ||
      !CheckedMulU64(log_universe, 4 + cells, &table_words)) {
    return FailDecode(error, "DyadicCountMin geometry overflows");
  }
  if (!CheckSerializedSize(bytes, reader.words_read(), table_words)) {
    return FailDecode(error,
                      "DyadicCountMin buffer size does not match geometry");
  }
  // Each level is a whole CountMin buffer, {magic, width, depth, seed}
  // then its counters. Its own geometry fields determine only its size, so
  // pin them to the header first: a crafted buffer cannot smuggle in
  // levels whose (width, depth) factorization differs from it.
  ByteReader levels = reader;
  for (uint64_t l = 1; l <= log_universe; ++l) {
    std::span<const uint8_t> level;
    uint64_t level_header[4] = {};
    reader.ReadSpan(4 + cells, &level);
    ByteReader(level).ReadWords(level_header);
    if (level_header[1] != width || level_header[2] != depth) {
      return FailDecode(error, "DyadicCountMin level geometry mismatch");
    }
    if (seed && level_header[3] != LevelSeed(*seed, l)) {
      return FailDecode(error, "DyadicCountMin level seed mismatch");
    }
  }
  DyadicCountMin sketch;
  sketch.log_universe_ = static_cast<int>(log_universe);
  sketch.total_ = static_cast<int64_t>(total);
  sketch.levels_.reserve(log_universe);
  for (uint64_t l = 1; l <= log_universe; ++l) {
    std::span<const uint8_t> level;
    levels.ReadSpan(4 + cells, &level);
    std::optional<CountMinSketch> decoded =
        CountMinSketch::TryDeserialize(level, error);
    if (!decoded) return std::nullopt;
    sketch.levels_.push_back(std::move(*decoded));
  }
  return sketch;
}

StatsSnapshot DyadicCountMin::Introspect() const {
  StatsSnapshot snapshot;
  snapshot.type = "DyadicCountMin";
  snapshot.memory_bytes = MemoryFootprintBytes();
  snapshot.cells = SizeInCounters();
  snapshot.AddField("log_universe", static_cast<double>(log_universe_));
  snapshot.AddField("levels", static_cast<double>(levels_.size()));
  snapshot.AddField("total_count", static_cast<double>(total_));
  snapshot.children.reserve(levels_.size());
  for (const CountMinSketch& s : levels_) {
    snapshot.children.push_back(s.Introspect());
  }
  return snapshot;
}

}  // namespace sketch
