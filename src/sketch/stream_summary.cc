#include "sketch/stream_summary.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/byte_buffer.h"
#include "common/check.h"
#include "common/wrapping.h"

namespace sketch {

namespace {
constexpr uint64_t kSummaryMagic = 0x534b53554d4d3031ULL;  // "SKSUMM01"

// Seeds of the verifier and AMS components, derived from Options::seed.
uint64_t VerifierSeed(uint64_t seed) { return ~seed; }
uint64_t AmsSeed(uint64_t seed) { return seed + 0x5eedULL; }
}  // namespace

StreamSummary::StreamSummary(const Options& options)
    : options_(options),
      dyadic_(options.log_universe, options.width, options.depth,
              options.seed),
      verifier_(options.verify_width, options.depth | 1,
                VerifierSeed(options.seed)),
      ams_(options.width, options.depth | 1, AmsSeed(options.seed)) {
  SKETCH_CHECK(options.log_universe >= 1 && options.log_universe <= 40);
}

StreamSummary::StreamSummary(const Options& options, DyadicCountMin dyadic,
                             CountSketch verifier, AmsSketch ams)
    : options_(options),
      dyadic_(std::move(dyadic)),
      verifier_(std::move(verifier)),
      ams_(std::move(ams)) {}

void StreamSummary::Update(const StreamUpdate& update) {
  dyadic_.Update(update);
  verifier_.Update(update);
  ams_.Update(update);
}

void StreamSummary::UpdateAll(const std::vector<StreamUpdate>& updates) {
  ApplyBatch(updates);
}

void StreamSummary::ApplyBatch(UpdateSpan updates) {
  for (const StreamUpdate& u : updates) Update(u);
}

int64_t StreamSummary::EstimateCount(uint64_t item) const {
  const int64_t upper = dyadic_.Estimate(item);   // never too low
  const int64_t unbiased = verifier_.Estimate(item);
  // Count-Min bounds from above; when the unbiased estimate is smaller in
  // magnitude it is the better point estimate (typical under collisions).
  return Magnitude(unbiased) < Magnitude(upper) ? unbiased : upper;
}

std::vector<uint64_t> StreamSummary::HeavyHitters(double phi) const {
  SKETCH_CHECK(phi > 0.0 && phi < 1.0);
  const auto threshold = static_cast<int64_t>(
      phi * static_cast<double>(dyadic_.TotalCount()));
  if (threshold <= 0) return {};
  std::vector<uint64_t> candidates = dyadic_.HeavyHitters(threshold);
  // Verification pass: prune candidates the unbiased estimator places
  // clearly below the threshold. The 0.8 slack absorbs the Count-Sketch's
  // own noise so borderline *true* hitters are never pruned (recall stays
  // 1); Count-Min ghosts typically estimate near zero and are removed.
  std::erase_if(candidates, [&](uint64_t item) {
    return static_cast<double>(verifier_.Estimate(item)) <
           0.8 * static_cast<double>(threshold);
  });
  return candidates;
}

void StreamSummary::Merge(const StreamSummary& other) {
  SKETCH_CHECK_MSG(options_.log_universe == other.options_.log_universe &&
                       options_.width == other.options_.width &&
                       options_.depth == other.options_.depth &&
                       options_.verify_width == other.options_.verify_width &&
                       options_.seed == other.options_.seed,
                   "merge requires identical geometry and seed");
  // DyadicCountMin has no Merge (its levels are independent CountMin
  // sketches built from the same seeds) — merge by replaying is not
  // possible from the sketch alone, so the dyadic layer exposes Merge via
  // its per-level sketches. Implemented here through the public API of
  // each component.
  dyadic_.Merge(other.dyadic_);
  verifier_.Merge(other.verifier_);
  ams_.Merge(other.ams_);
}

uint64_t StreamSummary::SizeInCounters() const {
  return dyadic_.SizeInCounters() + verifier_.SizeInCounters() +
         options_.width * (options_.depth | 1);
}

uint64_t StreamSummary::MemoryFootprintBytes() const {
  // The components are inline members, so sizeof(*this) already counts
  // their object bodies; add only each component's heap allocations.
  return sizeof(*this) +
         (dyadic_.MemoryFootprintBytes() - sizeof(DyadicCountMin)) +
         (verifier_.MemoryFootprintBytes() - sizeof(CountSketch)) +
         (ams_.MemoryFootprintBytes() - sizeof(AmsSketch));
}

void StreamSummary::AppendSerialized(std::vector<uint8_t>* out) const {
  // Header: magic + the five Options words + the three component blob
  // lengths in words. Payload: the component blobs, each a self-contained
  // Serialize() buffer (whole little-endian words, so word lengths are
  // exact). The lengths are patched in once each component is appended.
  AppendU64(kSummaryMagic, out);
  AppendU64(static_cast<uint64_t>(options_.log_universe), out);
  AppendU64(options_.width, out);
  AppendU64(options_.depth, out);
  AppendU64(options_.verify_width, out);
  AppendU64(options_.seed, out);
  std::size_t length_at = out->size();
  out->resize(length_at + 3 * 8);
  const auto append_component = [&](const auto& component) {
    const std::size_t start = out->size();
    component.AppendSerialized(out);
    StoreLittleEndian(static_cast<uint64_t>((out->size() - start) / 8),
                      out->data() + length_at);
    length_at += 8;
  };
  append_component(dyadic_);
  append_component(verifier_);
  append_component(ams_);
}

std::vector<uint8_t> StreamSummary::Serialize() const {
  return SerializedBytes(*this);
}

uint64_t StreamSummary::SerializedSizeBytes() const {
  // Every component is division-mode, so every table header is the v1
  // one of 4 words: one per dyadic level, the verifier and the AMS sketch.
  // Add this header's 9 words and DyadicCountMin's 5.
  const uint64_t tables = static_cast<uint64_t>(options_.log_universe) + 2;
  return 8 * (SizeInCounters() + 9 + 5 + 4 * tables);
}

std::optional<StreamSummary> StreamSummary::TryDeserialize(
    std::span<const uint8_t> bytes, std::string* error) {
  ByteReader reader(bytes);
  uint64_t header[9] = {};
  if (!reader.ReadWords(header)) {
    return FailDecode(error, "truncated sketch buffer");
  }
  const auto [magic, log_universe, width, depth, verify_width, seed,
              dyadic_words, verifier_words, ams_words] = header;
  if (magic != kSummaryMagic) {
    return FailDecode(error, "not a StreamSummary buffer");
  }
  if (log_universe < 1 || log_universe > 40) {
    return FailDecode(error, "invalid StreamSummary universe");
  }
  if (width < 1 || depth < 1 || verify_width < 1) {
    return FailDecode(error, "invalid StreamSummary geometry");
  }
  // Lengths past the buffer are rejected first so their sum cannot wrap.
  const uint64_t words = bytes.size() / 8;
  if (dyadic_words > words || verifier_words > words || ams_words > words ||
      !CheckSerializedSize(bytes, reader.words_read(),
                           dyadic_words + verifier_words + ams_words)) {
    return FailDecode(error,
                      "StreamSummary buffer size does not match components");
  }
  std::span<const uint8_t> dyadic_bytes;
  std::span<const uint8_t> verifier_bytes;
  std::span<const uint8_t> ams_bytes;
  reader.ReadSpan(dyadic_words, &dyadic_bytes);
  reader.ReadSpan(verifier_words, &verifier_bytes);
  reader.ReadSpan(ams_words, &ams_bytes);

  // StreamSummary(options) would build exactly these components, so their
  // headers must carry its geometry and derived seeds. They are compared
  // before anything is built, so no allocation is ever sized from the
  // Options alone.
  uint64_t dyadic_header[5] = {};
  uint64_t verifier_header[4] = {};
  uint64_t ams_header[4] = {};
  if (!ByteReader(dyadic_bytes).ReadWords(dyadic_header) ||
      !ByteReader(verifier_bytes).ReadWords(verifier_header) ||
      !ByteReader(ams_bytes).ReadWords(ams_header)) {
    return FailDecode(error, "truncated sketch buffer");
  }
  if (dyadic_header[1] != log_universe || dyadic_header[3] != width ||
      dyadic_header[4] != depth) {
    return FailDecode(error, "StreamSummary dyadic geometry mismatch");
  }
  // The verifier is division-mode, whose (v1) layout is exactly
  // 4 + width * depth words.
  uint64_t verifier_cells = 0;
  if (verifier_header[1] != verify_width ||
      verifier_header[2] != (depth | 1) ||
      !CheckedMulU64(verify_width, depth | 1, &verifier_cells) ||
      verifier_words - 4 != verifier_cells) {
    return FailDecode(error, "StreamSummary verifier geometry mismatch");
  }
  if (verifier_header[3] != VerifierSeed(seed)) {
    return FailDecode(error, "StreamSummary verifier seed mismatch");
  }
  if (ams_header[1] != width || ams_header[2] != (depth | 1)) {
    return FailDecode(error, "StreamSummary AMS geometry mismatch");
  }
  if (ams_header[3] != AmsSeed(seed)) {
    return FailDecode(error, "StreamSummary AMS seed mismatch");
  }

  std::optional<DyadicCountMin> dyadic =
      DyadicCountMin::TryDeserialize(dyadic_bytes, error, seed);
  if (!dyadic) return std::nullopt;
  std::optional<CountSketch> verifier =
      CountSketch::TryDeserialize(verifier_bytes, error);
  if (!verifier) return std::nullopt;
  std::optional<AmsSketch> ams = AmsSketch::TryDeserialize(ams_bytes, error);
  if (!ams) return std::nullopt;
  Options options;
  options.log_universe = static_cast<int>(log_universe);
  options.width = width;
  options.depth = depth;
  options.verify_width = verify_width;
  options.seed = seed;
  return StreamSummary(options, std::move(*dyadic), std::move(*verifier),
                       std::move(*ams));
}

StatsSnapshot StreamSummary::Introspect() const {
  StatsSnapshot snapshot;
  snapshot.type = "StreamSummary";
  snapshot.memory_bytes = MemoryFootprintBytes();
  snapshot.cells = SizeInCounters();
  snapshot.AddField("log_universe",
                    static_cast<double>(options_.log_universe));
  snapshot.AddField("total_count", static_cast<double>(TotalCount()));
  snapshot.children.push_back(dyadic_.Introspect());
  snapshot.children.push_back(verifier_.Introspect());
  snapshot.children.push_back(ams_.Introspect());
  return snapshot;
}

}  // namespace sketch
