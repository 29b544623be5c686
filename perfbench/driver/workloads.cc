#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/prng.h"
#include "common/zipf.h"

namespace perfbench {

namespace {

using sketch::BloomFilter;
using sketch::CountMinSketch;
using sketch::CountSketch;
using sketch::StreamSummary;
using sketch::WidthMode;
using sketch::server::BoundKind;
using sketch::server::PointValueResponse;

constexpr uint64_t kLogUniverse = 20;
constexpr uint64_t kUniverseMask = (1ULL << kLogUniverse) - 1;
constexpr double kZipfAlpha = 1.1;
constexpr double kEuler = 2.718281828459045;

constexpr uint64_t kBulkBatch = 4096;    // updates per ingest_stream frame
constexpr uint64_t kSmallBatch = 64;     // updates per interleaved ingest
constexpr std::size_t kQueryKeys = 16;   // keys per PointQueryBatch
constexpr std::size_t kQueryWindow = 32; // frames per query window

// Zipf ranks scrambled onto item ids by an odd multiplier, a bijection of
// the universe, so heavy items are not simply 0, 1, 2, ...
class KeyStream {
 public:
  explicit KeyStream(uint64_t seed)
      : zipf_(kUniverseMask + 1, kZipfAlpha, seed) {}
  uint64_t Next() { return (zipf_.Next() * 0x9E3779B1ULL) & kUniverseMask; }

 private:
  sketch::ZipfGenerator zipf_;
};

std::vector<StreamUpdate> MakeBatch(KeyStream* keys, uint64_t size) {
  std::vector<StreamUpdate> batch(size);
  for (StreamUpdate& update : batch) update = {keys->Next(), 1};
  return batch;
}

uint32_t AddBatch(Workload* w, KeyStream* keys, uint64_t size) {
  w->batches.push_back(MakeBatch(keys, size));
  return static_cast<uint32_t>(w->batches.size() - 1);
}

std::string Name(const char* prefix, std::size_t index) {
  return std::string(prefix) + "_" + std::to_string(index);
}

SketchSpec Table(const std::string& name, SketchType type, uint64_t width,
                 WidthMode mode, uint64_t seed) {
  return {name, type,
          {width, 4, seed, static_cast<uint64_t>(mode), 0}};
}

void Append(std::vector<uint8_t>* out, const std::vector<uint8_t>& frame) {
  out->insert(out->end(), frame.begin(), frame.end());
}

std::vector<uint8_t> EncodeFrameSpec(const Workload& w, const FrameSpec& f) {
  using namespace sketch::server;
  const std::string& name = w.sketches[f.sketch].name;
  switch (f.opcode) {
    case Opcode::kIngest:
      return EncodeIngestSpan(name, w.batches[f.arg]);
    case Opcode::kPointQueryBatch:
      return EncodePointQueryBatch({name, w.keys[f.arg]});
    case Opcode::kPointQuery:
      return EncodePointQuery({name, w.keys[f.arg].front()});
    case Opcode::kHeavyHitters:
      return EncodeHeavyHitters({name, kHeavyHitterPhi});
    default:
      break;
  }
  return {};
}

Window MakeWindow(const Workload& w, std::vector<FrameSpec> frames) {
  Window window;
  window.frames = std::move(frames);
  for (const FrameSpec& f : window.frames) {
    Append(&window.bytes, EncodeFrameSpec(w, f));
  }
  return window;
}

// Pre-population: sketch s gets `per_sketch` batches from a shared pool of
// `pool` batches starting at `first`, offset by s * stride.
void Prepopulate(Workload* w, KeyStream* keys, std::size_t sketches,
                 std::size_t first_sketch, uint32_t pool, uint32_t per_sketch,
                 uint32_t stride) {
  const auto first = static_cast<uint32_t>(w->batches.size());
  for (uint32_t b = 0; b < pool; ++b) AddBatch(w, keys, kBulkBatch);
  for (std::size_t s = 0; s < sketches; ++s) {
    for (uint32_t j = 0; j < per_sketch; ++j) {
      const auto batch =
          first + (static_cast<uint32_t>(s) * stride + j) % pool;
      w->prepopulate.push_back(
          {static_cast<uint32_t>(first_sketch + s), batch});
    }
  }
}

void BuildIngestStream(Workload* w, KeyStream* keys, uint64_t seed) {
  // 16 sketches: CountMin and CountSketch 16384x4 in both width modes
  // (three of each), then Bloom filters with 7 hashes in both modes.
  const std::array<std::pair<SketchType, WidthMode>, 4> tables = {{
      {SketchType::kCountMin, WidthMode::kDivision},
      {SketchType::kCountMin, WidthMode::kPow2},
      {SketchType::kCountSketch, WidthMode::kDivision},
      {SketchType::kCountSketch, WidthMode::kPow2},
  }};
  for (std::size_t i = 0; i < 12; ++i) {
    const auto& [type, mode] = tables[i % 4];
    w->sketches.push_back(Table(Name("ingest", i), type, 16384, mode,
                                sketch::SplitMix64Once(seed + i)));
  }
  for (std::size_t i = 12; i < 16; ++i) {
    const WidthMode mode = i % 2 == 0 ? WidthMode::kDivision : WidthMode::kPow2;
    w->sketches.push_back({Name("ingest", i), SketchType::kBloom,
                           {1ULL << 20, 7, sketch::SplitMix64Once(seed + i),
                            static_cast<uint64_t>(mode), 0}});
  }
  Prepopulate(w, keys, 16, 0, 16, 4, 1);
  // Two connections, 16 windows each; window i of connection c writes 8
  // fresh 4096-update frames to sketch (i + 8c) mod 16, so the two
  // connections rotate over every sketch without meeting on one.
  w->windows.resize(2);
  for (std::size_t c = 0; c < 2; ++c) {
    for (std::size_t i = 0; i < 16; ++i) {
      std::vector<FrameSpec> frames;
      const auto target = static_cast<uint32_t>((i + 8 * c) % 16);
      for (int f = 0; f < 8; ++f) {
        frames.push_back({Opcode::kIngest, target,
                          AddBatch(w, keys, kBulkBatch)});
      }
      w->windows[c].push_back(MakeWindow(*w, std::move(frames)));
    }
  }
}

// query_l1 and query_l2: 64 counter sketches (both width modes), 32-frame
// windows of ~90% 16-key PointQueryBatch, ~5% PointQuery, ~5% 64-update
// ingests; query_l2 also sends ~1 in 32 frames as a StreamSummary
// HeavyHitters query.
void BuildQuery(Workload* w, KeyStream* keys, uint64_t seed, SketchType type,
                const char* prefix, bool heavy_hitters) {
  constexpr std::size_t kSketches = 64;
  for (std::size_t i = 0; i < kSketches; ++i) {
    w->sketches.push_back(Table(
        Name(prefix, i), type, 16384,
        i % 2 == 0 ? WidthMode::kDivision : WidthMode::kPow2,
        sketch::SplitMix64Once(seed + i)));
  }
  Prepopulate(w, keys, kSketches, 0, 32, 8, 1);
  std::size_t summaries = 0;
  if (heavy_hitters) {
    summaries = 4;
    for (std::size_t i = 0; i < summaries; ++i) {
      // StreamSummary params: {log_universe, width, depth, verify_width,
      // seed}.
      w->sketches.push_back({Name("l2_summary", i), SketchType::kStreamSummary,
                             {kLogUniverse, 2048, 4, 8192,
                              sketch::SplitMix64Once(seed + 1000 + i)}});
    }
    Prepopulate(w, keys, summaries, kSketches, 32, 8, 8);
  }
  const auto ingest_first = static_cast<uint32_t>(w->batches.size());
  constexpr uint32_t kIngestPool = 256;
  for (uint32_t b = 0; b < kIngestPool; ++b) AddBatch(w, keys, kSmallBatch);

  sketch::Xoshiro256StarStar rng(sketch::SplitMix64Once(seed ^ 0x51ULL));
  const auto pick = [&rng](std::size_t n) {
    return static_cast<uint32_t>(rng.Next() % n);
  };
  const auto add_keys = [&](std::size_t n) {
    std::vector<uint64_t> list(n);
    for (uint64_t& key : list) key = keys->Next();
    w->keys.push_back(std::move(list));
    return static_cast<uint32_t>(w->keys.size() - 1);
  };
  w->windows.resize(2);
  for (std::size_t c = 0; c < 2; ++c) {
    for (std::size_t i = 0; i < 128; ++i) {
      std::vector<FrameSpec> frames;
      for (std::size_t f = 0; f < kQueryWindow; ++f) {
        if (heavy_hitters && rng.NextDouble() < 1.0 / 32) {
          frames.push_back({Opcode::kHeavyHitters,
                            static_cast<uint32_t>(kSketches + pick(summaries)),
                            0});
          continue;
        }
        const double r = rng.NextDouble();
        const uint32_t target = pick(kSketches);
        if (r < 0.90) {
          frames.push_back(
              {Opcode::kPointQueryBatch, target, add_keys(kQueryKeys)});
        } else if (r < 0.95) {
          frames.push_back({Opcode::kPointQuery, target, add_keys(1)});
        } else {
          frames.push_back(
              {Opcode::kIngest, target, ingest_first + pick(kIngestPool)});
        }
      }
      w->windows[c].push_back(MakeWindow(*w, std::move(frames)));
    }
  }
}

void BuildSnapshotRestore(Workload* w, KeyStream* keys, uint64_t seed) {
  // Eight 32768x4 tables (1 MiB of counters each), CountMin and
  // CountSketch alternating.
  for (std::size_t i = 0; i < 8; ++i) {
    w->sketches.push_back(Table(
        Name("snap", i),
        i % 2 == 0 ? SketchType::kCountMin : SketchType::kCountSketch, 32768,
        WidthMode::kDivision, sketch::SplitMix64Once(seed + i)));
  }
  Prepopulate(w, keys, 8, 0, 32, 16, 4);
}

}  // namespace

const char* WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kIngestStream:
      return "ingest_stream";
    case WorkloadKind::kQueryL1:
      return "query_l1";
    case WorkloadKind::kQueryL2:
      return "query_l2";
    case WorkloadKind::kSnapshotRestore:
      return "snapshot_restore";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, WorkloadKind* out) {
  for (WorkloadKind kind : kAllWorkloads) {
    if (name == WorkloadName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

std::size_t Workload::connections() const {
  return windows.empty() ? 1 : windows.size();
}

std::size_t Workload::FramesPerWindow() const {
  return windows.empty() ? 3 : windows.front().front().frames.size();
}

Workload MakeWorkload(WorkloadKind kind, uint64_t seed) {
  Workload w;
  w.kind = kind;
  w.seed = seed;
  const uint64_t stream_seed =
      sketch::SplitMix64Once(seed * 4 + static_cast<uint64_t>(kind));
  KeyStream keys(stream_seed);
  switch (kind) {
    case WorkloadKind::kIngestStream:
      BuildIngestStream(&w, &keys, stream_seed);
      break;
    case WorkloadKind::kQueryL1:
      BuildQuery(&w, &keys, stream_seed, SketchType::kCountMin, "l1", false);
      break;
    case WorkloadKind::kQueryL2:
      BuildQuery(&w, &keys, stream_seed, SketchType::kCountSketch, "l2", true);
      break;
    case WorkloadKind::kSnapshotRestore:
      BuildSnapshotRestore(&w, &keys, stream_seed);
      break;
  }
  return w;
}

std::vector<std::vector<uint8_t>> SetupFrames(const Workload& w) {
  std::vector<std::vector<uint8_t>> frames;
  for (const SketchSpec& spec : w.sketches) {
    frames.push_back(
        sketch::server::EncodeCreateSketch({spec.name, spec.type, spec.params}));
  }
  for (const auto& [s, b] : w.prepopulate) {
    frames.push_back(
        sketch::server::EncodeIngestSpan(w.sketches[s].name, w.batches[b]));
  }
  return frames;
}

std::vector<uint8_t> SnapshotFrame(const Workload& w, uint32_t sketch) {
  return sketch::server::EncodeSnapshot({w.sketches[sketch].name});
}

std::vector<uint8_t> RestoreFrame(const Workload& w, uint32_t sketch,
                                  const std::string& name,
                                  const std::vector<uint8_t>& blob) {
  return sketch::server::EncodeRestore({name, w.sketches[sketch].type, blob});
}

std::vector<uint8_t> DropFrame(const std::string& name) {
  return sketch::server::EncodeDropSketch({name});
}

// --- Reference ------------------------------------------------------------

struct Reference::Entry {
  std::unique_ptr<CountMinSketch> count_min;
  std::unique_ptr<CountSketch> count_sketch;
  std::unique_ptr<BloomFilter> bloom;
  std::unique_ptr<StreamSummary> summary;
  int64_t l1_mass = 0;
};

Reference::Reference(const Workload& workload) : workload_(workload) {
  for (const SketchSpec& spec : workload.sketches) {
    auto entry = std::make_unique<Entry>();
    const auto& p = spec.params;
    const auto mode = static_cast<WidthMode>(p[3]);
    switch (spec.type) {
      case SketchType::kCountMin:
        entry->count_min = std::make_unique<CountMinSketch>(p[0], p[1], p[2],
                                                            mode);
        break;
      case SketchType::kCountSketch:
        entry->count_sketch =
            std::make_unique<CountSketch>(p[0], p[1], p[2], mode);
        break;
      case SketchType::kBloom:
        entry->bloom = std::make_unique<BloomFilter>(
            p[0], static_cast<int>(p[1]), p[2], mode);
        break;
      case SketchType::kStreamSummary: {
        StreamSummary::Options options;
        options.log_universe = static_cast<int>(p[0]);
        options.width = p[1];
        options.depth = p[2];
        options.verify_width = p[3];
        options.seed = p[4];
        entry->summary = std::make_unique<StreamSummary>(options);
        break;
      }
      case SketchType::kShardedCountMin:
        break;
    }
    entries_.push_back(std::move(entry));
  }
  for (const auto& [s, b] : workload.prepopulate) Apply(s, b, 1);
}

Reference::~Reference() = default;

void Reference::Apply(uint32_t sketch, uint32_t batch, int64_t times) {
  if (times == 0) return;
  Entry& e = *entries_[sketch];
  const std::vector<StreamUpdate>& updates = workload_.batches[batch];
  if (e.bloom != nullptr) {
    e.bloom->ApplyBatch(updates);  // set semantics: repeats change nothing
    return;
  }
  std::vector<StreamUpdate> scaled;
  sketch::UpdateSpan span(updates);
  if (times != 1) {
    scaled = updates;
    for (StreamUpdate& u : scaled) u.delta *= times;
    span = scaled;
  }
  for (const StreamUpdate& u : span) e.l1_mass += u.delta < 0 ? -u.delta : u.delta;
  if (e.count_min != nullptr) e.count_min->ApplyBatch(span);
  if (e.count_sketch != nullptr) e.count_sketch->ApplyBatch(span);
  if (e.summary != nullptr) e.summary->ApplyBatch(span);
}

void Reference::ApplyWindow(const Window& window, int64_t times) {
  for (const FrameSpec& f : window.frames) {
    if (f.opcode == Opcode::kIngest) Apply(f.sketch, f.arg, times);
  }
}

std::vector<uint8_t> Reference::Serialize(uint32_t sketch) const {
  const Entry& e = *entries_[sketch];
  if (e.count_min != nullptr) return e.count_min->Serialize();
  if (e.count_sketch != nullptr) return e.count_sketch->Serialize();
  if (e.bloom != nullptr) return e.bloom->Serialize();
  return e.summary->Serialize();
}

namespace {

// The daemon's CountSketch error scale: per row the sum of squared
// counters estimates F2; the (upper) median over rows is used. The
// benchmark recomputes it from the reference counters.
double F2FromCounters(const CountSketch& sketch) {
  std::vector<double> rows;
  for (uint64_t j = 0; j < sketch.depth(); ++j) {
    double sum = 0.0;
    for (uint64_t b = 0; b < sketch.width(); ++b) {
      const auto c = static_cast<double>(sketch.CounterAt(j, b));
      sum += c * c;
    }
    rows.push_back(sum);
  }
  std::nth_element(rows.begin(), rows.begin() + static_cast<std::ptrdiff_t>(rows.size() / 2),
                   rows.end());
  return rows[rows.size() / 2];
}

}  // namespace

std::vector<PointValueResponse> Reference::PointValues(
    uint32_t sketch, const std::vector<uint64_t>& items) const {
  const Entry& e = *entries_[sketch];
  std::vector<int64_t> estimates(items.size());
  PointValueResponse value;
  if (e.count_min != nullptr) {
    e.count_min->EstimateBatch(items.data(), items.size(), estimates.data());
    value.error_bound = kEuler / static_cast<double>(e.count_min->width()) *
                        static_cast<double>(e.l1_mass);
    value.bound_kind = BoundKind::kL1;
  } else if (e.count_sketch != nullptr) {
    e.count_sketch->EstimateBatch(items.data(), items.size(),
                                  estimates.data());
    value.error_bound =
        std::sqrt(3.0 * F2FromCounters(*e.count_sketch) /
                  static_cast<double>(e.count_sketch->width()));
    value.bound_kind = BoundKind::kL2;
  }
  std::vector<PointValueResponse> out;
  for (int64_t estimate : estimates) {
    value.estimate = estimate;
    out.push_back(value);
  }
  return out;
}

PointValueResponse Reference::PointValue(uint32_t sketch,
                                         uint64_t item) const {
  PointValueResponse value = PointValues(sketch, {item}).front();
  const Entry& e = *entries_[sketch];
  value.estimate = e.count_min != nullptr ? e.count_min->Estimate(item)
                                          : e.count_sketch->Estimate(item);
  return value;
}

std::vector<uint64_t> Reference::HeavyHitters(uint32_t sketch,
                                              double phi) const {
  return entries_[sketch]->summary->HeavyHitters(phi);
}

const CountMinSketch* Reference::count_min(uint32_t sketch) const {
  return entries_[sketch]->count_min.get();
}
const CountSketch* Reference::count_sketch(uint32_t sketch) const {
  return entries_[sketch]->count_sketch.get();
}
CountMinSketch* Reference::mutable_count_min(uint32_t sketch) {
  return entries_[sketch]->count_min.get();
}
CountSketch* Reference::mutable_count_sketch(uint32_t sketch) {
  return entries_[sketch]->count_sketch.get();
}
BloomFilter* Reference::mutable_bloom(uint32_t sketch) {
  return entries_[sketch]->bloom.get();
}

uint64_t Fnv1a(const std::vector<uint8_t>& bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace perfbench
