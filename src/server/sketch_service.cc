#include "server/sketch_service.h"

#include <array>
#include <bit>
#include <cmath>
#include <functional>
#include <optional>
#include <sstream>
#include <type_traits>
#include <utility>

#include "common/json_escape.h"
#include "common/timer.h"
#include "common/wrapping.h"
#include "telemetry/metric_registry.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace sketch::server {

namespace {

constexpr double kEuler = 2.718281828459045;

std::vector<uint8_t> MakeError(ErrorCode code, const std::string& message) {
  ErrorResponse response;
  response.code = code;
  response.message = message;
  return EncodeError(response);
}

std::vector<uint8_t> MalformedPayload(Opcode opcode) {
  return MakeError(ErrorCode::kMalformedPayload,
                   std::string("malformed payload for ") + OpcodeName(opcode));
}

std::vector<uint8_t> NoSuchSketch(const std::string& name) {
  return MakeError(ErrorCode::kNoSuchSketch,
                   "no sketch named '" + name + "'");
}

/// a + b clamped at UINT64_MAX. L1 masses sum words a client sends, so
/// they saturate rather than wrap: a clamped mass is still an upper bound.
uint64_t SaturatingAdd(uint64_t a, uint64_t b) {
  return b > UINT64_MAX - a ? UINT64_MAX : a + b;
}

/// Sum of |delta| over a batch: an upper bound on the L1 mass the batch
/// adds, tracked so Count-Min point queries can report their eps*||x||_1
/// error scale.
uint64_t BatchL1(UpdateSpan updates) {
  uint64_t l1 = 0;
  for (const StreamUpdate& u : updates) {
    l1 = SaturatingAdd(l1, Magnitude(u.delta));
  }
  return l1;
}

/// L1 mass of a restored Count-Min table, recovered from row 0: every
/// update adds its delta to exactly one counter per row, so for a
/// non-negative stream the row sum equals the stream mass.
uint64_t RowZeroL1(const CountMinSketch& sketch) {
  uint64_t l1 = 0;
  for (uint64_t b = 0; b < sketch.width(); ++b) {
    l1 = SaturatingAdd(l1, Magnitude(sketch.CounterAt(0, b)));
  }
  return l1;
}

/// A scalar an entry derives from its whole state by a full scan (F2 from
/// a counter table, a Bloom filter's fill ratio), computed by the first
/// read after a write and reused until the next write. Reads run under the
/// owning handle's shared lock, so the fill is serialized by mutex_:
/// readers of a stale value wait for one scan instead of each running
/// their own. Ingest runs under the exclusive lock and calls Invalidate.
/// The cached double is the scan's own result, so every answer stays
/// bit-identical to an uncached scan. mutex_ is innermost: the scan takes
/// no other lock.
class CachedScan {
 public:
  void Invalidate() {
    MutexLock lock(mutex_);
    valid_ = false;
  }

  template <typename Scan>
  double Get(Scan&& scan) {
    MutexLock lock(mutex_);
    if (!valid_) {
      value_ = scan();
      valid_ = true;
    }
    return value_;
  }

 private:
  Mutex mutex_;
  double value_ SKETCH_GUARDED_BY(mutex_) = 0.0;
  bool valid_ SKETCH_GUARDED_BY(mutex_) = false;
};

using internal::SketchEntry;

/// Count-Min's eps * ||x||_1 error scale, with eps = e / width.
double L1Bound(const CountMinSketch& sketch, uint64_t l1_mass) {
  return kEuler / static_cast<double>(sketch.width()) *
         static_cast<double>(l1_mass);
}

/// Batched point query over a Count-Min or Count-Sketch table: the
/// estimates come from the EstimateBatch kernel (SIMD-tier bucket and
/// sign computation), and one bound is shared by every key in the batch.
template <typename Sketch>
void EstimateBatchWithBound(const Sketch& sketch,
                            const std::vector<uint64_t>& items, double bound,
                            BoundKind kind,
                            std::vector<PointValueResponse>* out) {
  std::vector<int64_t> estimates(items.size());
  sketch.EstimateBatch(items.data(), items.size(), estimates.data());
  PointValueResponse value;
  value.error_bound = bound;
  value.bound_kind = kind;
  out->reserve(items.size());
  for (int64_t estimate : estimates) {
    value.estimate = estimate;
    out->push_back(value);
  }
}

/// Inner product of two tables of one family: kUnsupported when the right
/// operand is of another family (`rhs` null), kGeometryMismatch unless
/// width, depth, seed and width mode all agree.
template <typename Sketch>
bool CheckedInnerProduct(const Sketch& lhs, const Sketch* rhs,
                         int64_t* result, ErrorResponse* error) {
  if (rhs == nullptr) {
    error->code = ErrorCode::kUnsupported;
    error->message = std::string("inner product requires two ") +
                     (std::is_same_v<Sketch, CountMinSketch> ? "CountMin"
                                                             : "CountSketch") +
                     " sketches";
    return false;
  }
  if (rhs->width() != lhs.width() || rhs->depth() != lhs.depth() ||
      rhs->seed() != lhs.seed() || rhs->width_mode() != lhs.width_mode()) {
    error->code = ErrorCode::kGeometryMismatch;
    error->message = "inner product requires identical geometry and seed";
    return false;
  }
  *result = lhs.EstimateInnerProduct(*rhs);
  return true;
}

/// A Count-Min table. It also serves kShardedCountMin: Count-Min is
/// linear, so a stream split over shards collapses to the counters of one
/// table fed the whole stream. The entry keeps the type it was created as
/// for List and statsz, and answers and snapshots exactly as a kCountMin.
class CountMinEntry : public SketchEntry {
 public:
  CountMinEntry(CountMinSketch sketch, SketchType type)
      : sketch_(std::move(sketch)),
        type_(type),
        l1_mass_(RowZeroL1(sketch_)) {}

  SketchType type() const override { return type_; }

  bool Ingest(UpdateSpan updates, ErrorResponse*) override {
    sketch_.ApplyBatch(updates);
    l1_mass_ = SaturatingAdd(l1_mass_, BatchL1(updates));
    updates_applied_ += updates.size();
    return true;
  }

  PointValueResponse PointQuery(uint64_t item) override {
    PointValueResponse response;
    response.estimate = sketch_.Estimate(item);
    response.error_bound = L1Bound(sketch_, l1_mass_);
    response.bound_kind = BoundKind::kL1;
    return response;
  }

  void PointQueryBatch(const std::vector<uint64_t>& items,
                       std::vector<PointValueResponse>* out) override {
    EstimateBatchWithBound(sketch_, items, L1Bound(sketch_, l1_mass_),
                           BoundKind::kL1, out);
  }

  bool InnerProduct(SketchEntry& other, int64_t* result,
                    ErrorResponse* error) override {
    return CheckedInnerProduct(sketch_, other.AsCountMin(), result, error);
  }

  void AppendSnapshot(std::vector<uint8_t>* out) const override {
    sketch_.AppendSerialized(out);
  }
  const CountMinSketch* AsCountMin() override { return &sketch_; }
  uint64_t SizeInCounters() const override { return sketch_.SizeInCounters(); }
  uint64_t MemoryFootprintBytes() const override {
    return sketch_.MemoryFootprintBytes();
  }
  StatsSnapshot Introspect() const override { return sketch_.Introspect(); }

 private:
  CountMinSketch sketch_;
  SketchType type_;
  uint64_t l1_mass_;  // saturating, see SaturatingAdd
};

class CountSketchEntry : public SketchEntry {
 public:
  explicit CountSketchEntry(CountSketch sketch) : sketch_(std::move(sketch)) {}

  SketchType type() const override { return SketchType::kCountSketch; }

  bool Ingest(UpdateSpan updates, ErrorResponse*) override {
    sketch_.ApplyBatch(updates);
    updates_applied_ += updates.size();
    f2_.Invalidate();
    return true;
  }

  PointValueResponse PointQuery(uint64_t item) override {
    PointValueResponse response;
    response.estimate = sketch_.Estimate(item);
    response.error_bound = L2Bound();
    response.bound_kind = BoundKind::kL2;
    return response;
  }

  void PointQueryBatch(const std::vector<uint64_t>& items,
                       std::vector<PointValueResponse>* out) override {
    EstimateBatchWithBound(sketch_, items, L2Bound(), BoundKind::kL2, out);
  }

  bool InnerProduct(SketchEntry& other, int64_t* result,
                    ErrorResponse* error) override {
    return CheckedInnerProduct(sketch_, other.AsCountSketch(), result, error);
  }

  void AppendSnapshot(std::vector<uint8_t>* out) const override {
    sketch_.AppendSerialized(out);
  }
  const CountSketch* AsCountSketch() override { return &sketch_; }
  uint64_t SizeInCounters() const override { return sketch_.SizeInCounters(); }
  uint64_t MemoryFootprintBytes() const override {
    return sketch_.MemoryFootprintBytes();
  }
  StatsSnapshot Introspect() const override { return sketch_.Introspect(); }

 private:
  /// sqrt(3 * F2 / width), with F2 from the cached counter-table scan.
  double L2Bound() {
    const double f2 = f2_.Get([&] { return sketch_.EstimateF2(); });
    return std::sqrt(3.0 * f2 / static_cast<double>(sketch_.width()));
  }

  CountSketch sketch_;
  CachedScan f2_;
};

class BloomEntry : public SketchEntry {
 public:
  explicit BloomEntry(BloomFilter filter) : filter_(std::move(filter)) {}

  SketchType type() const override { return SketchType::kBloom; }

  bool Ingest(UpdateSpan updates, ErrorResponse*) override {
    // Set semantics: each update inserts its item; the delta is ignored
    // (a Bloom filter has no deletion).
    filter_.ApplyBatch(updates);
    updates_applied_ += updates.size();
    fill_ratio_.Invalidate();
    return true;
  }

  PointValueResponse PointQuery(uint64_t item) override {
    PointValueResponse response;
    response.estimate = filter_.MayContain(item) ? 1 : 0;
    // The membership answer's error scale is the current false-positive
    // probability: FillRatio^num_hashes (the popcount scan is cached).
    const double fill = fill_ratio_.Get([&] { return filter_.FillRatio(); });
    response.error_bound = std::pow(fill, filter_.num_hashes());
    response.bound_kind = BoundKind::kFpr;
    return response;
  }

  void AppendSnapshot(std::vector<uint8_t>* out) const override {
    filter_.AppendSerialized(out);
  }
  uint64_t SizeInCounters() const override {
    return (filter_.num_bits() + 63) / 64;
  }
  uint64_t MemoryFootprintBytes() const override {
    return filter_.MemoryFootprintBytes();
  }
  StatsSnapshot Introspect() const override { return filter_.Introspect(); }

 private:
  BloomFilter filter_;
  CachedScan fill_ratio_;
};

class SummaryEntry : public SketchEntry {
 public:
  explicit SummaryEntry(StreamSummary summary) : summary_(std::move(summary)) {}

  SketchType type() const override { return SketchType::kStreamSummary; }

  bool Ingest(UpdateSpan updates, ErrorResponse* error) override {
    // The dyadic decomposition only covers [0, 2^log_universe); reject
    // the whole batch up front (atomically) rather than tripping the
    // debug assertion inside DyadicCountMin.
    const uint64_t universe =
        1ULL << static_cast<unsigned>(summary_.options().log_universe);
    for (const StreamUpdate& u : updates) {
      if (u.item >= universe) {
        error->code = ErrorCode::kMalformedPayload;
        error->message = "item outside the StreamSummary universe";
        return false;
      }
    }
    summary_.ApplyBatch(updates);
    updates_applied_ += updates.size();
    f2_.Invalidate();
    return true;
  }

  PointValueResponse PointQuery(uint64_t item) override {
    PointValueResponse response;
    const uint64_t universe =
        1ULL << static_cast<unsigned>(summary_.options().log_universe);
    if (item >= universe) {
      // Out-of-universe items were never ingested: answer zero exactly.
      response.estimate = 0;
      response.error_bound = 0.0;
      response.bound_kind = BoundKind::kNone;
      return response;
    }
    response.estimate = summary_.EstimateCount(item);
    response.error_bound = L2Bound();
    response.bound_kind = BoundKind::kL2;
    return response;
  }

  bool HeavyHitters(double phi, std::vector<uint64_t>* out,
                    ErrorResponse*) override {
    *out = summary_.HeavyHitters(phi);
    if (out->size() > kMaxHeavyHitterItems) out->resize(kMaxHeavyHitterItems);
    return true;
  }

  void AppendSnapshot(std::vector<uint8_t>* out) const override {
    summary_.AppendSerialized(out);
  }
  uint64_t SizeInCounters() const override {
    return summary_.SizeInCounters();
  }
  uint64_t SnapshotBytes() const override {
    return summary_.SerializedSizeBytes();
  }
  uint64_t MemoryFootprintBytes() const override {
    return summary_.MemoryFootprintBytes();
  }
  StatsSnapshot Introspect() const override { return summary_.Introspect(); }

 private:
  /// sqrt(3 * F2 / verify_width), with F2 from the cached AMS scan.
  double L2Bound() {
    const double f2 = f2_.Get([&] { return summary_.EstimateF2(); });
    const auto width = static_cast<double>(summary_.options().verify_width);
    return std::sqrt(3.0 * f2 / width);
  }

  StreamSummary summary_;
  CachedScan f2_;
};

/// 8-byte words of state each row of a `Sketch` table carries beyond its
/// counters (the row's BlockHashers, their coefficients, per-row scratch),
/// measured once from a one-row, one-counter sketch. A deep, narrow table
/// is mostly hashers, so the create budget charges them per row.
template <typename Sketch>
uint64_t RowOverheadWords() {
  static const uint64_t kWords = [] {
    const Sketch one_row(1, 1, 0);
    const uint64_t extra =
        one_row.MemoryFootprintBytes() - sizeof(Sketch) - sizeof(int64_t);
    return (extra + sizeof(uint64_t) - 1) / sizeof(uint64_t);
  }();
  return kWords;
}

/// Charges `tables` width x depth counter tables, each row carrying
/// `row_words` more words, to the running create cost *words. False when
/// the geometry is empty or the total passes kMaxSketchCounters; every
/// product is bounded by a division before it is formed.
bool ChargeTables(uint64_t width, uint64_t depth, uint64_t tables,
                  uint64_t row_words, uint64_t* words) {
  if (width < 1 || depth < 1 || tables < 1 || width > kMaxSketchCounters) {
    return false;
  }
  const uint64_t row = width + row_words;
  const uint64_t rows_left = (kMaxSketchCounters - *words) / row;
  if (depth > rows_left || tables > rows_left / depth) return false;
  *words += tables * depth * row;
  return true;
}

/// The served-sketch budget, one rule for a create's requested geometry
/// and a restore's decoded one: `tables` width x depth tables of `Sketch`
/// rows, hashers included, within kMaxSketchCounters words.
template <typename Sketch>
bool TablesFit(uint64_t width, uint64_t depth, uint64_t tables) {
  uint64_t words = 0;
  return ChargeTables(width, depth, tables, RowOverheadWords<Sketch>(),
                      &words);
}

/// The budget of a whole StreamSummary: log_universe dyadic levels plus
/// the verifier and AMS tables (both at depth | 1).
bool SummaryFits(const StreamSummary::Options& options) {
  uint64_t words = 0;
  const auto levels = static_cast<uint64_t>(options.log_universe);
  return ChargeTables(options.width, options.depth, levels,
                      RowOverheadWords<CountMinSketch>(), &words) &&
         ChargeTables(options.verify_width, options.depth | 1, 1,
                      RowOverheadWords<CountSketch>(), &words) &&
         ChargeTables(options.width, options.depth | 1, 1,
                      RowOverheadWords<AmsSketch>(), &words);
}

/// The budget of a Bloom filter: its bit array within kMaxSketchCounters
/// words, and 1 to 1024 hash functions.
bool BloomFits(uint64_t num_bits, uint64_t num_hashes) {
  return num_bits >= 1 && num_bits <= kMaxSketchCounters * 64 &&
         num_hashes >= 1 && num_hashes <= 1024;
}

/// Parses a width-mode request word (0 = division, 1 = pow2; anything else
/// is bad geometry). On success, *width is replaced by the width the
/// sketch will actually have — rounded up for pow2 — so the table-budget
/// checks below always see the real allocation, and the later
/// `std::bit_ceil` inside the sketch constructor can never trip its own
/// range CHECK on hostile input (the budget is far below 2^63).
bool ParseWidthMode(uint64_t mode_word, uint64_t* width, WidthMode* mode) {
  if (mode_word == static_cast<uint64_t>(WidthMode::kDivision)) {
    *mode = WidthMode::kDivision;
    return true;
  }
  if (mode_word != static_cast<uint64_t>(WidthMode::kPow2)) return false;
  if (*width < 1 || *width > (1ULL << 62)) return false;
  *mode = WidthMode::kPow2;
  *width = std::bit_ceil(*width);
  return true;
}

/// Inner-product body shared by the single-lock (self-join) and
/// address-ordered two-lock paths of HandleInnerProduct.
std::vector<uint8_t> InnerProductBetween(SketchEntry& left,
                                         SketchEntry& right) {
  int64_t result = 0;
  ErrorResponse error;
  if (!left.InnerProduct(right, &result, &error)) {
    return EncodeError(error);
  }
  PointValueResponse response;
  response.estimate = result;
  response.bound_kind = BoundKind::kNone;
  return EncodePointValue(response);
}

/// Best-effort sketch name of a request frame for the slow-query log:
/// every sketch-addressing request opcode leads with the name string, so
/// one bounds-checked read recovers it without re-running the typed
/// decoder. Empty for nameless requests (ping, statsz, ...) and malformed
/// payloads.
std::string PeekSketchName(const Frame& frame) {
  switch (frame.opcode) {
    case Opcode::kCreateSketch:
    case Opcode::kDropSketch:
    case Opcode::kIngest:
    case Opcode::kPointQuery:
    case Opcode::kPointQueryBatch:
    case Opcode::kHeavyHitters:
    case Opcode::kInnerProduct:  // left operand
    case Opcode::kSnapshot:
    case Opcode::kRestore:
      break;
    default:
      return std::string();
  }
  ByteReader reader(frame.payload);
  std::string name;
  if (!TryReadName(&reader, &name)) return std::string();
  return name;
}

/// Trace id of the request currently being dispatched on this thread
/// (0 = untraced). Plumbed thread-locally so the lock/kernel spans deep
/// inside WithEntryShared need no signature changes across every handler.
thread_local uint64_t tls_trace_id = 0;

/// Sets tls_trace_id for the scope of one request dispatch.
class ScopedRequestTraceId {
 public:
  explicit ScopedRequestTraceId(uint64_t id) { tls_trace_id = id; }
  ~ScopedRequestTraceId() { tls_trace_id = 0; }
  ScopedRequestTraceId(const ScopedRequestTraceId&) = delete;
  ScopedRequestTraceId& operator=(const ScopedRequestTraceId&) = delete;
};

/// Times an entry-lock acquisition for traced requests: construct before
/// the lock, call Locked() immediately after. Untraced requests (id 0)
/// read no clock.
class TracedLockTimer {
 public:
  explicit TracedLockTimer(uint64_t id)
      : id_(id), start_ns_(id != 0 ? MonotonicNowNs() : 0) {}

  void Locked() const {
    if (id_ != 0) {
      telemetry::TraceRecorder::Instance().RecordSpan(
          "server.entry_lock", start_ns_, MonotonicNowNs() - start_ns_, id_);
    }
  }

 private:
  const uint64_t id_;
  const uint64_t start_ns_;
};

/// Runs `fn()`, bracketed with a server.kernel span when request `id` is
/// traced.
template <typename Fn>
auto RunKernel(uint64_t id, Fn&& fn) {
  if (id == 0) return fn();
  SKETCH_TRACE_SPAN_ID("server.kernel", id);
  return fn();
}

/// Per-opcode request-latency histograms (log2 buckets): one registry
/// reference per opcode byte, resolved once, named by OpcodeLatencyMetric.
telemetry::Histogram& OpcodeLatency(Opcode opcode) {
  static const std::array<telemetry::Histogram*, 256> kTable = [] {
    std::array<telemetry::Histogram*, 256> table{};
    telemetry::MetricRegistry& registry = telemetry::MetricRegistry::Instance();
    for (std::size_t byte = 0; byte < table.size(); ++byte) {
      table[byte] = &registry.GetHistogram(
          OpcodeLatencyMetric(static_cast<Opcode>(byte)));
    }
    return table;
  }();
  return *kTable[static_cast<uint8_t>(opcode)];
}

}  // namespace

std::string OpcodeLatencyMetric(Opcode opcode) {
  // Requests occupy 0x01-0x7f; OpcodeName says "Unknown" for the
  // unassigned ones.
  const bool request = static_cast<uint8_t>(opcode) < 0x80;
  return std::string("server.latency_ns.") +
         (request ? OpcodeName(opcode) : "Unknown");
}

namespace internal {

bool SketchEntry::HeavyHitters(double, std::vector<uint64_t>*,
                               ErrorResponse* error) {
  error->code = ErrorCode::kUnsupported;
  error->message = std::string(SketchTypeName(type())) +
                   " cannot enumerate items; use a StreamSummary sketch";
  return false;
}

bool SketchEntry::InnerProduct(SketchEntry&, int64_t*, ErrorResponse* error) {
  error->code = ErrorCode::kUnsupported;
  error->message = std::string(SketchTypeName(type())) +
                   " does not support inner products";
  return false;
}

}  // namespace internal

std::vector<uint8_t> SketchService::HandleFrame(const Frame& frame) {
  std::vector<std::vector<uint8_t>> responses;
  HandleFrames(std::span<const Frame>(&frame, 1), &responses);
  return std::move(responses.front());
}

void SketchService::HandleFrames(std::span<const Frame> frames,
                                 std::vector<std::vector<uint8_t>>* responses) {
  responses->reserve(responses->size() + frames.size());
  std::size_t i = 0;
  while (i < frames.size()) {
    // Collect the longest run of consecutive, well-formed ingest frames
    // addressing the same sketch; the run shares one registry lookup and
    // one exclusive entry lock.
    const std::size_t begin = i;
    std::vector<IngestRequest> run;
    while (i < frames.size() && frames[i].opcode == Opcode::kIngest) {
      IngestRequest request;
      if (!DecodeIngest(frames[i], &request) ||
          (!run.empty() && request.name != run.front().name)) {
        break;
      }
      run.push_back(std::move(request));
      ++i;
    }
    if (run.empty()) {
      responses->push_back(ServeFrame(frames[i]));
      ++i;
    } else {
      ApplyIngestRun(frames.subspan(begin, run.size()), run, responses);
    }
  }
}

std::vector<uint8_t> SketchService::ServeFrame(const Frame& frame) {
  // The dispatch span of a traced request's life (decode and write live
  // in the transport layers); tagged with the wire trace id when present.
  SKETCH_TRACE_SPAN_ID("server.handle_frame", frame.trace_id);
  SKETCH_COUNTER_INC("server.frames_handled");
  const ScopedRequestTraceId scoped_id(frame.trace_id);
  const uint64_t start_ns = MonotonicNowNs();
  std::vector<uint8_t> response = DispatchFrame(frame);
  RecordRequest(frame, MonotonicNowNs() - start_ns);
  return response;
}

void SketchService::RecordRequest(const Frame& frame, uint64_t latency_ns) {
  OpcodeLatency(frame.opcode).Record(latency_ns);
  if (slow_log_.WouldRecord(frame.opcode, latency_ns)) {
    slow_log_.Record(frame.opcode, latency_ns, PeekSketchName(frame),
                     frame.payload.size(), frame.trace_id);
  }
}

std::vector<uint8_t> SketchService::DispatchFrame(const Frame& frame) {
  switch (frame.opcode) {
    case Opcode::kPing:
      return frame.payload.empty() ? EncodePong()
                                   : MalformedPayload(frame.opcode);
    case Opcode::kCreateSketch:
      return HandleCreate(frame);
    case Opcode::kDropSketch:
    case Opcode::kSnapshot: {
      NamedRequest request;
      if (!DecodeNamedRequest(frame, &request)) {
        return MalformedPayload(frame.opcode);
      }
      return frame.opcode == Opcode::kDropSketch ? HandleDrop(request)
                                                 : HandleSnapshot(request);
    }
    case Opcode::kPointQuery:
      return HandlePointQuery(frame);
    case Opcode::kPointQueryBatch:
      return HandlePointQueryBatch(frame);
    case Opcode::kHeavyHitters:
      return HandleHeavyHitters(frame);
    case Opcode::kInnerProduct:
      return HandleInnerProduct(frame);
    case Opcode::kRestore:
      return HandleRestore(frame);
    case Opcode::kListSketches:
      return frame.payload.empty() ? HandleList()
                                   : MalformedPayload(frame.opcode);
    case Opcode::kStatsz:
      return frame.payload.empty() ? HandleStatsz()
                                   : MalformedPayload(frame.opcode);
    case Opcode::kTraceDump:
      return frame.payload.empty() ? HandleTraceDump()
                                   : MalformedPayload(frame.opcode);
    case Opcode::kShutdown:
      shutdown_.store(true, std::memory_order_release);
      return EncodeOk();
    default:
      break;
  }
  // An ingest frame reaches here only when HandleFrames could not decode
  // it; well-formed ones run in ApplyIngestRun.
  if (frame.opcode == Opcode::kIngest) return MalformedPayload(frame.opcode);
  return MakeError(ErrorCode::kUnknownOpcode,
                   std::string("unknown or non-request opcode ") +
                       OpcodeName(frame.opcode));
}

void SketchService::ApplyIngestRun(
    std::span<const Frame> frames, const std::vector<IngestRequest>& run,
    std::vector<std::vector<uint8_t>>* responses) {
  // The run span carries the first traced request's id so a sampled
  // ingest's Perfetto view shows the coalesced batch it rode in.
  uint64_t run_trace_id = 0;
  for (const IngestRequest& request : run) {
    if (request.trace_id != 0) {
      run_trace_id = request.trace_id;
      break;
    }
  }
  SKETCH_TRACE_SPAN_ID("server.ingest_run", run_trace_id);
  SKETCH_COUNTER_ADD("server.frames_handled", run.size());
  const std::shared_ptr<internal::EntryHandle> handle =
      FindHandle(run.front().name);
  if (handle == nullptr) {
    for (std::size_t i = 0; i < run.size(); ++i) {
      responses->push_back(NoSuchSketch(run.front().name));
    }
    return;
  }
  const TracedLockTimer timer(run_trace_id);
  WriterMutexLock lock(handle->mutex);
  timer.Locked();
  internal::SketchEntry& entry = *handle->entry;
  for (std::size_t i = 0; i < run.size(); ++i) {
    const IngestRequest& request = run[i];
    const uint64_t start_ns = MonotonicNowNs();
    ErrorResponse error;
    const bool ok = RunKernel(request.trace_id, [&] {
      return entry.Ingest(UpdateSpan(request.updates), &error);
    });
    if (!ok) {
      responses->push_back(EncodeError(error));
    } else {
      SKETCH_COUNTER_ADD("server.updates_ingested", request.updates.size());
      IngestAckResponse ack;
      ack.accepted = request.updates.size();
      responses->push_back(EncodeIngestAck(ack));
    }
    RecordRequest(frames[i], MonotonicNowNs() - start_ns);
  }
}

std::size_t SketchService::sketch_count() const {
  std::size_t total = 0;
  for (const RegistryStripe& stripe : stripes_) {
    MutexLock lock(stripe.mutex);
    total += stripe.entries.size();
  }
  return total;
}

void SketchService::RegisterGauge(const std::string& name,
                                  std::function<uint64_t()> gauge) {
  MutexLock lock(gauges_mutex_);
  gauges_.emplace_back(name, std::move(gauge));
}

const SketchService::RegistryStripe& SketchService::StripeFor(
    const std::string& name) const {
  return stripes_[std::hash<std::string>{}(name) % kRegistryStripes];
}

SketchService::RegistryStripe& SketchService::StripeFor(
    const std::string& name) {
  return stripes_[std::hash<std::string>{}(name) % kRegistryStripes];
}

std::shared_ptr<internal::EntryHandle> SketchService::FindHandle(
    const std::string& name) const {
  const RegistryStripe& stripe = StripeFor(name);
  MutexLock lock(stripe.mutex);
  const auto it = stripe.entries.find(name);
  return it == stripe.entries.end() ? nullptr : it->second;
}

template <typename Fn>
std::vector<uint8_t> SketchService::WithEntryShared(const std::string& name,
                                                    Fn&& fn) {
  const std::shared_ptr<internal::EntryHandle> handle = FindHandle(name);
  if (handle == nullptr) return NoSuchSketch(name);
  const TracedLockTimer timer(tls_trace_id);
  ReaderMutexLock lock(handle->mutex);
  timer.Locked();
  internal::SketchEntry& entry = *handle->entry;
  return RunKernel(tls_trace_id, [&] { return fn(entry); });
}

bool SketchService::InsertEntry(const std::string& name,
                                std::unique_ptr<internal::SketchEntry> entry) {
  RegistryStripe& stripe = StripeFor(name);
  MutexLock lock(stripe.mutex);
  return stripe.entries
      .emplace(name, std::make_shared<internal::EntryHandle>(std::move(entry)))
      .second;
}

std::unique_ptr<internal::SketchEntry> SketchService::BuildEntry(
    const CreateSketchRequest& request, ErrorResponse* error) {
  const auto& p = request.params;
  switch (request.type) {
    case SketchType::kCountMin:
    case SketchType::kShardedCountMin: {
      // A sharded create names num_shards (1 to 256) before its mode word;
      // the shards collapse to one table, so the count is checked and
      // then not used.
      const bool sharded = request.type == SketchType::kShardedCountMin;
      uint64_t width = p[0];
      WidthMode mode = WidthMode::kDivision;
      if ((sharded && (p[3] < 1 || p[3] > 256)) ||
          !ParseWidthMode(p[sharded ? 4 : 3], &width, &mode) ||
          !TablesFit<CountMinSketch>(width, p[1], 1)) {
        break;
      }
      return std::make_unique<CountMinEntry>(
          CountMinSketch(p[0], p[1], p[2], mode), request.type);
    }
    case SketchType::kCountSketch: {
      uint64_t width = p[0];
      WidthMode mode = WidthMode::kDivision;
      if (!ParseWidthMode(p[3], &width, &mode) ||
          !TablesFit<CountSketch>(width, p[1], 1)) {
        break;
      }
      return std::make_unique<CountSketchEntry>(
          CountSketch(p[0], p[1], p[2], mode));
    }
    case SketchType::kBloom: {
      uint64_t num_bits = p[0];
      WidthMode mode = WidthMode::kDivision;
      if (!ParseWidthMode(p[3], &num_bits, &mode) ||
          !BloomFits(num_bits, p[1])) {
        break;
      }
      return std::make_unique<BloomEntry>(
          BloomFilter(p[0], static_cast<int>(p[1]), p[2], mode));
    }
    case SketchType::kStreamSummary: {
      if (p[0] < 1 || p[0] > 40) break;
      StreamSummary::Options options;
      options.log_universe = static_cast<int>(p[0]);
      options.width = p[1];
      options.depth = p[2];
      options.verify_width = p[3];
      options.seed = p[4];
      if (!SummaryFits(options)) break;
      return std::make_unique<SummaryEntry>(StreamSummary(options));
    }
  }
  error->code = ErrorCode::kBadGeometry;
  error->message = std::string("invalid parameters for sketch type ") +
                   SketchTypeName(request.type);
  return nullptr;
}

std::unique_ptr<internal::SketchEntry> SketchService::BuildEntryFromBlob(
    SketchType type, std::span<const uint8_t> blob, std::string* error) {
  // The decode allocates no more counters than the blob carries (and
  // kMaxFramePayloadBytes bounds the blob); the decoded geometry is then
  // charged as a create of it would be, before the entry is built.
  switch (type) {
    case SketchType::kCountMin:
    case SketchType::kShardedCountMin: {
      // A sharded snapshot is the collapsed CountMin table.
      std::optional<CountMinSketch> sketch =
          CountMinSketch::TryDeserialize(blob, error);
      if (!sketch) return nullptr;
      if (!TablesFit<CountMinSketch>(sketch->width(), sketch->depth(), 1)) {
        break;
      }
      return std::make_unique<CountMinEntry>(std::move(*sketch), type);
    }
    case SketchType::kCountSketch: {
      std::optional<CountSketch> sketch =
          CountSketch::TryDeserialize(blob, error);
      if (!sketch) return nullptr;
      if (!TablesFit<CountSketch>(sketch->width(), sketch->depth(), 1)) break;
      return std::make_unique<CountSketchEntry>(std::move(*sketch));
    }
    case SketchType::kBloom: {
      std::optional<BloomFilter> filter =
          BloomFilter::TryDeserialize(blob, error);
      if (!filter) return nullptr;
      if (!BloomFits(filter->num_bits(),
                     static_cast<uint64_t>(filter->num_hashes()))) {
        break;
      }
      return std::make_unique<BloomEntry>(std::move(*filter));
    }
    case SketchType::kStreamSummary: {
      std::optional<StreamSummary> summary =
          StreamSummary::TryDeserialize(blob, error);
      if (!summary) return nullptr;
      if (!SummaryFits(summary->options())) break;
      return std::make_unique<SummaryEntry>(std::move(*summary));
    }
    default:
      *error = "unknown sketch type";
      return nullptr;
  }
  *error = "geometry exceeds counter budget";
  return nullptr;
}

std::vector<uint8_t> SketchService::HandleCreate(const Frame& frame) {
  CreateSketchRequest request;
  if (!DecodeCreateSketch(frame, &request) || request.name.empty()) {
    return MalformedPayload(frame.opcode);
  }
  switch (request.type) {
    case SketchType::kCountMin:
    case SketchType::kCountSketch:
    case SketchType::kBloom:
    case SketchType::kStreamSummary:
    case SketchType::kShardedCountMin:
      break;
    default:
      return MakeError(ErrorCode::kBadSketchType, "unknown sketch type");
  }
  ErrorResponse error;
  std::unique_ptr<internal::SketchEntry> entry = BuildEntry(request, &error);
  if (entry == nullptr) return EncodeError(error);
  if (!InsertEntry(request.name, std::move(entry))) {
    return MakeError(ErrorCode::kSketchExists,
                     "a sketch with this name already exists");
  }
  SKETCH_COUNTER_INC("server.sketches_created");
  return EncodeOk();
}

std::vector<uint8_t> SketchService::HandleDrop(const NamedRequest& request) {
  RegistryStripe& stripe = StripeFor(request.name);
  MutexLock lock(stripe.mutex);
  if (stripe.entries.erase(request.name) == 0) {
    return NoSuchSketch(request.name);
  }
  return EncodeOk();
}

std::vector<uint8_t> SketchService::HandlePointQuery(const Frame& frame) {
  SKETCH_TRACE_SPAN("server.point_query");
  PointQueryRequest request;
  if (!DecodePointQuery(frame, &request)) {
    return MalformedPayload(frame.opcode);
  }
  return WithEntryShared(request.name, [&](internal::SketchEntry& entry) {
    SKETCH_COUNTER_INC("server.point_queries");
    return EncodePointValue(entry.PointQuery(request.item));
  });
}

std::vector<uint8_t> SketchService::HandlePointQueryBatch(const Frame& frame) {
  SKETCH_TRACE_SPAN("server.point_query_batch");
  PointQueryBatchRequest request;
  if (!DecodePointQueryBatch(frame, &request)) {
    return MalformedPayload(frame.opcode);
  }
  return WithEntryShared(request.name, [&](internal::SketchEntry& entry) {
    SKETCH_COUNTER_INC("server.point_query_batches");
    SKETCH_COUNTER_ADD("server.point_queries", request.items.size());
    ValueBatchResponse batch;
    entry.PointQueryBatch(request.items, &batch.values);
    return EncodeValueBatch(batch);
  });
}

std::vector<uint8_t> SketchService::HandleHeavyHitters(const Frame& frame) {
  SKETCH_TRACE_SPAN("server.heavy_hitters");
  HeavyHittersRequest request;
  if (!DecodeHeavyHitters(frame, &request)) {
    return MalformedPayload(frame.opcode);
  }
  // StreamSummary::HeavyHitters CHECKs its threshold; validate here so a
  // hostile phi is an error response, not an abort.
  if (!(request.phi > 0.0) || !(request.phi < 1.0)) {
    return MakeError(ErrorCode::kMalformedPayload,
                     "phi must lie strictly between 0 and 1");
  }
  return WithEntryShared(request.name, [&](internal::SketchEntry& entry) {
    ItemsResponse items;
    ErrorResponse error;
    if (!entry.HeavyHitters(request.phi, &items.items, &error)) {
      return EncodeError(error);
    }
    return EncodeItems(items);
  });
}

std::vector<uint8_t> SketchService::HandleInnerProduct(const Frame& frame) {
  SKETCH_TRACE_SPAN("server.inner_product");
  InnerProductRequest request;
  if (!DecodeInnerProduct(frame, &request)) {
    return MalformedPayload(frame.opcode);
  }
  const std::shared_ptr<internal::EntryHandle> left =
      FindHandle(request.left);
  const std::shared_ptr<internal::EntryHandle> right =
      FindHandle(request.right);
  if (left == nullptr || right == nullptr) {
    return MakeError(ErrorCode::kNoSuchSketch,
                     "both sketches must exist for an inner product");
  }
  if (left == right) {
    // Self inner product: one entry, one lock.
    ReaderMutexLock lock(left->mutex);
    return InnerProductBetween(*left->entry, *left->entry);
  }
  // Two distinct entries: acquire both locks in increasing handle address
  // order (the documented lock order for multi-entry operations — shared
  // acquisitions included, since writer-priority rwlocks can deadlock on
  // crossed shared/shared acquisition too).
  const bool left_first =
      std::less<internal::EntryHandle*>()(left.get(), right.get());
  internal::EntryHandle& lo = left_first ? *left : *right;
  internal::EntryHandle& hi = left_first ? *right : *left;
  ReaderMutexLock lo_lock(lo.mutex);
  ReaderMutexLock hi_lock(hi.mutex);
  internal::SketchEntry& lo_entry = *lo.entry;
  internal::SketchEntry& hi_entry = *hi.entry;
  return InnerProductBetween(left_first ? lo_entry : hi_entry,
                             left_first ? hi_entry : lo_entry);
}

std::vector<uint8_t> SketchService::HandleSnapshot(
    const NamedRequest& request) {
  SKETCH_TRACE_SPAN("server.snapshot");
  return WithEntryShared(request.name, [&](internal::SketchEntry& entry) {
    SKETCH_COUNTER_INC("server.snapshots");
    return EncodeBlob(entry.SnapshotBytes(),
                      [&](std::vector<uint8_t>* out) {
                        entry.AppendSnapshot(out);
                      });
  });
}

std::vector<uint8_t> SketchService::HandleRestore(const Frame& frame) {
  SKETCH_TRACE_SPAN("server.restore");
  // The blob is restored from where it lies in the frame's payload.
  RestoreRequestView request;
  if (!DecodeRestore(frame, &request) || request.name.empty()) {
    return MalformedPayload(frame.opcode);
  }
  std::string error;
  std::unique_ptr<internal::SketchEntry> entry =
      BuildEntryFromBlob(request.type, request.blob, &error);
  if (entry == nullptr) return MakeError(ErrorCode::kBadBlob, error);
  if (!InsertEntry(request.name, std::move(entry))) {
    return MakeError(ErrorCode::kSketchExists,
                     "a sketch with this name already exists");
  }
  SKETCH_COUNTER_INC("server.restores");
  return EncodeOk();
}

std::vector<uint8_t> SketchService::HandleList() {
  std::ostringstream out;
  out << "[";
  bool first = true;
  ForEachSketch([&](const std::string& name,
                    const internal::SketchEntry& entry) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << EscapeJson(name) << "\",\"type\":\""
        << SketchTypeName(entry.type()) << "\",\"counters\":"
        << entry.SizeInCounters() << ",\"updates\":"
        << entry.updates_applied() << "}";
  });
  out << "]";
  TextResponse response;
  response.text = out.str();
  return EncodeText(response);
}

std::vector<uint8_t> SketchService::HandleStatsz() {
  TextResponse response;
  response.text = StatszJson();
  return EncodeText(response);
}

std::string SketchService::StatszJson() {
  // /statsz: registry summary, registered pull-gauges, the slow-query
  // log, and the process-wide metric registry, one JSON object.
  std::ostringstream out;
  out << "{\"sketches\":[";
  bool first = true;
  ForEachSketch([&](const std::string& name,
                    const internal::SketchEntry& entry) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << EscapeJson(name) << "\",\"type\":\""
        << SketchTypeName(entry.type()) << "\",\"counters\":"
        << entry.SizeInCounters() << ",\"memory_bytes\":"
        << entry.MemoryFootprintBytes() << ",\"updates\":"
        << entry.updates_applied() << "}";
  });
  out << "],\"gauges\":{";
  {
    MutexLock lock(gauges_mutex_);
    bool first_gauge = true;
    for (const auto& [gauge_name, gauge_fn] : gauges_) {
      if (!first_gauge) out << ",";
      first_gauge = false;
      out << "\"" << EscapeJson(gauge_name) << "\":" << gauge_fn();
    }
  }
  out << "},\"slow_queries\":" << slow_log_.ToJson() << ",\"metrics\":"
      << telemetry::MetricRegistry::Instance().DumpJson() << "}";
  return out.str();
}

void SketchService::ForEachSketch(
    const std::function<void(const std::string&,
                             const internal::SketchEntry&)>& fn) const {
  // Gather handles stripe by stripe (stripe mutex only) into one map, so
  // the walk is in global name order, then visit each entry under its own
  // shared lock — never a stripe mutex and an entry lock together, and
  // only one entry lock at a time, so this walk can never participate in
  // a lock cycle with request handling.
  std::map<std::string, std::shared_ptr<internal::EntryHandle>> handles;
  for (const RegistryStripe& stripe : stripes_) {
    MutexLock lock(stripe.mutex);
    handles.insert(stripe.entries.begin(), stripe.entries.end());
  }
  for (const auto& [name, handle] : handles) {
    ReaderMutexLock lock(handle->mutex);
    fn(name, *handle->entry);
  }
}

std::vector<uint8_t> SketchService::HandleTraceDump() {
  TextResponse response;
  response.text =
      telemetry::TraceRecorder::Instance().ExportChromeTraceJson();
  return EncodeText(response);
}

}  // namespace sketch::server
