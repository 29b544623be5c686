#include "server/sketch_service.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <optional>
#include <sstream>
#include <utility>

#include "common/timer.h"
#include "parallel/sharded_sketch.h"
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

/// Sum of |delta| over a batch: an upper bound on the L1 mass the batch
/// adds, tracked so Count-Min point queries can report their eps*||x||_1
/// error scale.
int64_t BatchL1(UpdateSpan updates) {
  int64_t l1 = 0;
  for (const StreamUpdate& u : updates) {
    l1 += u.delta < 0 ? -u.delta : u.delta;
  }
  return l1;
}

/// F2 estimate from a Count-Sketch's own counters: per row the sum of
/// squared counters is an unbiased F2 estimator; the median over rows
/// gives the usual high-probability bound. Used to scale the L2 error
/// bound sqrt(3 * F2 / width) reported with point estimates.
double EstimateF2FromCounters(const CountSketch& sketch) {
  std::vector<double> rows;
  rows.reserve(sketch.depth());
  for (uint64_t j = 0; j < sketch.depth(); ++j) {
    double sum = 0.0;
    for (uint64_t b = 0; b < sketch.width(); ++b) {
      const auto c = static_cast<double>(sketch.CounterAt(j, b));
      sum += c * c;
    }
    rows.push_back(sum);
  }
  std::nth_element(rows.begin(), rows.begin() + rows.size() / 2, rows.end());
  return rows[rows.size() / 2];
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

/// JSON string escaping for sketch names (arbitrary client bytes).
std::string EscapeJson(const std::string& raw) {
  std::string out;
  out.reserve(raw.size() + 2);
  for (const char c : raw) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (byte < 0x20) {
      static const char* kHex = "0123456789abcdef";
      out += "\\u00";
      out.push_back(kHex[byte >> 4]);
      out.push_back(kHex[byte & 0xf]);
    } else {
      out.push_back(c);
    }
  }
  return out;
}

using internal::SketchEntry;

class CountMinEntry : public SketchEntry {
 public:
  explicit CountMinEntry(CountMinSketch sketch) : sketch_(std::move(sketch)) {
    // A restored sketch's L1 mass is recovered from row 0: every update
    // adds its delta to exactly one counter per row, so for a
    // non-negative stream the row sum equals the stream mass.
    for (uint64_t b = 0; b < sketch_.width(); ++b) {
      const int64_t c = sketch_.CounterAt(0, b);
      l1_mass_ += c < 0 ? -c : c;
    }
  }

  SketchType type() const override { return SketchType::kCountMin; }

  bool Ingest(UpdateSpan updates, ErrorResponse*) override {
    sketch_.ApplyBatch(updates);
    l1_mass_ += BatchL1(updates);
    updates_applied_ += updates.size();
    return true;
  }

  PointValueResponse PointQuery(uint64_t item) override {
    PointValueResponse response;
    response.estimate = sketch_.Estimate(item);
    response.error_bound = kEuler / static_cast<double>(sketch_.width()) *
                           static_cast<double>(l1_mass_);
    response.bound_kind = BoundKind::kL1;
    return response;
  }

  void PointQueryBatch(const std::vector<uint64_t>& items,
                       std::vector<PointValueResponse>* out) override {
    // Batched read path: buckets come from the EstimateBatch kernel
    // (SIMD-tier), and the L1 bound is shared by every key in the batch.
    std::vector<int64_t> estimates(items.size());
    sketch_.EstimateBatch(items.data(), items.size(), estimates.data());
    PointValueResponse value;
    value.error_bound = kEuler / static_cast<double>(sketch_.width()) *
                        static_cast<double>(l1_mass_);
    value.bound_kind = BoundKind::kL1;
    out->reserve(items.size());
    for (int64_t estimate : estimates) {
      value.estimate = estimate;
      out->push_back(value);
    }
  }

  bool HeavyHitters(double, std::vector<uint64_t>*,
                    ErrorResponse* error) override {
    error->code = ErrorCode::kUnsupported;
    error->message = "flat CountMin cannot enumerate items; use a "
                     "StreamSummary sketch";
    return false;
  }

  bool InnerProduct(SketchEntry& other, int64_t* result,
                    ErrorResponse* error) override {
    const CountMinSketch* rhs = other.AsCountMin();
    if (rhs == nullptr) {
      error->code = ErrorCode::kUnsupported;
      error->message = "inner product requires two CountMin sketches";
      return false;
    }
    if (rhs->width() != sketch_.width() || rhs->depth() != sketch_.depth() ||
        rhs->seed() != sketch_.seed() ||
        rhs->width_mode() != sketch_.width_mode()) {
      error->code = ErrorCode::kGeometryMismatch;
      error->message = "inner product requires identical geometry and seed";
      return false;
    }
    *result = sketch_.EstimateInnerProduct(*rhs);
    return true;
  }

  std::vector<uint8_t> Snapshot() override { return sketch_.Serialize(); }
  const CountMinSketch* AsCountMin() override { return &sketch_; }
  uint64_t SizeInCounters() const override { return sketch_.SizeInCounters(); }
  uint64_t MemoryFootprintBytes() const override {
    return sketch_.MemoryFootprintBytes();
  }
  StatsSnapshot Introspect() const override { return sketch_.Introspect(); }

 private:
  CountMinSketch sketch_;
  int64_t l1_mass_ = 0;
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
    // Buckets and signs come from the EstimateBatch kernel (SIMD-tier);
    // the L2 bound is read once and shared by every key in the batch.
    std::vector<int64_t> estimates(items.size());
    sketch_.EstimateBatch(items.data(), items.size(), estimates.data());
    PointValueResponse value;
    value.error_bound = L2Bound();
    value.bound_kind = BoundKind::kL2;
    out->reserve(items.size());
    for (int64_t estimate : estimates) {
      value.estimate = estimate;
      out->push_back(value);
    }
  }

  bool HeavyHitters(double, std::vector<uint64_t>*,
                    ErrorResponse* error) override {
    error->code = ErrorCode::kUnsupported;
    error->message = "flat CountSketch cannot enumerate items; use a "
                     "StreamSummary sketch";
    return false;
  }

  bool InnerProduct(SketchEntry& other, int64_t* result,
                    ErrorResponse* error) override {
    const CountSketch* rhs = other.AsCountSketch();
    if (rhs == nullptr) {
      error->code = ErrorCode::kUnsupported;
      error->message = "inner product requires two CountSketch sketches";
      return false;
    }
    if (rhs->width() != sketch_.width() || rhs->depth() != sketch_.depth() ||
        rhs->seed() != sketch_.seed() ||
        rhs->width_mode() != sketch_.width_mode()) {
      error->code = ErrorCode::kGeometryMismatch;
      error->message = "inner product requires identical geometry and seed";
      return false;
    }
    *result = sketch_.EstimateInnerProduct(*rhs);
    return true;
  }

  std::vector<uint8_t> Snapshot() override { return sketch_.Serialize(); }
  const CountSketch* AsCountSketch() override { return &sketch_; }
  uint64_t SizeInCounters() const override { return sketch_.SizeInCounters(); }
  uint64_t MemoryFootprintBytes() const override {
    return sketch_.MemoryFootprintBytes();
  }
  StatsSnapshot Introspect() const override { return sketch_.Introspect(); }

 private:
  /// sqrt(3 * F2 / width), with F2 from the cached counter-table scan.
  double L2Bound() {
    const double f2 = f2_.Get([&] { return EstimateF2FromCounters(sketch_); });
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

  bool HeavyHitters(double, std::vector<uint64_t>*,
                    ErrorResponse* error) override {
    error->code = ErrorCode::kUnsupported;
    error->message = "Bloom filters answer membership, not frequencies";
    return false;
  }

  bool InnerProduct(SketchEntry&, int64_t*, ErrorResponse* error) override {
    error->code = ErrorCode::kUnsupported;
    error->message = "Bloom filters do not support inner products";
    return false;
  }

  std::vector<uint8_t> Snapshot() override { return filter_.Serialize(); }
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

  bool InnerProduct(SketchEntry&, int64_t*, ErrorResponse* error) override {
    error->code = ErrorCode::kUnsupported;
    error->message = "StreamSummary does not support inner products";
    return false;
  }

  std::vector<uint8_t> Snapshot() override { return summary_.Serialize(); }
  uint64_t SizeInCounters() const override {
    return summary_.SizeInCounters();
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

/// Sharded Count-Min: ingest fans out across `num_shards` replicas on the
/// service pool; queries materialize the collapsed sketch lazily (cached
/// until the next ingest dirties it). Restored state lives in `base_`,
/// kept outside the replicas so a restore never multiplies counts.
///
/// Concurrency: queries run under the owning handle's *shared* lock, so
/// the lazy materialization is serialized by an internal cache_mutex_.
/// Ingest (exclusive lock) marks the cache dirty; the first query after
/// an ingest rebuilds it and concurrent queries wait on cache_mutex_
/// rather than each collapsing the shards.
class ShardedCountMinEntry : public SketchEntry {
 public:
  ShardedCountMinEntry(const CountMinSketch& prototype, CountMinSketch base,
                       std::size_t num_shards, ThreadPool* pool)
      : sharded_(prototype, num_shards, pool),
        base_(std::move(base)),
        cache_(prototype) {
    // Restored state arrives through base_; recover its L1 mass from
    // row 0 exactly like CountMinEntry (zero for a fresh create).
    for (uint64_t b = 0; b < base_.width(); ++b) {
      const int64_t c = base_.CounterAt(0, b);
      l1_mass_ += c < 0 ? -c : c;
    }
  }

  SketchType type() const override { return SketchType::kShardedCountMin; }

  bool Ingest(UpdateSpan updates, ErrorResponse*) override {
    sharded_.Ingest(updates);
    l1_mass_ += BatchL1(updates);
    updates_applied_ += updates.size();
    MutexLock lock(cache_mutex_);
    dirty_ = true;
    return true;
  }

  PointValueResponse PointQuery(uint64_t item) override {
    const CountMinSketch& view = Materialize();
    PointValueResponse response;
    response.estimate = view.Estimate(item);
    response.error_bound = kEuler / static_cast<double>(view.width()) *
                           static_cast<double>(l1_mass_);
    response.bound_kind = BoundKind::kL1;
    return response;
  }

  void PointQueryBatch(const std::vector<uint64_t>& items,
                       std::vector<PointValueResponse>* out) override {
    const CountMinSketch& view = Materialize();
    std::vector<int64_t> estimates(items.size());
    view.EstimateBatch(items.data(), items.size(), estimates.data());
    PointValueResponse value;
    value.error_bound = kEuler / static_cast<double>(view.width()) *
                        static_cast<double>(l1_mass_);
    value.bound_kind = BoundKind::kL1;
    out->reserve(items.size());
    for (int64_t estimate : estimates) {
      value.estimate = estimate;
      out->push_back(value);
    }
  }

  bool HeavyHitters(double, std::vector<uint64_t>*,
                    ErrorResponse* error) override {
    error->code = ErrorCode::kUnsupported;
    error->message = "flat CountMin cannot enumerate items; use a "
                     "StreamSummary sketch";
    return false;
  }

  bool InnerProduct(SketchEntry& other, int64_t* result,
                    ErrorResponse* error) override {
    const CountMinSketch& lhs = Materialize();
    const CountMinSketch* rhs = other.AsCountMin();
    if (rhs == nullptr) {
      error->code = ErrorCode::kUnsupported;
      error->message = "inner product requires two CountMin sketches";
      return false;
    }
    if (rhs->width() != lhs.width() || rhs->depth() != lhs.depth() ||
        rhs->seed() != lhs.seed() ||
        rhs->width_mode() != lhs.width_mode()) {
      error->code = ErrorCode::kGeometryMismatch;
      error->message = "inner product requires identical geometry and seed";
      return false;
    }
    *result = lhs.EstimateInnerProduct(*rhs);
    return true;
  }

  std::vector<uint8_t> Snapshot() override { return Materialize().Serialize(); }
  const CountMinSketch* AsCountMin() override { return &Materialize(); }

  uint64_t SizeInCounters() const override {
    return base_.SizeInCounters() * (sharded_.num_shards() + 2);
  }
  uint64_t MemoryFootprintBytes() const override {
    return sharded_.MemoryFootprintBytes() + base_.MemoryFootprintBytes() +
           cache_.MemoryFootprintBytes();
  }
  StatsSnapshot Introspect() const override {
    // Introspect the live shards plus the restored base, never the
    // materialization cache (mutating it here would violate the
    // shared-lock contract, and it is derived state anyway).
    StatsSnapshot snapshot = sharded_.Introspect();
    snapshot.children.push_back(base_.Introspect());
    return snapshot;
  }

 private:
  const CountMinSketch& Materialize() {
    MutexLock lock(cache_mutex_);
    if (dirty_) {
      cache_ = sharded_.Collapse();
      cache_.Merge(base_);
      dirty_ = false;
    }
    return cache_;
  }

  ShardedSketch<CountMinSketch> sharded_;
  CountMinSketch base_;
  mutable Mutex cache_mutex_;
  // cache_ is written only inside cache_mutex_ (Materialize). It is
  // deliberately *not* annotated GUARDED_BY: Materialize returns it by
  // reference to callers that keep reading it after the mutex drops,
  // which is safe because dirty_ can only become true again under the
  // owning handle's exclusive lock — i.e. after every shared-lock reader
  // has left. Annotating it would trip -Wthread-safety-reference on that
  // (correct) return.
  CountMinSketch cache_;
  int64_t l1_mass_ = 0;
  bool dirty_ SKETCH_GUARDED_BY(cache_mutex_) = true;
};

/// True iff width * depth is a valid, budgeted counter table.
bool ValidTable(uint64_t width, uint64_t depth, uint64_t budget) {
  return width >= 1 && depth >= 1 && width <= UINT64_MAX / depth &&
         width * depth <= budget;
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
  PayloadReader reader(frame.payload);
  std::string name;
  if (!reader.TryReadString(&name)) return std::string();
  return name;
}

#if SKETCH_TELEMETRY_ENABLED
/// Trace id of the request currently being dispatched on this thread
/// (0 = untraced). Plumbed thread-locally so the lock/kernel spans deep
/// inside WithEntry* need no signature changes across every handler.
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
/// the lock, call Locked() immediately after. Untraced requests pay one
/// thread-local load and no clock reads.
class TracedLockTimer {
 public:
  TracedLockTimer()
      : id_(tls_trace_id), start_ns_(id_ != 0 ? MonotonicNowNs() : 0) {}
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

/// Runs a handler body, bracketing it with a server.kernel span when the
/// current request is traced.
template <typename Fn, typename Entry>
std::vector<uint8_t> RunKernel(Fn&& fn, Entry& entry) {
  const uint64_t id = tls_trace_id;
  if (id == 0) return fn(entry);
  SKETCH_TRACE_SPAN_ID("server.kernel", id);
  return fn(entry);
}

/// Ingest bracketed with a server.kernel span when the request is traced
/// (the coalesced-run path, where the id rides on the request, not tls).
bool TracedIngest(internal::SketchEntry& entry, const IngestRequest& request,
                  ErrorResponse* error) {
  if (request.trace_id != 0) {
    SKETCH_TRACE_SPAN_ID("server.kernel", request.trace_id);
    return entry.Ingest(UpdateSpan(request.updates), error);
  }
  return entry.Ingest(UpdateSpan(request.updates), error);
}
#else   // !SKETCH_TELEMETRY_ENABLED
class ScopedRequestTraceId {
 public:
  explicit ScopedRequestTraceId(uint64_t) {}
};

class TracedLockTimer {
 public:
  TracedLockTimer() = default;
  explicit TracedLockTimer(uint64_t) {}
  void Locked() const {}
};

template <typename Fn, typename Entry>
std::vector<uint8_t> RunKernel(Fn&& fn, Entry& entry) {
  return fn(entry);
}

bool TracedIngest(internal::SketchEntry& entry, const IngestRequest& request,
                  ErrorResponse* error) {
  return entry.Ingest(UpdateSpan(request.updates), error);
}
#endif  // SKETCH_TELEMETRY_ENABLED

#if SKETCH_TELEMETRY_ENABLED
/// Per-opcode request-latency histograms (log2 buckets). The histogram
/// macros demand static-lifetime literal names, hence the switch: one
/// literal per opcode, resolved to a cached registry reference on first
/// use.
void RecordOpcodeLatencyNs(Opcode opcode, uint64_t ns) {
  switch (opcode) {
    case Opcode::kPing:
      SKETCH_HISTOGRAM_RECORD("server.latency_ns.Ping", ns);
      break;
    case Opcode::kCreateSketch:
      SKETCH_HISTOGRAM_RECORD("server.latency_ns.CreateSketch", ns);
      break;
    case Opcode::kDropSketch:
      SKETCH_HISTOGRAM_RECORD("server.latency_ns.DropSketch", ns);
      break;
    case Opcode::kIngest:
      SKETCH_HISTOGRAM_RECORD("server.latency_ns.Ingest", ns);
      break;
    case Opcode::kPointQuery:
      SKETCH_HISTOGRAM_RECORD("server.latency_ns.PointQuery", ns);
      break;
    case Opcode::kHeavyHitters:
      SKETCH_HISTOGRAM_RECORD("server.latency_ns.HeavyHitters", ns);
      break;
    case Opcode::kInnerProduct:
      SKETCH_HISTOGRAM_RECORD("server.latency_ns.InnerProduct", ns);
      break;
    case Opcode::kSnapshot:
      SKETCH_HISTOGRAM_RECORD("server.latency_ns.Snapshot", ns);
      break;
    case Opcode::kRestore:
      SKETCH_HISTOGRAM_RECORD("server.latency_ns.Restore", ns);
      break;
    case Opcode::kListSketches:
      SKETCH_HISTOGRAM_RECORD("server.latency_ns.ListSketches", ns);
      break;
    case Opcode::kStatsz:
      SKETCH_HISTOGRAM_RECORD("server.latency_ns.Statsz", ns);
      break;
    case Opcode::kTraceDump:
      SKETCH_HISTOGRAM_RECORD("server.latency_ns.TraceDump", ns);
      break;
    case Opcode::kShutdown:
      SKETCH_HISTOGRAM_RECORD("server.latency_ns.Shutdown", ns);
      break;
    case Opcode::kPointQueryBatch:
      SKETCH_HISTOGRAM_RECORD("server.latency_ns.PointQueryBatch", ns);
      break;
    default:
      SKETCH_HISTOGRAM_RECORD("server.latency_ns.Unknown", ns);
      break;
  }
}
#endif  // SKETCH_TELEMETRY_ENABLED

}  // namespace

std::vector<uint8_t> SketchService::HandleFrame(const Frame& frame) {
  // The dispatch span of a traced request's life (decode and write live
  // in the transport layers); tagged with the wire trace id when present.
  SKETCH_TRACE_SPAN_ID("server.handle_frame", frame.trace_id);
  SKETCH_COUNTER_INC("server.frames_handled");
  const ScopedRequestTraceId scoped_id(frame.trace_id);
#if SKETCH_TELEMETRY_ENABLED
  const bool timed = true;
#else
  // The slow-query log is the only latency consumer in telemetry-off
  // builds; skip both clock reads entirely when it is disabled.
  const bool timed = slow_log_.enabled();
#endif
  if (!timed) return DispatchFrame(frame);
  const uint64_t start_ns = MonotonicNowNs();
  std::vector<uint8_t> response = DispatchFrame(frame);
  const uint64_t latency_ns = MonotonicNowNs() - start_ns;
#if SKETCH_TELEMETRY_ENABLED
  RecordOpcodeLatencyNs(frame.opcode, latency_ns);
#endif
  if (slow_log_.enabled() && slow_log_.WouldRecord(frame.opcode, latency_ns)) {
    slow_log_.Record(frame.opcode, latency_ns, PeekSketchName(frame),
                     frame.payload.size(), frame.trace_id);
  }
  return response;
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
    case Opcode::kIngest:
      return HandleIngest(frame);
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
  return MakeError(ErrorCode::kUnknownOpcode,
                   std::string("unknown or non-request opcode ") +
                       OpcodeName(frame.opcode));
}

void SketchService::HandleFrames(const std::vector<Frame>& frames,
                                 std::vector<std::vector<uint8_t>>* responses) {
  responses->reserve(responses->size() + frames.size());
  std::size_t i = 0;
  while (i < frames.size()) {
    if (frames[i].opcode != Opcode::kIngest) {
      responses->push_back(HandleFrame(frames[i]));
      ++i;
      continue;
    }
    // Collect the longest run of consecutive, well-formed ingest frames
    // addressing the same sketch; the run shares one registry lookup and
    // one exclusive entry lock.
    std::vector<IngestRequest> run;
    while (i < frames.size() && frames[i].opcode == Opcode::kIngest) {
      IngestRequest request;
      if (!DecodeIngest(frames[i], &request)) {
        if (run.empty()) {
          responses->push_back(MalformedPayload(frames[i].opcode));
          ++i;
        }
        break;
      }
      if (!run.empty() && request.name != run.front().name) break;
      run.push_back(std::move(request));
      ++i;
    }
    if (!run.empty()) ApplyIngestRun(run, responses);
  }
}

void SketchService::ApplyIngestRun(
    const std::vector<IngestRequest>& run,
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
  const bool slow_log_on = slow_log_.enabled();
  for (const IngestRequest& request : run) {
#if SKETCH_TELEMETRY_ENABLED
    const bool timed = true;
#else
    const bool timed = slow_log_on;
#endif
    const uint64_t start_ns = timed ? MonotonicNowNs() : 0;
    ErrorResponse error;
    const bool ok = TracedIngest(*handle->entry, request, &error);
    if (!ok) {
      responses->push_back(EncodeError(error));
    } else {
      SKETCH_COUNTER_ADD("server.updates_ingested", request.updates.size());
      IngestAckResponse ack;
      ack.accepted = request.updates.size();
      responses->push_back(EncodeIngestAck(ack));
    }
    if (timed) {
      const uint64_t latency_ns = MonotonicNowNs() - start_ns;
#if SKETCH_TELEMETRY_ENABLED
      RecordOpcodeLatencyNs(Opcode::kIngest, latency_ns);
#endif
      if (slow_log_on &&
          slow_log_.WouldRecord(Opcode::kIngest, latency_ns)) {
        // Reconstruct the wire payload size the coalescing path no longer
        // has: u16 name length + name + u32 count + 16 bytes per update.
        const std::size_t payload_bytes =
            2 + request.name.size() + 4 + 16 * request.updates.size();
        slow_log_.Record(Opcode::kIngest, latency_ns, request.name,
                         payload_bytes, request.trace_id);
      }
    }
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
  const TracedLockTimer timer;
  ReaderMutexLock lock(handle->mutex);
  timer.Locked();
  return RunKernel(fn, *handle->entry);
}

template <typename Fn>
std::vector<uint8_t> SketchService::WithEntryExclusive(const std::string& name,
                                                       Fn&& fn) {
  const std::shared_ptr<internal::EntryHandle> handle = FindHandle(name);
  if (handle == nullptr) return NoSuchSketch(name);
  const TracedLockTimer timer;
  WriterMutexLock lock(handle->mutex);
  timer.Locked();
  return RunKernel(fn, *handle->entry);
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
    case SketchType::kCountMin: {
      uint64_t width = p[0];
      WidthMode mode = WidthMode::kDivision;
      if (!ParseWidthMode(p[3], &width, &mode) ||
          !ValidTable(width, p[1], kMaxSketchCounters)) {
        break;
      }
      return std::make_unique<CountMinEntry>(
          CountMinSketch(p[0], p[1], p[2], mode));
    }
    case SketchType::kCountSketch: {
      uint64_t width = p[0];
      WidthMode mode = WidthMode::kDivision;
      if (!ParseWidthMode(p[3], &width, &mode) ||
          !ValidTable(width, p[1], kMaxSketchCounters)) {
        break;
      }
      return std::make_unique<CountSketchEntry>(
          CountSketch(p[0], p[1], p[2], mode));
    }
    case SketchType::kBloom: {
      uint64_t num_bits = p[0];
      const uint64_t num_hashes = p[1];
      WidthMode mode = WidthMode::kDivision;
      if (!ParseWidthMode(p[3], &num_bits, &mode) || num_bits < 1 ||
          num_bits > kMaxSketchCounters * 64 || num_hashes < 1 ||
          num_hashes > 1024) {
        break;
      }
      return std::make_unique<BloomEntry>(
          BloomFilter(p[0], static_cast<int>(num_hashes), p[2], mode));
    }
    case SketchType::kStreamSummary: {
      StreamSummary::Options options;
      const uint64_t log_universe = p[0];
      if (log_universe < 1 || log_universe > 40) break;
      options.log_universe = static_cast<int>(log_universe);
      options.width = p[1];
      options.depth = p[2];
      options.verify_width = p[3];
      options.seed = p[4];
      // Budget the whole composite: log_universe dyadic levels plus the
      // verifier and AMS tables (both at depth | 1).
      if (!ValidTable(options.width, options.depth, kMaxSketchCounters)) {
        break;
      }
      const uint64_t dyadic = options.width * options.depth * log_universe;
      if (options.width * options.depth > kMaxSketchCounters / log_universe ||
          !ValidTable(options.verify_width, options.depth | 1,
                      kMaxSketchCounters) ||
          !ValidTable(options.width, options.depth | 1, kMaxSketchCounters)) {
        break;
      }
      const uint64_t total = dyadic +
                             options.verify_width * (options.depth | 1) +
                             options.width * (options.depth | 1);
      if (total > kMaxSketchCounters) break;
      return std::make_unique<SummaryEntry>(StreamSummary(options));
    }
    case SketchType::kShardedCountMin: {
      const uint64_t num_shards = p[3];
      uint64_t width = p[0];
      WidthMode mode = WidthMode::kDivision;
      if (!ParseWidthMode(p[4], &width, &mode) ||
          !ValidTable(width, p[1], kMaxSketchCounters) || num_shards < 1 ||
          num_shards > 256) {
        break;
      }
      const CountMinSketch prototype(p[0], p[1], p[2], mode);
      return std::make_unique<ShardedCountMinEntry>(
          prototype, prototype, static_cast<std::size_t>(num_shards),
          options_.pool);
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
  // kMaxFramePayloadBytes bounds the blob); the served-sketch budget is
  // then checked on what was decoded.
  const auto within_budget = [error](uint64_t counters) {
    if (counters <= kMaxSketchCounters) return true;
    *error = "geometry exceeds counter budget";
    return false;
  };
  switch (type) {
    case SketchType::kCountMin: {
      std::optional<CountMinSketch> sketch =
          CountMinSketch::TryDeserialize(blob, error);
      if (!sketch || !within_budget(sketch->SizeInCounters())) break;
      return std::make_unique<CountMinEntry>(std::move(*sketch));
    }
    case SketchType::kCountSketch: {
      std::optional<CountSketch> sketch =
          CountSketch::TryDeserialize(blob, error);
      if (!sketch || !within_budget(sketch->SizeInCounters())) break;
      return std::make_unique<CountSketchEntry>(std::move(*sketch));
    }
    case SketchType::kBloom: {
      std::optional<BloomFilter> filter =
          BloomFilter::TryDeserialize(blob, error);
      if (!filter || !within_budget((filter->num_bits() + 63) / 64)) break;
      return std::make_unique<BloomEntry>(std::move(*filter));
    }
    case SketchType::kStreamSummary: {
      std::optional<StreamSummary> summary =
          StreamSummary::TryDeserialize(blob, error);
      if (!summary || !within_budget(summary->SizeInCounters())) break;
      return std::make_unique<SummaryEntry>(std::move(*summary));
    }
    case SketchType::kShardedCountMin: {
      // A sharded snapshot is the collapsed CountMin state; the budget
      // applies to it, as to a create's geometry.
      std::optional<CountMinSketch> base =
          CountMinSketch::TryDeserialize(blob, error);
      if (!base || !within_budget(base->SizeInCounters())) break;
      // base->width() is already rounded when the blob is pow2, so the
      // prototype's own rounding is the identity — shards and the restored
      // base stay merge-compatible.
      const CountMinSketch prototype(base->width(), base->depth(),
                                     base->seed(), base->width_mode());
      return std::make_unique<ShardedCountMinEntry>(
          prototype, std::move(*base), options_.default_shards,
          options_.pool);
    }
    default:
      *error = "unknown sketch type";
  }
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

std::vector<uint8_t> SketchService::HandleIngest(const Frame& frame) {
  SKETCH_TRACE_SPAN("server.ingest");
  IngestRequest request;
  if (!DecodeIngest(frame, &request)) return MalformedPayload(frame.opcode);
  return WithEntryExclusive(request.name, [&](internal::SketchEntry& entry) {
    ErrorResponse error;
    if (!entry.Ingest(UpdateSpan(request.updates), &error)) {
      return EncodeError(error);
    }
    SKETCH_COUNTER_ADD("server.updates_ingested", request.updates.size());
    IngestAckResponse ack;
    ack.accepted = request.updates.size();
    return EncodeIngestAck(ack);
  });
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
    BlobResponse blob;
    blob.bytes = entry.Snapshot();
    SKETCH_COUNTER_INC("server.snapshots");
    return EncodeBlob(blob);
  });
}

std::vector<uint8_t> SketchService::HandleRestore(const Frame& frame) {
  SKETCH_TRACE_SPAN("server.restore");
  RestoreRequest request;
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

namespace {

/// Snapshot of the registry in name order (a std::map per stripe keeps
/// each stripe sorted; merging into one map restores the global order the
/// pre-striping server reported). Only one stripe mutex is held at a
/// time, and no entry lock is held while gathering.
using HandleMap =
    std::map<std::string, std::shared_ptr<internal::EntryHandle>>;

}  // namespace

std::vector<uint8_t> SketchService::HandleList() {
  HandleMap handles;
  for (const RegistryStripe& stripe : stripes_) {
    MutexLock lock(stripe.mutex);
    handles.insert(stripe.entries.begin(), stripe.entries.end());
  }
  std::ostringstream out;
  out << "[";
  bool first = true;
  for (const auto& [name, handle] : handles) {
    if (!first) out << ",";
    first = false;
    const auto describe = [&out, &name](internal::SketchEntry& entry) {
      out << "{\"name\":\"" << EscapeJson(name) << "\",\"type\":\""
          << SketchTypeName(entry.type()) << "\",\"counters\":"
          << entry.SizeInCounters() << ",\"updates\":"
          << entry.updates_applied() << "}";
    };
    ReaderMutexLock lock(handle->mutex);
    describe(*handle->entry);
  }
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
  HandleMap handles;
  for (const RegistryStripe& stripe : stripes_) {
    MutexLock lock(stripe.mutex);
    handles.insert(stripe.entries.begin(), stripe.entries.end());
  }
  std::ostringstream out;
  out << "{\"sketches\":[";
  bool first = true;
  for (const auto& [name, handle] : handles) {
    if (!first) out << ",";
    first = false;
    const auto describe = [&out, &name](internal::SketchEntry& entry) {
      out << "{\"name\":\"" << EscapeJson(name) << "\",\"type\":\""
          << SketchTypeName(entry.type()) << "\",\"counters\":"
          << entry.SizeInCounters() << ",\"memory_bytes\":"
          << entry.MemoryFootprintBytes() << ",\"updates\":"
          << entry.updates_applied() << "}";
    };
    ReaderMutexLock lock(handle->mutex);
    describe(*handle->entry);
  }
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
  // Gather handles stripe by stripe (stripe mutex only), then visit each
  // entry under its own shared lock — never a stripe mutex and an entry
  // lock together, and only one entry lock at a time, so this walk can
  // never participate in a lock cycle with request handling.
  HandleMap handles;
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
