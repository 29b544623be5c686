#ifndef SKETCH_TELEMETRY_TRACE_H_
#define SKETCH_TELEMETRY_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "common/timer.h"

/// \file
/// Scoped trace spans recorded into per-thread ring buffers, exportable as
/// Chrome trace-event JSON (load in Perfetto / chrome://tracing).
///
/// A span is two `steady_clock` reads and one ring-buffer slot — cheap
/// enough to wrap every batch-level operation (ApplyBatch calls, shard
/// ingests, recovery phases), and deliberately not cheap enough for
/// per-item loops; counters cover those. Rings have fixed capacity and
/// overwrite their oldest events, so a long-running service keeps the
/// recent window instead of growing without bound.
///
/// Span names must have static storage duration (string literals): only
/// the pointer is stored. Instrumentation sites use `SKETCH_TRACE_SPAN`
/// from `telemetry/telemetry.h`; `SetEnabled(false)` turns every span
/// into one relaxed load at run time.

namespace sketch::telemetry {

/// One recorded event. `phase` follows the Chrome trace-event format:
/// 'X' = complete span (start + duration), 'C' = counter sample.
struct TraceEvent {
  const char* name = nullptr;  ///< static-lifetime label
  uint64_t start_ns = 0;       ///< steady-clock timestamp
  uint64_t duration_ns = 0;    ///< spans only
  double value = 0.0;          ///< counter samples only
  /// Request/trace correlation id (0 = none). Spans recorded on behalf of
  /// a wire-traced request carry its 8-byte id, exported as
  /// args.trace_id so one Perfetto query collects a request's full life
  /// across threads.
  uint64_t correlation_id = 0;
  uint32_t tid = 0;            ///< recorder-assigned thread id
  char phase = 'X';
};

/// Process-wide span recorder. Each thread owns a fixed-capacity ring of
/// events; readers snapshot all rings (including those of exited threads)
/// under a registration mutex.
class TraceRecorder {
 public:
  static constexpr std::size_t kDefaultRingCapacity = 4096;

  static TraceRecorder& Instance();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Runtime switch (default on). When disabled, Record* calls return
  /// after one relaxed load and ScopedSpan skips its clock reads.
  void SetEnabled(bool enabled) {
    // relaxed: advisory flag — a thread seeing the old value records or
    // skips one span from the toggle window; no state rides on the flag.
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const {
    // relaxed: see SetEnabled — stale reads are benign by contract.
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Records a completed span. `name` must have static storage duration.
  /// A nonzero `correlation_id` tags the span with a request trace id
  /// (exported as args.trace_id).
  void RecordSpan(const char* name, uint64_t start_ns, uint64_t duration_ns,
                  uint64_t correlation_id = 0);

  /// Records a counter sample (a time series in the trace viewer — e.g.
  /// residual norm per recovery step).
  void RecordCounter(const char* name, double value);

  /// All buffered events across threads, ordered by start time.
  std::vector<TraceEvent> CollectEvents() const SKETCH_EXCLUDES(mu_);

  /// Chrome trace-event JSON of the buffered events. Timestamps are
  /// rebased to the earliest event so traces start near t=0.
  std::string ExportChromeTraceJson() const;

  /// Writes ExportChromeTraceJson() to `path`; false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

  /// Drops all buffered events (rings stay registered).
  void Clear() SKETCH_EXCLUDES(mu_);

  /// Capacity for rings created after this call (existing rings keep
  /// theirs). Tests use small capacities to exercise wraparound.
  void SetRingCapacity(std::size_t capacity);
  std::size_t ring_capacity() const {
    // relaxed: read once per ring creation; nothing else is published
    // through the capacity value.
    return ring_capacity_.load(std::memory_order_relaxed);
  }

  /// Total events ever recorded into currently-registered rings,
  /// including events already overwritten by wraparound.
  uint64_t TotalRecorded() const SKETCH_EXCLUDES(mu_);

 private:
  /// Fixed-capacity event ring. Pushes come from the owning thread only;
  /// a mutex serializes them against cross-thread snapshots (spans are
  /// batch-granular, so an uncontended lock is noise next to the work the
  /// span brackets).
  class Ring {
   public:
    Ring(std::size_t capacity, uint32_t tid)
        : capacity_(capacity), tid_(tid) {
      events_.reserve(capacity);
    }

    void Push(TraceEvent event) SKETCH_EXCLUDES(mu_);
    void AppendTo(std::vector<TraceEvent>* out) const SKETCH_EXCLUDES(mu_);
    void Clear() SKETCH_EXCLUDES(mu_);
    uint64_t total_pushed() const SKETCH_EXCLUDES(mu_);

   private:
    mutable Mutex mu_;
    const std::size_t capacity_;  // immutable after construction
    std::size_t next_ SKETCH_GUARDED_BY(mu_) = 0;  // overwrite pos once full
    uint64_t total_pushed_ SKETCH_GUARDED_BY(mu_) = 0;  // lifetime, monotone
    std::vector<TraceEvent> events_ SKETCH_GUARDED_BY(mu_);
    const uint32_t tid_;  // immutable after construction
  };

  TraceRecorder() = default;

  Ring& ThreadRing() SKETCH_EXCLUDES(mu_);

  mutable Mutex mu_;  // guards rings_ registration/iteration
  std::vector<std::shared_ptr<Ring>> rings_ SKETCH_GUARDED_BY(mu_);
  std::atomic<bool> enabled_{true};
  std::atomic<std::size_t> ring_capacity_{kDefaultRingCapacity};
  // relaxed everywhere: tid tickets only need uniqueness, capacity is a
  // point-in-time configuration value — neither publishes other memory.
  std::atomic<uint32_t> next_tid_{1};
};

/// RAII span: records [construction, destruction) under `name`, which
/// must have static storage duration.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : ScopedSpan(name, 0) {}

  /// Span tagged with a request trace id (0 = untagged).
  ScopedSpan(const char* name, uint64_t correlation_id) {
    if (TraceRecorder::Instance().enabled()) {
      name_ = name;
      correlation_id_ = correlation_id;
      start_ns_ = MonotonicNowNs();
    }
  }

  ~ScopedSpan() {
    if (name_ != nullptr) {
      TraceRecorder::Instance().RecordSpan(
          name_, start_ns_, MonotonicNowNs() - start_ns_, correlation_id_);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_ = nullptr;  // nullptr = recorder disabled at entry
  uint64_t start_ns_ = 0;
  uint64_t correlation_id_ = 0;
};

}  // namespace sketch::telemetry

#endif  // SKETCH_TELEMETRY_TRACE_H_
