#ifndef SKETCH_TELEMETRY_METRIC_REGISTRY_H_
#define SKETCH_TELEMETRY_METRIC_REGISTRY_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"

/// \file
/// Global metric registry: named monotonic counters and log-scale
/// histograms with lock-free, striped write paths.
///
/// The write-side design repeats the pattern of the sharded ingestion
/// engine (`src/parallel`): instead of one contended cell, every metric
/// holds a small array of cache-line-padded stripes, each thread writes
/// its own stripe with a relaxed atomic add, and a reader aggregates the
/// stripes on demand. Writers never take a lock and never share a cache
/// line, so a counter bump in a kernel hot loop costs one uncontended
/// atomic add; the (rare) read side pays the full sum.
///
/// The registry itself is only locked at registration time. Call sites go
/// through the `SKETCH_COUNTER_*` / `SKETCH_HISTOGRAM_RECORD` macros in
/// `telemetry/telemetry.h`, which cache the metric reference in a function
/// -local static, so the name lookup happens once per call site.

namespace sketch::telemetry {

/// Number of write stripes per metric. Power of two; 8 stripes keep the
/// footprint small (one cache line each) while making same-line contention
/// unlikely even with more threads than stripes.
inline constexpr std::size_t kMetricStripes = 8;

namespace internal {
/// Round-robin cursor for stripe assignment (one per process).
inline std::atomic<std::size_t> next_stripe{0};
}  // namespace internal

/// Stripe owned by the calling thread, assigned round-robin on first use
/// and cached in a thread_local. Distinct threads may share a stripe (the
/// adds are atomic, so sharing costs contention, not correctness).
/// Inline — metric writes sit in kernel hot loops (one per hashed block),
/// so this must compile down to a TLS load, not a cross-TU call.
inline std::size_t ThreadStripeIndex() {
  // relaxed: only uniqueness of the ticket matters (fetch_add is atomic at
  // any ordering); the stripe choice orders nothing else.
  thread_local const std::size_t stripe =
      internal::next_stripe.fetch_add(1, std::memory_order_relaxed) &
      (kMetricStripes - 1);
  return stripe;
}

/// Monotonic counter. Writers use `Add`/`Increment`; `Value()` sums the
/// stripes and may run concurrently with writers (relaxed reads — the
/// result is a valid snapshot once writers quiesce, and a lower bound
/// while they race).
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t delta) {
    // relaxed: each stripe is a monotone sum; no other memory is published
    // under this counter, so the add needs atomicity only.
    cells_[ThreadStripeIndex()].value.fetch_add(delta,
                                                std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Cell& cell : cells_) {
      // relaxed: each load sees some monotone prefix of that stripe's
      // adds, so the sum is a valid lower bound while writers race and
      // exact once they quiesce (join/lock provides the happens-before).
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  const std::string& name() const { return name_; }

  /// Zeroes every stripe (tests; not linearizable against racing writers).
  void Reset() {
    for (Cell& cell : cells_) {
      // relaxed: callers (ResetForTest under the registry lock, or
      // single-threaded test setup) already order the reset against
      // writers externally.
      cell.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> value{0};
  };
  std::string name_;
  std::array<Cell, kMetricStripes> cells_;
};

/// Log-scale histogram over uint64 values: bucket 0 holds zeros and
/// bucket b >= 1 holds values with bit width b, i.e. [2^(b-1), 2^b).
/// Powers of two cover the full 64-bit range in 65 buckets — the right
/// resolution for latencies, queue depths, and batch sizes, where the
/// interesting signal is the order of magnitude and the tail.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  explicit Histogram(std::string name) : name_(std::move(name)) {}

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Bucket index of `value`: 0 for 0, otherwise floor(log2(value)) + 1.
  static std::size_t BucketOf(uint64_t value) {
    return static_cast<std::size_t>(std::bit_width(value));
  }

  /// Smallest value that lands in bucket `b` (0 for bucket 0).
  static uint64_t BucketLowerBound(std::size_t b) {
    return b == 0 ? 0 : uint64_t{1} << (b - 1);
  }

  void Record(uint64_t value) {
    Cell& cell = cells_[ThreadStripeIndex()];
    // relaxed: bucket/count/sum are three independent monotone sums; a
    // racing snapshot may see them mutually torn (count ahead of sum) and
    // the Snapshot contract says so — no ordering between them is load-
    // bearing.
    cell.buckets[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
    cell.count.fetch_add(1, std::memory_order_relaxed);
    cell.sum.fetch_add(value, std::memory_order_relaxed);
  }

  /// Aggregated view of the histogram; safe to take while writers race
  /// (relaxed reads, so totals may trail in-flight updates).
  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    std::array<uint64_t, kBuckets> buckets{};

    double Mean() const {
      return count == 0 ? 0.0
                        : static_cast<double>(sum) / static_cast<double>(count);
    }
    /// q-quantile estimate (q in [0, 1]) with within-bucket linear
    /// interpolation: the target rank is located in its log2 bucket, then
    /// placed proportionally between the bucket's bounds under the usual
    /// values-uniform-within-bucket model (the same rule Prometheus'
    /// histogram_quantile applies). Exact when samples fill a bucket
    /// evenly; never off by more than one bucket width otherwise —
    /// unlike the old behavior of snapping to the bucket lower bound,
    /// which biased every quantile low by up to 2x.
    double InterpolatedQuantile(double q) const;
    /// InterpolatedQuantile truncated to an integer (text dumps).
    uint64_t ApproxQuantile(double q) const;
  };

  Snapshot GetSnapshot() const;

  const std::string& name() const { return name_; }

  /// Zeroes every stripe (tests; not linearizable against racing writers).
  void Reset();

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::array<std::atomic<uint64_t>, kBuckets> buckets{};
  };
  std::string name_;
  std::array<Cell, kMetricStripes> cells_;
};

/// Process-wide registry of counters and histograms, keyed by name.
/// Metrics are created on first use and live for the process lifetime
/// (their addresses are stable, so call sites can cache references).
class MetricRegistry {
 public:
  static MetricRegistry& Instance();

  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Returns the counter / histogram named `name`, creating it on first
  /// use. Takes the registry mutex — cache the reference on hot paths.
  Counter& GetCounter(std::string_view name) SKETCH_EXCLUDES(mu_);
  Histogram& GetHistogram(std::string_view name) SKETCH_EXCLUDES(mu_);

  /// Name-sorted snapshots of every registered metric.
  std::vector<std::pair<std::string, uint64_t>> CounterValues() const
      SKETCH_EXCLUDES(mu_);
  std::vector<std::pair<std::string, Histogram::Snapshot>> HistogramSnapshots()
      const SKETCH_EXCLUDES(mu_);

  /// Human-readable dump: one line per counter, a compact distribution
  /// line per histogram.
  std::string DumpText() const;

  /// Machine-readable dump:
  /// {"counters": {name: value}, "histograms": {name: {"count": c,
  ///  "sum": s, "p50": q, "p99": q, "buckets": [..]}}} with name-sorted
  /// keys; quantiles are interpolated (see InterpolatedQuantile).
  std::string DumpJson() const;

  /// Zeroes every registered metric (tests). Registrations are kept so
  /// cached references stay valid. The registry lock orders the reset
  /// against concurrent registration; quiescing racing *writers* is the
  /// test's job (the stripe stores themselves are relaxed).
  void ResetForTest() SKETCH_EXCLUDES(mu_);

 private:
  MetricRegistry() = default;

  mutable Mutex mu_;
  // deques: growth never moves existing elements, so handed-out
  // references stay valid without per-metric allocations. The mutex
  // guards registration (container growth + index); the metrics' own
  // striped cells are written lock-free through handed-out references.
  std::deque<Counter> counters_ SKETCH_GUARDED_BY(mu_);
  std::deque<Histogram> histograms_ SKETCH_GUARDED_BY(mu_);
  std::map<std::string, Counter*, std::less<>> counter_index_
      SKETCH_GUARDED_BY(mu_);
  std::map<std::string, Histogram*, std::less<>> histogram_index_
      SKETCH_GUARDED_BY(mu_);
};

}  // namespace sketch::telemetry

#endif  // SKETCH_TELEMETRY_METRIC_REGISTRY_H_
