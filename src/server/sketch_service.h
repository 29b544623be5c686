#ifndef SKETCH_SERVER_SKETCH_SERVICE_H_
#define SKETCH_SERVER_SKETCH_SERVICE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "server/protocol.h"
#include "server/slow_query_log.h"
#include "sketch/bloom_filter.h"
#include "sketch/count_min.h"
#include "sketch/count_sketch.h"
#include "sketch/stream_summary.h"
#include "stream/update.h"
#include "telemetry/stats.h"

/// \file
/// The sketch-as-a-service registry: named sketches, batched ingest,
/// point / heavy-hitter / inner-product queries, snapshot/restore, and
/// introspection — everything the daemon does between a decoded request
/// frame and an encoded response frame. Transport-free by design: the
/// epoll event loop, the in-process service tests, and the fuzz harness
/// all drive the same HandleFrame/HandleFrames entry points.
///
/// Concurrency model (see DESIGN.md "Server"): the registry is striped by
/// name hash — create/drop take only their stripe's mutex — and every
/// entry carries its own SharedMutex. Read-only operations (point and
/// batched point queries, heavy hitters, inner products, snapshot, list,
/// statsz) take the entry lock *shared*, so they run concurrently with
/// each other; only ingest/create/drop/restore take it exclusively. Lock
/// order: stripe mutex is never held across an entry lock, and the
/// inner-product path acquires its two entry locks in increasing
/// address order.

namespace sketch::server {

namespace internal {

/// One named sketch in the registry. Subclasses adapt each sketch family
/// to the uniform request surface; operations a family cannot support
/// (heavy hitters on a flat Count-Min, inner product on a Bloom filter)
/// return an error response instead of being absent from the vtable, so
/// the protocol surface is total.
///
/// Locking contract: Ingest is only called under the owning handle's
/// exclusive lock; every other method may be called under a shared lock
/// from many threads at once, so it must not mutate state visible outside
/// an internal mutex. Two kinds of derived state do so: the cached scans
/// behind the CountSketch and StreamSummary F2 and the Bloom fill ratio,
/// and ShardedCountMinEntry's materialization cache. Ingest invalidates
/// them; the first reader after it refills them.
class SketchEntry {
 public:
  virtual ~SketchEntry() = default;

  virtual SketchType type() const = 0;

  /// Applies a batch. Returns false (with *error filled) if the batch is
  /// invalid for this family — e.g. items outside a StreamSummary's
  /// universe, which would otherwise trip a debug assertion downstream.
  virtual bool Ingest(UpdateSpan updates, ErrorResponse* error) = 0;

  /// Point estimate plus the family's error bound (Minton & Price style:
  /// the server reports the scale of the noise, not just the estimate).
  virtual PointValueResponse PointQuery(uint64_t item) = 0;

  /// Batched point query: one value per item, in order, each identical to
  /// what PointQuery would return. The base implementation loops;
  /// CountMin/CountSketch entries override with the EstimateBatch kernel
  /// (SIMD-tier bucket computation, error bound computed once per batch).
  virtual void PointQueryBatch(const std::vector<uint64_t>& items,
                               std::vector<PointValueResponse>* out) {
    out->reserve(items.size());
    for (uint64_t item : items) out->push_back(PointQuery(item));
  }

  virtual bool HeavyHitters(double phi, std::vector<uint64_t>* out,
                            ErrorResponse* error) = 0;

  virtual bool InnerProduct(SketchEntry& other, int64_t* result,
                            ErrorResponse* error) = 0;

  virtual std::vector<uint8_t> Snapshot() = 0;

  /// Downcast hooks for inner products (a sharded entry materializes its
  /// collapsed sketch).
  virtual const CountMinSketch* AsCountMin() { return nullptr; }
  virtual const CountSketch* AsCountSketch() { return nullptr; }

  virtual uint64_t SizeInCounters() const = 0;
  virtual uint64_t MemoryFootprintBytes() const = 0;

  /// Structured self-description of the wrapped sketch (occupancy,
  /// collision estimates, geometry — see telemetry/stats.h). Called under
  /// a shared lock by statsz and the health monitor, so implementations
  /// must not mutate entry state.
  virtual StatsSnapshot Introspect() const = 0;

  uint64_t updates_applied() const { return updates_applied_; }

 protected:
  uint64_t updates_applied_ = 0;
};

/// A registry slot: the entry plus its reader-writer lock. Handles are
/// held by shared_ptr so a query that found the entry before a concurrent
/// drop finishes against live storage; the slot is destroyed when the
/// last reference drops.
struct EntryHandle {
  explicit EntryHandle(std::unique_ptr<SketchEntry> e)
      : entry(std::move(e)) {}

  mutable SharedMutex mutex;
  std::unique_ptr<SketchEntry> entry SKETCH_GUARDED_BY(mutex);
};

}  // namespace internal

/// The registry + request dispatcher. Thread-safe: HandleFrame and
/// HandleFrames may be called concurrently from any number of connection
/// or event-loop threads. Queries serialize only against ingest on the
/// same entry, never against each other (ShardedSketch still requires
/// externally serialized *Ingest* calls, which the per-entry exclusive
/// lock provides; parallelism lives inside an ingest, across the shard
/// replicas, and across entries/queries).
class SketchService {
 public:
  struct Options {
    /// Shard replicas for kShardedCountMin sketches; also the pool the
    /// ingest fan-out runs on. A null pool runs shards inline.
    ThreadPool* pool = nullptr;
    std::size_t default_shards = 4;
    /// Slowest requests retained per opcode in the slow-query log
    /// (surfaced in /statsz and /tracez); 0 disables the log and its
    /// per-request clock reads in telemetry-off builds.
    std::size_t slow_query_log_size = 8;
  };

  explicit SketchService(const Options& options)
      : options_(options), slow_log_(options.slow_query_log_size) {}

  /// Dispatches one decoded request frame and returns the encoded
  /// response frame. Never aborts on malformed payloads: every validation
  /// failure becomes a kError response.
  std::vector<uint8_t> HandleFrame(const Frame& frame);

  /// Dispatches a run of frames that were already queued on one
  /// connection, appending one response per frame, in order. Consecutive
  /// kIngest frames for the same sketch are applied under a single
  /// registry lookup + exclusive entry lock (the per-connection dispatch
  /// batching of E26); every other frame goes through HandleFrame.
  void HandleFrames(const std::vector<Frame>& frames,
                    std::vector<std::vector<uint8_t>>* responses);

  /// True once a kShutdown request has been handled.
  bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  /// Registry size (tests / statsz).
  std::size_t sketch_count() const;

  /// Registers a pull-gauge reported in the statsz JSON under "gauges"
  /// (e.g. the event loop's live-connection count). The callback must be
  /// thread-safe and outlive the service.
  void RegisterGauge(const std::string& name,
                     std::function<uint64_t()> gauge);

  /// The statsz JSON body (what kStatsz returns); also served over HTTP
  /// by http_exposition. Includes the slow-query log under
  /// "slow_queries".
  std::string StatszJson();

  /// Calls `fn(name, entry)` for every registered sketch, one entry
  /// shared lock at a time (never a stripe mutex and an entry lock
  /// together — the documented health-monitor lock order). `fn` must not
  /// mutate the entry.
  void ForEachSketch(
      const std::function<void(const std::string&,
                               const internal::SketchEntry&)>& fn) const;

  /// The slow-query log (exposition surfaces; tests).
  const SlowQueryLog& slow_query_log() const { return slow_log_; }

  /// Registry stripes (shard-by-name-hash granularity of create/drop).
  static constexpr std::size_t kRegistryStripes = 16;

 private:
  struct RegistryStripe {
    mutable Mutex mutex;
    std::map<std::string, std::shared_ptr<internal::EntryHandle>> entries
        SKETCH_GUARDED_BY(mutex);
  };

  std::vector<uint8_t> DispatchFrame(const Frame& frame);

  std::vector<uint8_t> HandleCreate(const Frame& frame);
  std::vector<uint8_t> HandleDrop(const NamedRequest& request);
  std::vector<uint8_t> HandleIngest(const Frame& frame);
  std::vector<uint8_t> HandlePointQuery(const Frame& frame);
  std::vector<uint8_t> HandlePointQueryBatch(const Frame& frame);
  std::vector<uint8_t> HandleHeavyHitters(const Frame& frame);
  std::vector<uint8_t> HandleInnerProduct(const Frame& frame);
  std::vector<uint8_t> HandleSnapshot(const NamedRequest& request);
  std::vector<uint8_t> HandleRestore(const Frame& frame);
  std::vector<uint8_t> HandleList();
  std::vector<uint8_t> HandleStatsz();
  std::vector<uint8_t> HandleTraceDump();

  /// Applies a run of already-decoded ingest requests for one sketch
  /// under a single exclusive entry lock, appending one ack/error per
  /// request.
  void ApplyIngestRun(const std::vector<IngestRequest>& run,
                      std::vector<std::vector<uint8_t>>* responses);

  const RegistryStripe& StripeFor(const std::string& name) const;
  RegistryStripe& StripeFor(const std::string& name);

  /// Stripe-locked registry lookup; nullptr if absent. Takes only the
  /// stripe mutex, never an entry lock.
  std::shared_ptr<internal::EntryHandle> FindHandle(
      const std::string& name) const;

  /// Runs `fn(entry)` under the entry's shared lock; NoSuchSketch if
  /// absent.
  template <typename Fn>
  std::vector<uint8_t> WithEntryShared(const std::string& name, Fn&& fn);

  /// Runs `fn(entry)` under the entry's exclusive lock; NoSuchSketch if
  /// absent.
  template <typename Fn>
  std::vector<uint8_t> WithEntryExclusive(const std::string& name, Fn&& fn);

  /// Inserts `entry` under `name`; false if the name is already taken
  /// (entry is destroyed in that case).
  bool InsertEntry(const std::string& name,
                   std::unique_ptr<internal::SketchEntry> entry);

  /// Builds an entry from validated create parameters; nullptr + *error
  /// on invalid geometry.
  std::unique_ptr<internal::SketchEntry> BuildEntry(
      const CreateSketchRequest& request, ErrorResponse* error);

  /// Builds an entry from an untrusted snapshot blob; nullptr + *error if
  /// the blob does not decode as `type` or exceeds kMaxSketchCounters.
  std::unique_ptr<internal::SketchEntry> BuildEntryFromBlob(
      SketchType type, std::span<const uint8_t> blob, std::string* error);

  Options options_;
  SlowQueryLog slow_log_;
  // Registry stripes: create/drop/lookup for a name only contend within
  // its hash stripe. Entry state is guarded by each EntryHandle's own
  // SharedMutex, never by a stripe mutex.
  std::array<RegistryStripe, kRegistryStripes> stripes_;
  std::atomic<bool> shutdown_{false};
  mutable Mutex gauges_mutex_;
  std::vector<std::pair<std::string, std::function<uint64_t()>>> gauges_
      SKETCH_GUARDED_BY(gauges_mutex_);
};

}  // namespace sketch::server

#endif  // SKETCH_SERVER_SKETCH_SERVICE_H_
