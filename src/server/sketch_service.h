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
/// frame and an encoded response frame. Transport-free by design, with
/// one dispatch path: the epoll event loop hands every run of queued
/// frames to HandleFrames, and the in-process tests and the fuzz harness
/// reach the same path through HandleFrame, a run of one frame. An ingest
/// frame is always applied as part of an ingest run, alone or coalesced
/// with its same-sketch neighbours.
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
/// return a kUnsupported error instead of being absent from the vtable,
/// so the protocol surface is total. The base answers HeavyHitters and
/// InnerProduct that way; a family overrides only what it supports.
///
/// Locking contract: Ingest is only called under the owning handle's
/// exclusive lock; every other method may be called under a shared lock
/// from many threads at once, so it must not mutate state visible outside
/// an internal mutex. The cached scans behind the CountSketch and
/// StreamSummary F2 and the Bloom fill ratio do so: Ingest invalidates
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
                            ErrorResponse* error);

  virtual bool InnerProduct(SketchEntry& other, int64_t* result,
                            ErrorResponse* error);

  /// Appends the sketch's serialized blob to `out` (a response frame
  /// under construction: the snapshot is written in place).
  virtual void AppendSnapshot(std::vector<uint8_t>* out) const = 0;

  /// At least the bytes AppendSnapshot appends, and at most 8 more: it
  /// sizes the snapshot's response frame, so the table is never copied by
  /// a regrowth. The base counts the counters and one table header of at
  /// most 5 words (v2); StreamSummary, which has more headers, overrides.
  virtual uint64_t SnapshotBytes() const {
    return 8 * (SizeInCounters() + 5);
  }

  /// Downcast hooks for inner products.
  virtual const CountMinSketch* AsCountMin() { return nullptr; }
  virtual const CountSketch* AsCountSketch() { return nullptr; }

  virtual uint64_t SizeInCounters() const = 0;
  virtual uint64_t MemoryFootprintBytes() const = 0;

  /// Structured self-description of the wrapped sketch (occupancy,
  /// collision estimates, geometry — see telemetry/stats.h). Called under
  /// a shared lock by statsz and the health check, so implementations
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

/// The registry + request dispatcher. Thread-safe: HandleFrames may be
/// called concurrently from any number of event-loop threads. Queries
/// serialize only against ingest on the same entry, never against each
/// other; parallelism lives across entries and across queries. Every
/// request runs on the calling thread: a kShardedCountMin sketch is one
/// Count-Min table (see DESIGN.md "Server"), so no ingest fans out.
class SketchService {
 public:
  struct Options {
    /// Slowest requests retained per opcode in the slow-query log
    /// (surfaced in /statsz and /tracez); 0 disables the log.
    std::size_t slow_query_log_size = 8;
  };

  explicit SketchService(const Options& options)
      : slow_log_(options.slow_query_log_size) {}

  /// Dispatches a run of frames that were already queued on one
  /// connection, appending one response per frame, in order. This is the
  /// service's one dispatcher. Consecutive well-formed kIngest frames for
  /// the same sketch form an ingest run, applied under a single registry
  /// lookup + exclusive entry lock (the per-connection dispatch batching
  /// of E26); a lone ingest frame is a run of one. Never aborts on
  /// malformed payloads: every validation failure becomes a kError
  /// response.
  void HandleFrames(std::span<const Frame> frames,
                    std::vector<std::vector<uint8_t>>* responses);

  /// HandleFrames over the one frame `frame`; returns its response.
  std::vector<uint8_t> HandleFrame(const Frame& frame);

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
  /// together — the documented statsz/health lock order). `fn` must not
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

  /// Serves one frame that is not part of an ingest run (every opcode but
  /// a well-formed kIngest), timed and recorded by RecordRequest.
  std::vector<uint8_t> ServeFrame(const Frame& frame);
  std::vector<uint8_t> DispatchFrame(const Frame& frame);

  /// Records one served request: its opcode latency histogram sample and,
  /// if it is among the slowest, its slow-query log entry.
  void RecordRequest(const Frame& frame, uint64_t latency_ns);

  std::vector<uint8_t> HandleCreate(const Frame& frame);
  std::vector<uint8_t> HandleDrop(const NamedRequest& request);
  std::vector<uint8_t> HandlePointQuery(const Frame& frame);
  std::vector<uint8_t> HandlePointQueryBatch(const Frame& frame);
  std::vector<uint8_t> HandleHeavyHitters(const Frame& frame);
  std::vector<uint8_t> HandleInnerProduct(const Frame& frame);
  std::vector<uint8_t> HandleSnapshot(const NamedRequest& request);
  std::vector<uint8_t> HandleRestore(const Frame& frame);
  std::vector<uint8_t> HandleList();
  std::vector<uint8_t> HandleStatsz();
  std::vector<uint8_t> HandleTraceDump();

  /// Applies a run of ingest requests for one sketch under a single
  /// exclusive entry lock, appending one ack/error per request. `run[i]`
  /// is the decoded payload of `frames[i]`; each request's updates are
  /// copied once, into this thread's update scratch, before its kernel.
  void ApplyIngestRun(std::span<const Frame> frames,
                      std::span<const IngestRequestView> run,
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

  /// Inserts `entry` under `name`; false if the name is already taken
  /// (entry is destroyed in that case).
  bool InsertEntry(const std::string& name,
                   std::unique_ptr<internal::SketchEntry> entry);

  /// Builds an entry from validated create parameters; nullptr + *error
  /// on invalid geometry.
  std::unique_ptr<internal::SketchEntry> BuildEntry(
      const CreateSketchRequest& request, ErrorResponse* error);

  /// Builds an entry from an untrusted snapshot blob; nullptr + *error if
  /// the blob does not decode as `type` or its geometry fails the budget
  /// BuildEntry charges a create with.
  std::unique_ptr<internal::SketchEntry> BuildEntryFromBlob(
      SketchType type, std::span<const uint8_t> blob, std::string* error);

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

/// Name of the latency histogram that SketchService records a frame with
/// `opcode` under: "server.latency_ns.<OpcodeName>" for request opcodes,
/// "server.latency_ns.Unknown" for every other byte.
std::string OpcodeLatencyMetric(Opcode opcode);

}  // namespace sketch::server

#endif  // SKETCH_SERVER_SKETCH_SERVICE_H_
