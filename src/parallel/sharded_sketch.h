#ifndef SKETCH_PARALLEL_SHARDED_SKETCH_H_
#define SKETCH_PARALLEL_SHARDED_SKETCH_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "stream/update.h"
#include "telemetry/stats.h"
#include "telemetry/telemetry.h"

namespace sketch {

/// Parallel sharded ingestion engine.
///
/// `ShardedSketch<S>` holds P replicas of a sketch S, all constructed from
/// the same prototype (identical geometry and seed, hence identical hash
/// functions). `Ingest` splits an update block into P contiguous
/// sub-blocks and applies each on its own worker thread via
/// `S::ApplyBatch`; `Collapse` tree-merges the replicas into a single
/// query-able sketch.
///
/// Why this is *exact*, not approximate: the sketches are linear maps of
/// the frequency vector (the survey's central observation), so
///
///   sketch(stream A ++ stream B) == Merge(sketch(A), sketch(B))
///
/// counter-for-counter, whenever both sides share geometry and seed. The
/// engine therefore partitions purely by position — no per-item routing,
/// no locks on the hot path, no approximation introduced by sharding. The
/// merge-linearity property tests (`tests/sketch/merge_linearity_test.cc`)
/// pin this bit-identity down for every mergeable sketch, and the
/// sharded-vs-sequential test does the same through this engine.
///
/// Requirements on S: copy-constructible, `void ApplyBatch(UpdateSpan)`,
/// and `void Merge(const S&)` that CHECK-fails on geometry/seed mismatch.
/// CountMinSketch, CountSketch, AmsSketch, BloomFilter, and
/// DyadicCountMin all qualify.
///
/// Thread safety: each replica is touched by exactly one worker per
/// `Ingest` call, and calls into this class must be externally serialized
/// (one ingestion driver thread). The parallelism is *inside* a call, not
/// across calls — the same discipline a per-core sharded network pipeline
/// uses. Because safety comes from confinement rather than a lock, there
/// is nothing here for the clang thread-safety analysis
/// (`common/thread_annotations.h`) to annotate: the cross-thread
/// handoff is the ThreadPool's annotated queue plus ParallelFor's
/// completion wait, which orders every worker's replica writes before
/// Collapse reads them.
template <typename S>
class ShardedSketch {
 public:
  /// Creates `num_shards` replicas of `prototype`. The prototype is
  /// normally freshly constructed (empty); a non-empty prototype's counts
  /// would be multiplied by the shard count after Collapse, so pass an
  /// empty sketch. `pool` must outlive this object; pass nullptr to run
  /// every batch inline on the calling thread (useful as a sequential
  /// control).
  ShardedSketch(const S& prototype, std::size_t num_shards, ThreadPool* pool)
      : pool_(pool), shards_(num_shards, prototype) {
    SKETCH_CHECK(num_shards >= 1);
  }

  /// Convenience: one shard per pool worker.
  ShardedSketch(const S& prototype, ThreadPool* pool)
      : ShardedSketch(prototype, pool == nullptr ? 1 : pool->num_threads(),
                      pool) {}

  /// Partitions `updates` into contiguous, near-equal blocks — one per
  /// shard — and applies each block to its replica on a pool worker.
  /// Blocks until the whole batch is absorbed. Safe to call repeatedly;
  /// batches accumulate (the sketches are linear).
  void Ingest(UpdateSpan updates) {
    SKETCH_TRACE_SPAN("sharded.ingest");
    SKETCH_COUNTER_ADD("parallel.sharded.ingested_updates", updates.size());
    const std::size_t p = shards_.size();
    if (updates.empty()) return;
    if (p == 1 || pool_ == nullptr) {
      shards_[0].ApplyBatch(updates);
      return;
    }
    const std::size_t chunk = updates.size() / p;
    const std::size_t remainder = updates.size() % p;
    // Shard s owns its replica and the s-th contiguous block for the whole
    // call, so workers share no mutable state and the hot path takes no
    // locks. ParallelFor waits for these blocks only, not for unrelated
    // work another caller put on the same pool.
    pool_->ParallelFor(0, p, [&](std::size_t s) {
      const std::size_t offset = s * chunk + std::min(s, remainder);
      const std::size_t len = chunk + (s < remainder ? 1 : 0);
      shards_[s].ApplyBatch(updates.subspan(offset, len));
    });
  }

  /// Reduces the replicas into one sketch of the full stream by pairwise
  /// tree merge (log2(P) rounds, each round's merges running in parallel
  /// on the pool). Non-destructive: replicas keep their contents, so
  /// ingestion can continue and Collapse can be called again later.
  S Collapse() const {
    SKETCH_TRACE_SPAN("sharded.collapse");
    SKETCH_COUNTER_INC("parallel.sharded.collapses");
    std::vector<S> work(shards_);
    for (std::size_t stride = 1; stride < work.size(); stride *= 2) {
      const std::size_t step = 2 * stride;
      const std::size_t merges = (work.size() - stride + step - 1) / step;
      const auto merge = [&](std::size_t m) {
        work[m * step].Merge(work[m * step + stride]);
      };
      if (pool_ == nullptr) {
        for (std::size_t m = 0; m < merges; ++m) merge(m);
      } else {
        pool_->ParallelFor(0, merges, merge);
      }
    }
    return std::move(work[0]);
  }

  std::size_t num_shards() const { return shards_.size(); }

  /// Direct access to a replica (tests; e.g. asserting that work actually
  /// spread across shards).
  const S& shard(std::size_t i) const { return shards_[i]; }

  /// Resident memory: the object plus every replica's footprint (requires
  /// S::MemoryFootprintBytes).
  uint64_t MemoryFootprintBytes() const {
    uint64_t bytes = sizeof(*this) +
                     (shards_.capacity() - shards_.size()) * sizeof(S);
    for (const S& s : shards_) bytes += s.MemoryFootprintBytes();
    return bytes;
  }

  /// Structured self-description; each replica's snapshot appears as a
  /// child (requires S::Introspect).
  StatsSnapshot Introspect() const {
    StatsSnapshot snapshot;
    snapshot.type = "ShardedSketch";
    snapshot.memory_bytes = MemoryFootprintBytes();
    snapshot.AddField("num_shards", static_cast<double>(shards_.size()));
    snapshot.AddField("pooled", pool_ == nullptr ? 0.0 : 1.0);
    snapshot.children.reserve(shards_.size());
    for (const S& s : shards_) {
      snapshot.children.push_back(s.Introspect());
      snapshot.cells += snapshot.children.back().cells;
    }
    return snapshot;
  }

  /// Human-readable Introspect() dump.
  std::string DebugString() const { return Introspect().DebugString(); }

 private:
  ThreadPool* pool_;       // not owned; may be nullptr (inline execution)
  std::vector<S> shards_;  // replica s is written only by the worker
                           // running shard s's block of the current batch
};

}  // namespace sketch

#endif  // SKETCH_PARALLEL_SHARDED_SKETCH_H_
