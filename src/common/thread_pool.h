#ifndef SKETCH_COMMON_THREAD_POOL_H_
#define SKETCH_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace sketch {

/// Fixed-size worker pool for the parallel ingestion engine
/// (`src/parallel`). Deliberately minimal: a mutex-guarded FIFO of
/// `std::function<void()>` tasks, `num_threads` workers created at
/// construction, and a `Wait()` barrier that blocks until every submitted
/// task has finished. No futures, no work stealing — sketch ingestion
/// shards are coarse, equal-sized blocks, so a simple queue is already
/// within noise of optimal and keeps the synchronization surface small
/// enough to reason about under ThreadSanitizer.
///
/// Thread safety: `Submit`, `ParallelFor`, and `Wait` may be called from
/// any thread, including concurrently. Tasks themselves may submit more
/// tasks, but must not call `Wait`/`ParallelFor` (a worker waiting for
/// its own task to retire would deadlock). Destruction waits for all
/// pending work. Lock discipline is machine-checked: every guarded member
/// is `SKETCH_GUARDED_BY(mu_)` and clang's `-Wthread-safety` build rejects
/// any access outside the lock.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1; values above a small
  /// multiple of the hardware concurrency are allowed — oversubscription
  /// is the caller's choice).
  explicit ThreadPool(std::size_t num_threads);

  /// Drains the queue, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Never blocks (unbounded queue).
  void Submit(std::function<void()> task) SKETCH_EXCLUDES(mu_);

  /// Blocks until every task submitted so far (including tasks spawned by
  /// tasks) has completed.
  void Wait() SKETCH_EXCLUDES(mu_);

  /// Runs `body(i)` for every i in [begin, end), split into `num_threads`
  /// contiguous blocks, and waits for those blocks only: tasks that other
  /// callers submitted to the same pool do not delay the return. The
  /// calling thread executes one block itself, so a pool of size 1
  /// degenerates to a plain loop with no cross-thread handoff. All
  /// pool-bound blocks are enqueued under one lock acquisition.
  void ParallelFor(std::size_t begin, std::size_t end,
                   const std::function<void(std::size_t)>& body)
      SKETCH_EXCLUDES(mu_);

  std::size_t num_threads() const { return workers_.size(); }

 private:
  /// Enqueues one task with `mu_` already held. Callers notify
  /// `work_available_` after releasing the lock.
  void SubmitLocked(std::function<void()> task) SKETCH_REQUIRES(mu_);

  void WorkerLoop() SKETCH_EXCLUDES(mu_);

  Mutex mu_;
  CondVar work_available_;
  CondVar all_done_;
  std::deque<std::function<void()>> queue_ SKETCH_GUARDED_BY(mu_);
  /// Queued + currently executing.
  std::size_t in_flight_ SKETCH_GUARDED_BY(mu_) = 0;
  bool shutting_down_ SKETCH_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace sketch

#endif  // SKETCH_COMMON_THREAD_POOL_H_
