#include "common/thread_pool.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/timer.h"
#include "telemetry/telemetry.h"

namespace sketch {

ThreadPool::ThreadPool(std::size_t num_threads) {
  SKETCH_CHECK(num_threads >= 1);
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  Wait();
  {
    MutexLock lock(mu_);
    shutting_down_ = true;
  }
  work_available_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::SubmitLocked(std::function<void()> task) {
  SKETCH_CHECK_MSG(!shutting_down_, "Submit() after destruction began");
  queue_.push_back(std::move(task));
  ++in_flight_;
  SKETCH_COUNTER_INC("threadpool.tasks_submitted");
  SKETCH_HISTOGRAM_RECORD("threadpool.queue_depth", queue_.size());
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    SubmitLocked(std::move(task));
  }
  work_available_.NotifyOne();
}

void ThreadPool::Wait() {
  MutexLock lock(mu_);
  while (in_flight_ != 0) all_done_.Wait(mu_);
}

void ThreadPool::ParallelFor(std::size_t begin, std::size_t end,
                             const std::function<void(std::size_t)>& body) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t blocks = std::min(n, num_threads());
  const std::size_t chunk = n / blocks;
  const std::size_t remainder = n % blocks;
  // Blocks [0, blocks-1) go to the pool; the calling thread runs the last
  // block itself so a 1-thread pool never round-trips through the queue.
  // All pool-bound blocks are enqueued under a single lock acquisition —
  // one acquire + one NotifyAll instead of a lock/notify pair per block.
  // `pending` counts this call's blocks only (guarded by mu_), so the call
  // returns when its own blocks are done, not when the whole pool drains:
  // two callers sharing a pool never wait on each other's work.
  std::size_t pending = blocks - 1;
  CondVar blocks_done;
  std::size_t lo = begin;
  if (blocks > 1) {
    MutexLock lock(mu_);
    for (std::size_t b = 0; b + 1 < blocks; ++b) {
      const std::size_t hi = lo + chunk + (b < remainder ? 1 : 0);
      SubmitLocked([this, &body, &pending, &blocks_done, lo, hi] {
        for (std::size_t i = lo; i < hi; ++i) body(i);
        // Notify under the lock: the caller cannot observe pending == 0
        // and destroy `blocks_done` until this block releases mu_.
        MutexLock done(mu_);
        if (--pending == 0) blocks_done.NotifyAll();
      });
      lo = hi;
    }
  }
  work_available_.NotifyAll();
  for (std::size_t i = lo; i < end; ++i) body(i);
  MutexLock lock(mu_);
  while (pending != 0) blocks_done.Wait(mu_);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (queue_.empty() && !shutting_down_) work_available_.Wait(mu_);
      if (queue_.empty()) return;  // shutting down and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    {
      SKETCH_TRACE_SPAN("threadpool.task");
      const uint64_t t0 = MonotonicNowNs();
      task();
      SKETCH_HISTOGRAM_RECORD("threadpool.task_ns", MonotonicNowNs() - t0);
    }
    {
      MutexLock lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.NotifyAll();
    }
  }
}

}  // namespace sketch
