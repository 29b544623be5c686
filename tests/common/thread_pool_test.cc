#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <future>
#include <latch>
#include <numeric>
#include <thread>
#include <vector>

namespace sketch {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
}

TEST(ThreadPoolTest, SingleThreadPoolStillCompletes) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, TasksMaySubmitMoreTasks) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&pool, &count] {
      count.fetch_add(1, std::memory_order_relaxed);
      pool.Submit(
          [&count] { count.fetch_add(1, std::memory_order_relaxed); });
    });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 20);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(0, hits.size(), [&hits](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(5, 5, [](std::size_t) { FAIL(); });
}

TEST(ThreadPoolTest, ParallelForRangeSmallerThanPool) {
  ThreadPool pool(8);
  std::atomic<int> sum{0};
  pool.ParallelFor(0, 3, [&sum](std::size_t i) {
    sum.fetch_add(static_cast<int>(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 0 + 1 + 2);
}

TEST(ThreadPoolTest, ConcurrentSubmittersAreSafe) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::thread> producers;
  producers.reserve(4);
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&pool, &count] {
      for (int i = 0; i < 250; ++i) {
        pool.Submit(
            [&count] { count.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  for (std::thread& t : producers) t.join();
  pool.Wait();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPoolTest, DestructorDrainsPendingWork) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 500; ++i) {
      pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    // No Wait(): the destructor must finish everything before joining.
  }
  EXPECT_EQ(count.load(), 500);
}

TEST(ThreadPoolTest, ParallelForDoesNotWaitForUnrelatedTasks) {
  // One worker of a 2-thread pool is parked on a latch by a task that
  // ParallelFor did not submit. The call's own blocks fit on the caller
  // and the free worker, so it must return while that task is parked.
  ThreadPool pool(2);
  std::latch parked(1);
  std::latch release(1);
  pool.Submit([&] {
    parked.count_down();
    release.wait();
  });
  parked.wait();
  std::atomic<int> covered{0};
  auto call = std::async(std::launch::async, [&] {
    pool.ParallelFor(0, 64, [&covered](std::size_t) {
      covered.fetch_add(1, std::memory_order_relaxed);
    });
  });
  const bool returned =
      call.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  // Release the parked task either way, so a regression fails the test
  // instead of hanging it.
  release.count_down();
  call.wait();
  EXPECT_TRUE(returned) << "ParallelFor waited for a task it did not submit";
  EXPECT_EQ(covered.load(), 64);
}

}  // namespace
}  // namespace sketch
