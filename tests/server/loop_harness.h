// The daemon's front door without a listener: a SketchService served by
// an EventLoopPool. Each Connect() makes a socketpair(AF_UNIX), Adopt()s
// one end into the pool and hands the other to a SketchClient as a
// SocketStream, so a test drives the same read -> decode -> dispatch ->
// flush path that serves real traffic, with no port or socket path.
// Wire faults wrap the client's end (FaultyStream); the event loop sees
// them as real short reads and disconnects.

#ifndef SKETCH_TESTS_SERVER_LOOP_HARNESS_H_
#define SKETCH_TESTS_SERVER_LOOP_HARNESS_H_

#include <sys/socket.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>

#include "gtest/gtest.h"
#include "server/client.h"
#include "server/event_loop.h"
#include "server/sketch_service.h"
#include "server/transport.h"

namespace sketch::server {

class LoopHarness {
 public:
  /// One I/O thread by default; a stress test that needs requests to
  /// reach the service concurrently asks for more.
  explicit LoopHarness(const SketchService::Options& options = {},
                       std::size_t io_threads = 1)
      : service_(options), pool_(&service_, PoolOptions(io_threads)) {
    EXPECT_TRUE(pool_.Start());
  }

  SketchService& service() { return service_; }
  EventLoopPool& pool() { return pool_; }

  /// The client end of a new served connection; wrapped in a FaultyStream
  /// when `faults` is given.
  std::unique_ptr<ByteStream> ConnectStream(const FaultPlan* faults = nullptr) {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
      ADD_FAILURE() << "socketpair failed";
      return nullptr;
    }
    pool_.Adopt(fds[1]);
    std::unique_ptr<ByteStream> stream = std::make_unique<SocketStream>(fds[0]);
    if (faults != nullptr) {
      stream = std::make_unique<FaultyStream>(std::move(stream), *faults);
    }
    return stream;
  }

  std::unique_ptr<SketchClient> Connect(const FaultPlan* faults = nullptr) {
    return std::make_unique<SketchClient>(ConnectStream(faults));
  }

  /// Waits for the pool's open-connection count to equal `expected`: the
  /// I/O thread closes a connection asynchronously after its peer goes.
  /// False after a 10 s deadline.
  bool AwaitConnectionsLive(uint64_t expected) {
    for (int i = 0; i < 10000; ++i) {
      if (pool_.connections_live() == expected) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

 private:
  static EventLoopPool::Options PoolOptions(std::size_t io_threads) {
    EventLoopPool::Options options;
    options.num_threads = io_threads;
    return options;
  }

  SketchService service_;
  // Declared after the service: destroyed (stopped and joined) first.
  EventLoopPool pool_;
};

}  // namespace sketch::server

#endif  // SKETCH_TESTS_SERVER_LOOP_HARNESS_H_
