// The daemon's front door without a listener: a SketchService served by
// an EventLoopPool. Each Connect() makes a socketpair(AF_UNIX), Adopt()s
// one end into the pool and hands the other to a SketchClient as a
// SocketStream, so a test drives the same read -> decode -> dispatch ->
// flush path that serves real traffic, with no port or socket path.
// Wire faults wrap the client's end (FaultyStream); the event loop sees
// them as real short reads and disconnects. Faults at the served end come
// from the kernel: ConnectWithBuffers shrinks the adopted socket's
// receive and send buffers, so the loop reads frames in short pieces and
// its writes stop short, leaving the rest to EPOLLOUT. Tests only: the
// daemon sets no socket buffer size.

#ifndef SKETCH_TESTS_SERVER_LOOP_HARNESS_H_
#define SKETCH_TESTS_SERVER_LOOP_HARNESS_H_

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

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

  /// Kernel buffer sizes for the served end of a connection, in bytes
  /// (the kernel doubles them and applies its floor); 0 keeps a default.
  struct ServedEndBuffers {
    int receive_bytes = 0;
    int send_bytes = 0;
  };

  /// The client end of a new served connection over loopback TCP whose
  /// adopted end has `buffers`. TCP, not a socketpair: an AF_UNIX stream
  /// paces a transfer by the sender's buffer alone, while a TCP receive
  /// buffer sets the window the client may send into. The listener gets
  /// the receive size before listen(), so the accepted end advertises the
  /// small window from the handshake on.
  std::unique_ptr<ByteStream> ConnectWithBuffers(
      const ServedEndBuffers& buffers) {
    const int listener = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t length = sizeof(address);
    auto* generic = reinterpret_cast<sockaddr*>(&address);
    const bool listening =
        listener >= 0 &&
        SetBuffer(listener, SO_RCVBUF, buffers.receive_bytes) &&
        ::bind(listener, generic, sizeof(address)) == 0 &&
        ::listen(listener, 1) == 0 &&
        ::getsockname(listener, generic, &length) == 0;
    std::unique_ptr<ByteStream> client =
        listening ? ConnectTcp("127.0.0.1", ntohs(address.sin_port)) : nullptr;
    const int served = client != nullptr
                           ? ::accept4(listener, nullptr, nullptr, SOCK_CLOEXEC)
                           : -1;
    if (listener >= 0) ::close(listener);
    if (served < 0 || !SetBuffer(served, SO_SNDBUF, buffers.send_bytes)) {
      ADD_FAILURE() << "loopback connection with small buffers failed";
      if (served >= 0) ::close(served);
      return nullptr;
    }
    pool_.Adopt(served);
    return client;
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
  /// Sets socket option `name` (SO_RCVBUF or SO_SNDBUF) to `bytes`; a
  /// size of 0 leaves the default.
  static bool SetBuffer(int fd, int name, int bytes) {
    return bytes == 0 ||
           ::setsockopt(fd, SOL_SOCKET, name, &bytes, sizeof(bytes)) == 0;
  }

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
