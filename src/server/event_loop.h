#ifndef SKETCH_SERVER_EVENT_LOOP_H_
#define SKETCH_SERVER_EVENT_LOOP_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "server/http_exposition.h"
#include "server/protocol.h"
#include "server/sketch_service.h"

/// \file
/// The daemon's only front door (E26): a small pool of I/O threads
/// multiplexing many connections, on both of its ports. Every served
/// connection, sketchwire or HTTP, and every server test (over a
/// socketpair(2) or a real listener), goes through this loop.
///
/// Each I/O thread owns one epoll instance plus an eventfd for wakeups;
/// accepted descriptors are handed to a thread round-robin and never
/// migrate, so per-connection state (decoder, outbound buffer) is
/// single-threaded by construction and needs no lock. Readable
/// connections are drained to EAGAIN; only decoding and dispatch differ
/// by protocol. Sketchwire: every complete frame in the read is decoded
/// and the whole run goes through SketchService::HandleFrames — one
/// registry lookup and one entry lock per run of same-sketch ingest
/// frames (the dispatch batching of E26). HTTP: the request head (at
/// most HttpExposition::kMaxRequestBytes) is answered through
/// HttpExposition::HandleHead and the connection closes once the
/// response drains.
///
/// Writes are coalesced into a per-connection outbound buffer, flushed
/// opportunistically after dispatch and then under EPOLLOUT. The buffer
/// is bounded: a client that stops reading while pipelining requests is
/// evicted once its backlog exceeds Options::max_outbound_bytes, so one
/// slow consumer cannot pin unbounded response memory (backpressure
/// contract in DESIGN.md "Server").
///
/// Fault injection sits on the client side of the socket (FaultyStream in
/// transport.h): fragmented and paced writes, and a peer that vanishes
/// mid-frame, reach this loop as real short reads and resets.

namespace sketch::server {

/// A pool of epoll I/O threads serving adopted socket descriptors
/// against one SketchService (sketchwire) and one HttpExposition (HTTP).
class EventLoopPool {
 public:
  /// What an adopted descriptor speaks.
  enum class Protocol : uint8_t { kSketchwire, kHttp };

  struct Options {
    /// I/O threads; each owns an epoll set. Connections are assigned
    /// round-robin at adoption and never migrate.
    std::size_t num_threads = 2;
    /// Eviction threshold for a connection's unflushed response backlog.
    std::size_t max_outbound_bytes = 4 * 1024 * 1024;
  };

  /// `http` answers connections adopted as Protocol::kHttp; it may be
  /// null when none are. Both must outlive the pool.
  EventLoopPool(SketchService* service, const Options& options,
                const HttpExposition* http = nullptr);
  ~EventLoopPool();

  EventLoopPool(const EventLoopPool&) = delete;
  EventLoopPool& operator=(const EventLoopPool&) = delete;

  /// Invoked (once, from an I/O thread) when a connection's kShutdown
  /// response has been fully flushed: the server uses it to close the
  /// listener. Must be set before Start().
  void set_shutdown_callback(std::function<void()> callback) {
    shutdown_callback_ = std::move(callback);
  }

  /// Spawns the I/O threads. False if an epoll or eventfd descriptor
  /// cannot be created (nothing is spawned in that case).
  bool Start();

  /// Hands a connected socket to one of the I/O threads. The pool owns
  /// the descriptor from here on (including on failure paths).
  void Adopt(int fd, Protocol protocol = Protocol::kSketchwire);

  /// Hands each connection's remaining outbound bytes to the kernel as
  /// far as it takes them without blocking, closes all connections, and
  /// joins the I/O threads. A client that stopped reading loses the rest
  /// of its backlog instead of holding Stop up. Idempotent.
  void Stop();

  /// Currently-open adopted connections (statsz gauge).
  uint64_t connections_live() const {
    return connections_live_.load(std::memory_order_acquire);
  }

 private:
  /// One connection's single-threaded state (owned by exactly one I/O
  /// thread; no lock).
  struct Conn {
    Conn(int descriptor, Protocol speaks) : fd(descriptor), protocol(speaks) {}
    int fd;
    Protocol protocol;
    FrameDecoder decoder;  // sketchwire
    std::string request_head;  // HTTP, until answered
    /// Coalesced responses not yet accepted by the kernel;
    /// [consumed, outbound.size()) is the live backlog.
    std::vector<uint8_t> outbound;
    std::size_t consumed = 0;
    /// EPOLLOUT is armed (backlog outlived the opportunistic flush).
    bool want_write = false;
    /// EPOLLOUT bit currently installed in the epoll set; UpdateInterest
    /// elides the epoll_ctl(MOD) syscall when it already matches
    /// want_write — the common case on every read-dispatch-flush cycle.
    bool epollout_armed = false;
    /// The connection's last response is queued (a kShutdown ack, or the
    /// one HTTP response): read no more requests, close once the backlog
    /// drains.
    bool closing = false;
  };

  /// One I/O thread's epoll set plus its cross-thread mailbox.
  struct Loop {
    int epoll_fd = -1;
    int wake_fd = -1;
    std::thread thread;
    mutable Mutex mailbox_mutex;
    std::vector<std::pair<int, Protocol>> pending
        SKETCH_GUARDED_BY(mailbox_mutex);
    bool stopping SKETCH_GUARDED_BY(mailbox_mutex) = false;
    /// fd -> connection; only the owning I/O thread touches it.
    std::map<int, std::unique_ptr<Conn>> conns;
  };

  void Run(Loop* loop);
  void AdoptPending(Loop* loop);
  /// Reads until EAGAIN/EOF, dispatches the requests read, queues and
  /// flushes responses. Returns false if the connection must close.
  bool ServeReadable(Conn* conn);
  /// ServeReadable's decode-and-dispatch step, one per protocol: queue
  /// the responses to what the socket holds. False if the connection must
  /// close now. `trace_id` receives the first traced frame's id.
  bool ReadFrames(Conn* conn, bool* peer_closed, uint64_t* trace_id);
  bool ReadHttpRequest(Conn* conn, bool* peer_closed);
  /// Writes backlog until EAGAIN or empty. Returns false on write error.
  bool FlushOutbound(Conn* conn);
  /// Re-arms or disarms EPOLLOUT to match conn->want_write.
  void UpdateInterest(Loop* loop, Conn* conn);
  /// Closes and forgets a connection; one whose kShutdown ack has fully
  /// drained then fires the shutdown callback.
  void CloseConn(Loop* loop, int fd);

  SketchService* service_;
  const HttpExposition* http_;
  Options options_;
  std::function<void()> shutdown_callback_;
  std::vector<std::unique_ptr<Loop>> loops_;
  std::atomic<std::size_t> next_loop_{0};
  std::atomic<uint64_t> connections_live_{0};
  std::atomic<bool> shutdown_notified_{false};
  bool started_ = false;
};

}  // namespace sketch::server

#endif  // SKETCH_SERVER_EVENT_LOOP_H_
