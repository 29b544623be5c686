#ifndef SKETCH_SERVER_SERVER_H_
#define SKETCH_SERVER_SERVER_H_

#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "server/event_loop.h"
#include "server/http_exposition.h"
#include "server/sketch_service.h"
#include "server/transport.h"

namespace sketch::server {

/// The long-lived daemon: a sketchwire listener (TCP or Unix-domain), an
/// optional HTTP observability listener, one accept thread per listener,
/// an epoll event-loop pool that serves every accepted connection of
/// either protocol, and a shared SketchService. A kShutdown request from
/// any client stops both accept loops and drains the connections.
class SketchServer {
 public:
  struct Options {
    /// TCP listen port on 127.0.0.1; 0 picks a free port (see port()).
    /// Ignored when unix_path is set.
    uint16_t tcp_port = 0;
    /// When non-empty, listen on this Unix-domain socket path instead.
    std::string unix_path;
    /// Event-loop I/O threads (each multiplexes many connections).
    std::size_t io_threads = 2;
    /// Per-connection outbound backlog cap before a slow client is
    /// evicted (see EventLoopPool::Options::max_outbound_bytes).
    std::size_t max_outbound_bytes = 4 * 1024 * 1024;
    /// When set, serve the HTTP observability endpoints (/metrics
    /// /statsz /tracez /healthz) on this second, local-only 127.0.0.1
    /// port; 0 picks a free port (see http_port()). Unset by default: the
    /// sketchwire port stays the only listener unless asked.
    std::optional<uint16_t> http_port;
    /// Slowest requests retained per opcode in the service's slow-query
    /// log; 0 disables it.
    std::size_t slow_query_log_size = 8;
  };

  explicit SketchServer(const Options& options);
  ~SketchServer();

  SketchServer(const SketchServer&) = delete;
  SketchServer& operator=(const SketchServer&) = delete;

  /// Binds the listeners, starts the event loop, then one accept loop
  /// per listener. False if an address cannot be bound or the event loop
  /// cannot start; nothing is left running in that case.
  bool Start();

  /// Blocks until a shutdown request has been served and every
  /// connection has drained.
  void Wait();

  /// Stops accepting, closes the listener, and joins all threads. Safe to
  /// call more than once; also called by the destructor.
  void Stop();

  /// Bound TCP port (valid after Start when listening on TCP).
  uint16_t port() const;

  /// Bound HTTP exposition port (valid after Start with http_port).
  uint16_t http_port() const;

  SketchService* service() { return &service_; }

 private:
  /// Adopts every connection `listener` accepts as `protocol` until the
  /// listener closes.
  void AcceptLoop(SocketListener* listener, EventLoopPool::Protocol protocol);

  Options options_;
  SketchService service_;
  // Set in Start() before the accept threads are spawned and never
  // reassigned, so I/O threads may call Close() on them without a lock
  // (SocketListener::Close is itself race-safe). http_listener_ is null
  // without http_port.
  std::unique_ptr<SocketListener> listener_;
  std::unique_ptr<SocketListener> http_listener_;
  // Created in Start() before the accept threads exist and stopped in
  // Wait() after they have joined, so the accept loops read it without a
  // lock. The object outlives Stop because the statsz gauge registered
  // in Start() reads its live-connection count.
  std::unique_ptr<EventLoopPool> event_pool_;
  // Observability router (non-null iff http_port): created in Start()
  // before the pool that serves it, and outliving its I/O threads. Its
  // /metrics and /healthz handlers evaluate sketch health on the I/O
  // thread that serves the scrape.
  std::unique_ptr<HttpExposition> http_;
  std::thread accept_thread_;
  std::thread http_accept_thread_;
  // Owner-thread only (Start/Stop/destructor share the owning thread by
  // the class contract), so unguarded.
  bool started_ = false;
};

}  // namespace sketch::server

#endif  // SKETCH_SERVER_SERVER_H_
