#ifndef SKETCH_SERVER_SERVER_H_
#define SKETCH_SERVER_SERVER_H_

#include <memory>
#include <string>
#include <thread>

#include "server/event_loop.h"
#include "server/health_monitor.h"
#include "server/http_exposition.h"
#include "server/sketch_service.h"
#include "server/transport.h"

namespace sketch::server {

/// The long-lived daemon: a listener (TCP or Unix-domain), an epoll
/// event-loop pool that serves every accepted connection, and a shared
/// SketchService. A kShutdown request from any client stops the accept
/// loop and drains the connections.
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
    /// Serve the HTTP observability endpoints (/metrics /statsz /tracez
    /// /healthz) on a second, local-only port. Off by default: the
    /// sketchwire port stays the only listener unless asked.
    bool enable_http = false;
    /// HTTP listen port on 127.0.0.1 when enable_http is set; 0 picks a
    /// free port (see http_port()).
    uint16_t http_port = 0;
    /// Sketch health sampling period; 0 disables the background sampler
    /// (the monitor still answers /healthz from its last — empty — pass).
    /// Only meaningful with enable_http.
    uint64_t health_period_ms = 1000;
    /// Slowest requests retained per opcode in the service's slow-query
    /// log; 0 disables it.
    std::size_t slow_query_log_size = 8;
  };

  explicit SketchServer(const Options& options);
  ~SketchServer();

  SketchServer(const SketchServer&) = delete;
  SketchServer& operator=(const SketchServer&) = delete;

  /// Binds the listener, starts the event loop and (with enable_http) the
  /// observability plane, then the accept loop. False if an address
  /// cannot be bound or the event loop cannot start; nothing is left
  /// running in that case.
  bool Start();

  /// Blocks until a shutdown request has been served and every
  /// connection has drained.
  void Wait();

  /// Stops accepting, closes the listener, and joins all threads. Safe to
  /// call more than once; also called by the destructor.
  void Stop();

  /// Bound TCP port (valid after Start when listening on TCP).
  uint16_t port() const;

  /// Bound HTTP exposition port (valid after Start with enable_http).
  uint16_t http_port() const;

  SketchService* service() { return &service_; }

  /// Non-null after Start when enable_http is set.
  HealthMonitor* health_monitor() { return health_monitor_.get(); }

 private:
  void AcceptLoop();

  Options options_;
  SketchService service_;
  // Set in Start() before the accept thread is spawned and never
  // reassigned, so I/O threads may call listener_->Close() without a lock
  // (SocketListener::Close is itself race-safe).
  std::unique_ptr<SocketListener> listener_;
  // Created in Start() before the accept thread exists and stopped in
  // Wait() after it has joined, so the accept loop reads it without a
  // lock. The object outlives Stop because the statsz gauge registered
  // in Start() reads its live-connection count.
  std::unique_ptr<EventLoopPool> event_pool_;
  // Observability plane (non-null iff enable_http): both created in
  // Start() before any request is served and stopped in Stop(). The
  // monitor must stop before the service's registry is torn down.
  std::unique_ptr<HealthMonitor> health_monitor_;
  std::unique_ptr<HttpExposition> http_;
  std::thread accept_thread_;
  // Owner-thread only (Start/Stop/destructor share the owning thread by
  // the class contract), so unguarded.
  bool started_ = false;
};

}  // namespace sketch::server

#endif  // SKETCH_SERVER_SERVER_H_
