#ifndef SKETCH_SERVER_HTTP_EXPOSITION_H_
#define SKETCH_SERVER_HTTP_EXPOSITION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "server/transport.h"

/// \file
/// Minimal HTTP/1.0 exposition listener for scrapers and humans.
///
/// The sketchwire port speaks a binary protocol; Prometheus, curl, and
/// load-balancer health checks speak HTTP. Rather than multiplex the two
/// on one socket, the daemon opens a second, off-by-default port that
/// serves exactly four read-only endpoints:
///
///   GET /metrics  Prometheus text exposition format (version 0.0.4)
///   GET /statsz   the same JSON body as the sketchwire kStatsz opcode
///   GET /tracez   Chrome-trace JSON of the telemetry span buffer plus
///                 the slow-query log (load in Perfetto)
///   GET /healthz  {"status":"ok"|"degraded",...}; HTTP 503 when degraded
///
/// Deliberately not a web server: one accept thread serves one request
/// per connection, HTTP/1.0 close-delimited, GET only, no keep-alive, no
/// TLS, no chunking. A scrape every few seconds and the occasional curl
/// are the design load; anything heavier belongs behind a real proxy.
/// Connections are served in turn, so each gets a fixed two seconds to
/// send its request and two more to take its response: a silent client
/// delays the scrapes behind it by at most that, and Stop() interrupts
/// the connection being served instead of waiting for it.
/// Handler callbacks run on the accept thread, so they must be safe to
/// call from a non-request thread (all four producers here only take
/// snapshots under their own locks).

namespace sketch::server {

class HttpExposition {
 public:
  /// Response producers, one per endpoint. Unset handlers 404. `healthy`
  /// picks /healthz's status code (200 vs 503); defaults to healthy.
  struct Handlers {
    std::function<std::string()> metrics;
    std::function<std::string()> statsz;
    std::function<std::string()> tracez;
    std::function<std::string()> healthz;
    std::function<bool()> healthy;
  };

  explicit HttpExposition(Handlers handlers)
      : handlers_(std::move(handlers)) {}
  ~HttpExposition() { Stop(); }

  HttpExposition(const HttpExposition&) = delete;
  HttpExposition& operator=(const HttpExposition&) = delete;

  /// Binds 127.0.0.1:`port` (0 picks a free port; see port()) and starts
  /// the accept thread. Returns false if the bind fails.
  bool Start(uint16_t port);

  /// Closes the listener, interrupts the connection being served, and
  /// joins the accept thread (idempotent).
  void Stop();

  /// Bound port after a successful Start.
  uint16_t port() const { return listener_ ? listener_->port() : 0; }

  /// Dispatches one already-parsed request and returns the full HTTP
  /// response bytes. Exposed for tests (no socket needed) and used
  /// verbatim by the accept loop.
  std::string HandleRequest(const std::string& method,
                            const std::string& path) const;

 private:
  void AcceptLoop();
  void ServeConnection(int fd) const;

  const Handlers handlers_;
  std::unique_ptr<SocketListener> listener_;
  // eventfd that Stop() makes readable; every wait on a connection polls
  // it too. Set before the accept thread starts, closed after it joins.
  int wake_fd_ = -1;
  std::thread thread_;
};

}  // namespace sketch::server

#endif  // SKETCH_SERVER_HTTP_EXPOSITION_H_
