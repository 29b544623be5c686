#ifndef SKETCH_SERVER_HTTP_EXPOSITION_H_
#define SKETCH_SERVER_HTTP_EXPOSITION_H_

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <utility>

/// \file
/// Minimal HTTP/1.0 exposition router for scrapers and humans.
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
/// This class owns no socket, thread or deadline: it is a pure function
/// from a request head to response bytes. The daemon's epoll event loop
/// (event_loop.h) accepts HTTP connections on the same I/O threads as
/// sketchwire ones, buffers each request head (at most kMaxRequestBytes),
/// answers it through HandleHead, and closes once the response drains.
/// Deliberately not a web server: one request per connection, HTTP/1.0
/// close-delimited, GET only, no keep-alive, no TLS, no chunking.
/// Handler callbacks run on the I/O thread serving the scrape, holding
/// no lock, so they must only take snapshots under their own locks (all
/// four producers here do: /metrics and /healthz evaluate sketch health
/// by the same registry walk as /statsz).

namespace sketch::server {

class HttpExposition {
 public:
  /// Largest request head the event loop buffers. Real scrapers send
  /// well under 1 KiB; a connection whose head is not complete within
  /// this many bytes is closed without a response.
  static constexpr std::size_t kMaxRequestBytes = 8192;

  /// What /healthz answers: its status (200 when healthy, else 503) and
  /// its body, produced together so they always agree.
  struct Health {
    bool healthy = true;
    std::string body;
  };

  /// Response producers, one per endpoint. Unset handlers 404.
  struct Handlers {
    std::function<std::string()> metrics;
    std::function<std::string()> statsz;
    std::function<std::string()> tracez;
    std::function<Health()> healthz;
  };

  explicit HttpExposition(Handlers handlers)
      : handlers_(std::move(handlers)) {}

  /// Answers one complete request head (request line through the blank
  /// line): 400 if the request line is not METHOD SP PATH SP VERSION,
  /// otherwise HandleRequest.
  std::string HandleHead(std::string_view head) const;

  /// Dispatches one already-parsed request and returns the full HTTP
  /// response bytes. Exposed for tests (no socket needed).
  std::string HandleRequest(const std::string& method,
                            const std::string& path) const;

 private:
  const Handlers handlers_;
};

}  // namespace sketch::server

#endif  // SKETCH_SERVER_HTTP_EXPOSITION_H_
