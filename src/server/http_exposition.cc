#include "server/http_exposition.h"

#include <cstdio>

#include "telemetry/telemetry.h"

namespace sketch::server {

namespace {

std::string MakeResponse(int status, const char* reason,
                         const char* content_type, const std::string& body) {
  char head[160];
  std::snprintf(head, sizeof(head),
                "HTTP/1.0 %d %s\r\n"
                "Content-Type: %s\r\n"
                "Content-Length: %zu\r\n"
                "Connection: close\r\n"
                "\r\n",
                status, reason, content_type, body.size());
  return std::string(head) + body;
}

std::string NotFound() {
  return MakeResponse(404, "Not Found", "text/plain",
                      "not found; try /metrics /statsz /tracez /healthz\n");
}

}  // namespace

std::string HttpExposition::HandleRequest(const std::string& method,
                                          const std::string& path) const {
  if (method != "GET") {
    return MakeResponse(405, "Method Not Allowed", "text/plain",
                        "GET only\n");
  }
  // Ignore any query string: /metrics?foo=bar scrapes like /metrics.
  const std::string bare = path.substr(0, path.find('?'));
  if (bare == "/metrics" && handlers_.metrics) {
    return MakeResponse(200, "OK", "text/plain; version=0.0.4",
                        handlers_.metrics());
  }
  if (bare == "/statsz" && handlers_.statsz) {
    return MakeResponse(200, "OK", "application/json", handlers_.statsz());
  }
  if (bare == "/tracez" && handlers_.tracez) {
    return MakeResponse(200, "OK", "application/json", handlers_.tracez());
  }
  if (bare == "/healthz" && handlers_.healthz) {
    const Health health = handlers_.healthz();
    return health.healthy ? MakeResponse(200, "OK", "application/json",
                                         health.body)
                          : MakeResponse(503, "Service Unavailable",
                                         "application/json", health.body);
  }
  return NotFound();
}

std::string HttpExposition::HandleHead(std::string_view head) const {
  SKETCH_COUNTER_INC("server.http.requests");
  // Request line: METHOD SP PATH SP VERSION.
  const std::string_view line = head.substr(0, head.find("\r\n"));
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) {
    return MakeResponse(400, "Bad Request", "text/plain",
                        "bad request line\n");
  }
  return HandleRequest(std::string(line.substr(0, sp1)),
                       std::string(line.substr(sp1 + 1, sp2 - sp1 - 1)));
}

}  // namespace sketch::server
