// HTTP exposition listener: the request handler's routing/status/content
// types (unit, no sockets), then real TCP round trips against the
// background accept loop, including a client that never sends a request.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "server/http_exposition.h"
#include "server/server.h"
#include "server/transport.h"

namespace sketch::server {
namespace {

HttpExposition::Handlers TestHandlers(bool healthy = true) {
  HttpExposition::Handlers handlers;
  handlers.metrics = [] { return std::string("metric_total 1\n"); };
  handlers.statsz = [] { return std::string("{\"sketches\":[]}"); };
  handlers.tracez = [] { return std::string("{\"traceEvents\":[]}"); };
  handlers.healthz = [healthy] {
    return healthy ? std::string("{\"status\":\"ok\"}")
                   : std::string("{\"status\":\"degraded\"}");
  };
  handlers.healthy = [healthy] { return healthy; };
  return handlers;
}

TEST(HttpExpositionHandlerTest, RoutesEndpointsWithContentTypes) {
  HttpExposition http(TestHandlers());
  const std::string metrics = http.HandleRequest("GET", "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.0 200 OK"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("metric_total 1\n"), std::string::npos);
  EXPECT_NE(metrics.find("Connection: close"), std::string::npos);

  const std::string statsz = http.HandleRequest("GET", "/statsz");
  EXPECT_NE(statsz.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(statsz.find("Content-Type: application/json"), std::string::npos);
  EXPECT_NE(statsz.find("{\"sketches\":[]}"), std::string::npos);

  const std::string tracez = http.HandleRequest("GET", "/tracez");
  EXPECT_NE(tracez.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(tracez.find("{\"traceEvents\":[]}"), std::string::npos);
}

TEST(HttpExpositionHandlerTest, HealthzStatusTracksHealthyCallback) {
  HttpExposition ok(TestHandlers(true));
  EXPECT_NE(ok.HandleRequest("GET", "/healthz").find("HTTP/1.0 200 OK"),
            std::string::npos);

  HttpExposition degraded(TestHandlers(false));
  const std::string response = degraded.HandleRequest("GET", "/healthz");
  EXPECT_NE(response.find("HTTP/1.0 503"), std::string::npos) << response;
  EXPECT_NE(response.find("\"status\":\"degraded\""), std::string::npos);
}

TEST(HttpExpositionHandlerTest, RejectsUnknownPathsAndMethods) {
  HttpExposition http(TestHandlers());
  const std::string not_found = http.HandleRequest("GET", "/nope");
  EXPECT_NE(not_found.find("HTTP/1.0 404"), std::string::npos) << not_found;
  // The 404 body lists the endpoints that do exist.
  EXPECT_NE(not_found.find("/metrics"), std::string::npos);

  const std::string post = http.HandleRequest("POST", "/metrics");
  EXPECT_NE(post.find("HTTP/1.0 405"), std::string::npos) << post;
}

TEST(HttpExpositionHandlerTest, StripsQueryString) {
  HttpExposition http(TestHandlers());
  const std::string response =
      http.HandleRequest("GET", "/metrics?format=prometheus");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("metric_total 1\n"), std::string::npos);
}

TEST(HttpExpositionHandlerTest, ResponsesCarryExactContentLength) {
  HttpExposition http(TestHandlers());
  const std::string response = http.HandleRequest("GET", "/statsz");
  const std::string body = "{\"sketches\":[]}";
  const std::string expected =
      "Content-Length: " + std::to_string(body.size());
  EXPECT_NE(response.find(expected), std::string::npos) << response;
  // Body starts right after the blank line and matches the declared length.
  const std::size_t split = response.find("\r\n\r\n");
  ASSERT_NE(split, std::string::npos);
  EXPECT_EQ(response.substr(split + 4), body);
}

/// One HTTP/1.0 GET over a fresh connection; the whole response.
std::string Get(uint16_t port, const std::string& path) {
  std::unique_ptr<ByteStream> stream = ConnectTcp("127.0.0.1", port);
  if (stream == nullptr) return "";
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  if (!WriteAll(stream.get(), reinterpret_cast<const uint8_t*>(request.data()),
                request.size())) {
    return "";
  }
  std::string response;
  uint8_t buffer[1024];
  for (;;) {
    const std::ptrdiff_t n = stream->Read(buffer, sizeof(buffer));
    if (n <= 0) break;
    response.append(reinterpret_cast<const char*>(buffer),
                    static_cast<std::size_t>(n));
  }
  return response;
}

TEST(HttpExpositionSocketTest, ServesOverRealTcp) {
  HttpExposition http(TestHandlers());
  ASSERT_TRUE(http.Start(0));  // 0 = pick any free port
  ASSERT_NE(http.port(), 0);

  // One request per connection, HTTP/1.0 style.
  for (int i = 0; i < 2; ++i) {
    const std::string response = Get(http.port(), "/metrics");
    EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos) << response;
    EXPECT_NE(response.find("metric_total 1\n"), std::string::npos);
  }

  http.Stop();
  http.Stop();  // idempotent
}

TEST(HttpExpositionSocketTest, SilentClientStallsNeitherScrapesNorStop) {
  using Clock = std::chrono::steady_clock;
  SketchServer::Options options;
  options.enable_http = true;
  options.io_threads = 1;
  SketchServer server(options);
  ASSERT_TRUE(server.Start());

  // A client that connects to the /metrics port and never sends a byte.
  // Connections are served in turn, so the scrape waits behind it, but
  // only for the bounded request-read time (two seconds).
  const std::unique_ptr<ByteStream> silent =
      ConnectTcp("127.0.0.1", server.http_port());
  ASSERT_NE(silent, nullptr);
  const Clock::time_point scrape_start = Clock::now();
  EXPECT_NE(Get(server.http_port(), "/metrics").find("HTTP/1.0 200 OK"),
            std::string::npos);
  EXPECT_LT(Clock::now() - scrape_start, std::chrono::seconds(5));

  // Stop() interrupts the connection being served instead of waiting out
  // its read bound.
  const std::unique_ptr<ByteStream> another =
      ConnectTcp("127.0.0.1", server.http_port());
  ASSERT_NE(another, nullptr);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const Clock::time_point stop_start = Clock::now();
  server.Stop();
  EXPECT_LT(Clock::now() - stop_start, std::chrono::milliseconds(1500));
}

}  // namespace
}  // namespace sketch::server
