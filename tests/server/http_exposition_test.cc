// HTTP exposition: the request handler's routing/status/content types
// (unit, no sockets), then real TCP round trips against a SketchServer's
// HTTP port, served by its event loop, including a client that never
// sends a request and a /healthz scrape that sees the registry as it is
// at that moment.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "server/client.h"
#include "server/http_exposition.h"
#include "server/server.h"
#include "server/transport.h"
#include "stream/update.h"

namespace sketch::server {
namespace {

HttpExposition::Handlers TestHandlers(bool healthy = true) {
  HttpExposition::Handlers handlers;
  handlers.metrics = [] { return std::string("metric_total 1\n"); };
  handlers.statsz = [] { return std::string("{\"sketches\":[]}"); };
  handlers.tracez = [] { return std::string("{\"traceEvents\":[]}"); };
  handlers.healthz = [healthy] {
    return HttpExposition::Health{
        healthy,
        healthy ? "{\"status\":\"ok\"}" : "{\"status\":\"degraded\"}"};
  };
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

TEST(HttpExpositionHeadTest, RoutesTheRequestLineAndRejectsABadOne) {
  HttpExposition http(TestHandlers());
  // Header lines after the request line do not change the answer.
  EXPECT_EQ(http.HandleHead("GET /statsz HTTP/1.0\r\nHost: x\r\n\r\n"),
            http.HandleRequest("GET", "/statsz"));
  EXPECT_EQ(http.HandleHead("POST /metrics HTTP/1.1\r\n\r\n"),
            http.HandleRequest("POST", "/metrics"));
  for (const char* bad : {"GARBAGE\r\n\r\n", "GET /metrics\r\n\r\n",
                          "\r\n\r\n"}) {
    const std::string response = http.HandleHead(bad);
    EXPECT_EQ(response.rfind("HTTP/1.0 400 Bad Request\r\n", 0), 0u)
        << bad << " -> " << response;
  }
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
  SketchServer::Options options;
  options.http_port = 0;  // 0 = pick any free port
  SketchServer server(options);
  ASSERT_TRUE(server.Start());
  ASSERT_NE(server.http_port(), 0);

  // One request per connection, HTTP/1.0 style.
  for (int i = 0; i < 2; ++i) {
    const std::string response = Get(server.http_port(), "/metrics");
    EXPECT_EQ(response.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << response;
    EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4"),
              std::string::npos);
    // This very connection was adopted before its scrape was answered.
    EXPECT_NE(response.find("server_epoll_connections_adopted_total "),
              std::string::npos)
        << response;
    const std::size_t split = response.find("\r\n\r\n");
    ASSERT_NE(split, std::string::npos);
    const std::string length =
        "Content-Length: " + std::to_string(response.size() - split - 4);
    EXPECT_NE(response.find(length), std::string::npos) << response;
  }

  server.Stop();
  server.Stop();  // idempotent
}

TEST(HttpExpositionSocketTest, SilentClientStallsNeitherScrapesNorStop) {
  using Clock = std::chrono::steady_clock;
  SketchServer::Options options;
  options.http_port = 0;
  options.io_threads = 1;
  SketchServer server(options);
  ASSERT_TRUE(server.Start());

  // A client that connects to the /metrics port and never sends a byte.
  // It shares the one I/O thread with the scrape, which the event loop
  // answers without waiting on the silent connection at all.
  const std::unique_ptr<ByteStream> silent =
      ConnectTcp("127.0.0.1", server.http_port());
  ASSERT_NE(silent, nullptr);
  const Clock::time_point scrape_start = Clock::now();
  EXPECT_NE(Get(server.http_port(), "/metrics").find("HTTP/1.0 200 OK"),
            std::string::npos);
  EXPECT_LT(Clock::now() - scrape_start, std::chrono::milliseconds(500));

  // Stop() closes silent connections instead of waiting on them.
  const std::unique_ptr<ByteStream> another =
      ConnectTcp("127.0.0.1", server.http_port());
  ASSERT_NE(another, nullptr);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const Clock::time_point stop_start = Clock::now();
  server.Stop();
  EXPECT_LT(Clock::now() - stop_start, std::chrono::milliseconds(500));
}

TEST(HttpExpositionSocketTest, HealthzSeesTheRegistryAtScrapeTime) {
  // /healthz evaluates the registry when it is scraped: a sketch overfilled
  // just before the scrape degrades it at once, and dropping the sketch
  // restores it at once. The status line and the body agree each time.
  SketchServer::Options options;
  options.http_port = 0;
  SketchServer server(options);
  ASSERT_TRUE(server.Start());
  auto stream = ConnectTcp("127.0.0.1", server.port());
  ASSERT_NE(stream, nullptr);
  SketchClient client(std::move(stream));
  ASSERT_TRUE(client.CreateSketch("tiny", SketchType::kCountMin,
                                  {16, 4, 42, 0, 0}));
  std::vector<StreamUpdate> updates;
  for (uint64_t key = 0; key < 4096; ++key) updates.push_back({key, 1});
  uint64_t accepted = 0;
  ASSERT_TRUE(client.Ingest("tiny", UpdateSpan(updates), &accepted));
  ASSERT_EQ(accepted, updates.size());

  const std::string degraded = Get(server.http_port(), "/healthz");
  EXPECT_EQ(degraded.rfind("HTTP/1.0 503 Service Unavailable\r\n", 0), 0u)
      << degraded;
  EXPECT_NE(degraded.find("\"status\":\"degraded\""), std::string::npos)
      << degraded;
  EXPECT_NE(degraded.find("\"name\":\"tiny\""), std::string::npos) << degraded;

  ASSERT_TRUE(client.DropSketch("tiny"));
  const std::string ok = Get(server.http_port(), "/healthz");
  EXPECT_EQ(ok.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << ok;
  EXPECT_NE(ok.find("\"status\":\"ok\""), std::string::npos) << ok;
  EXPECT_EQ(ok.find("tiny"), std::string::npos) << ok;
  server.Stop();
}

}  // namespace
}  // namespace sketch::server
