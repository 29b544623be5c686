#include "server/http_exposition.h"

#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <utility>

#include "telemetry/telemetry.h"

namespace sketch::server {

namespace {

/// Largest request head we will buffer. Real scrapers send well under
/// 1 KiB; anything bigger is a confused or hostile client.
constexpr std::size_t kMaxRequestBytes = 8192;

/// How long one connection may take to send its request head, and again
/// to take its response. Connections are served one at a time, so this
/// bounds how long a silent or stalled client can hold up every other
/// scrape.
constexpr std::chrono::seconds kIoTimeout{2};

using Clock = std::chrono::steady_clock;

/// Waits until `fd` is ready for `events`. False once `deadline` passes
/// or `wake_fd` (Stop's eventfd) becomes readable.
bool WaitReady(int fd, short events, int wake_fd, Clock::time_point deadline) {
  for (;;) {
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) return false;
    pollfd fds[2] = {{fd, events, 0}, {wake_fd, POLLIN, 0}};
    const int n = ::poll(fds, 2, static_cast<int>(left.count()));
    if (n < 0 && errno == EINTR) continue;
    return n > 0 && fds[1].revents == 0;
  }
}

/// Sends all of `data` within kIoTimeout; false if the client errors out
/// or stalls past it, or Stop() interrupts.
bool SendAll(int fd, const std::string& data, int wake_fd) {
  const Clock::time_point deadline = Clock::now() + kIoTimeout;
  std::size_t sent = 0;
  while (sent < data.size()) {
    if (!WaitReady(fd, POLLOUT, wake_fd, deadline)) return false;
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0 && (errno == EAGAIN || errno == EINTR)) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

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
    const bool healthy = handlers_.healthy ? handlers_.healthy() : true;
    return healthy ? MakeResponse(200, "OK", "application/json",
                                  handlers_.healthz())
                   : MakeResponse(503, "Service Unavailable",
                                  "application/json", handlers_.healthz());
  }
  return NotFound();
}

void HttpExposition::ServeConnection(int fd) const {
  // Read until the end of the request head. HTTP/1.0 GETs have no body,
  // so "\r\n\r\n" is the whole request.
  const Clock::time_point deadline = Clock::now() + kIoTimeout;
  std::string request;
  char chunk[1024];
  while (request.find("\r\n\r\n") == std::string::npos) {
    if (request.size() > kMaxRequestBytes) return;
    if (!WaitReady(fd, POLLIN, wake_fd_, deadline)) return;
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n < 0 && (errno == EAGAIN || errno == EINTR)) continue;
    if (n <= 0) return;
    request.append(chunk, static_cast<std::size_t>(n));
  }

  // Request line: METHOD SP PATH SP VERSION.
  const std::size_t line_end = request.find("\r\n");
  const std::string line = request.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    SendAll(fd,
            MakeResponse(400, "Bad Request", "text/plain",
                         "bad request line\n"),
            wake_fd_);
    return;
  }
  const std::string method = line.substr(0, sp1);
  const std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);

  SendAll(fd, HandleRequest(method, path), wake_fd_);
  SKETCH_COUNTER_INC("server.http.requests");
}

bool HttpExposition::Start(uint16_t port) {
  if (listener_) return true;
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) return false;
  listener_ = SocketListener::ListenTcp(port);
  if (!listener_) {
    ::close(wake_fd_);
    wake_fd_ = -1;
    return false;
  }
  thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void HttpExposition::Stop() {
  if (!listener_) return;
  listener_->Close();
  // The eventfd stays readable from here on, so a connection being served
  // (or accepted just before the close) returns at its next wait.
  const uint64_t one = 1;
  (void)!::write(wake_fd_, &one, sizeof(one));
  if (thread_.joinable()) thread_.join();
  listener_.reset();
  ::close(wake_fd_);
  wake_fd_ = -1;
}

void HttpExposition::AcceptLoop() {
  for (;;) {
    const int fd = listener_->AcceptRaw();
    if (fd < 0) return;  // listener closed — shutdown
    ServeConnection(fd);
    ::close(fd);
  }
}

}  // namespace sketch::server
