// sketch_serverd under descriptor exhaustion. The daemon runs with a
// 32-descriptor limit and a burst of 40 held connections drives accept()
// into EMFILE. Once the burst lets go, a new connection's ping must be
// answered and /healthz must report ok: the accept loop counts the failed
// accepts in server.accept_errors and keeps serving instead of reading them
// as a closed listener.

#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "server/client.h"
#include "server/transport.h"

namespace sketch::server {
namespace {

constexpr rlim_t kDescriptorLimit = 32;
constexpr int kBurst = 40;
constexpr auto kAnswerDeadline = std::chrono::seconds(5);

/// sketch_serverd --port=0 --http-port=0 in a child process whose
/// RLIMIT_NOFILE is kDescriptorLimit; killed when the object goes.
class LimitedDaemon {
 public:
  LimitedDaemon() {
    int out[2];
    if (::pipe(out) != 0) return;
    pid_ = ::fork();
    if (pid_ == 0) {
      const rlimit limit = {kDescriptorLimit, kDescriptorLimit};
      ::setrlimit(RLIMIT_NOFILE, &limit);
      ::dup2(out[1], STDOUT_FILENO);
      ::close(out[0]);
      ::close(out[1]);
      ::execl(SKETCH_SERVERD_PATH, "sketch_serverd", "--port=0",
              "--http-port=0", static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(out[1]);
    if (pid_ < 0) {
      ::close(out[0]);
      return;
    }
    FILE* lines = ::fdopen(out[0], "r");
    char line[256];
    while ((port_ == 0 || http_port_ == 0) &&
           std::fgets(line, sizeof(line), lines) != nullptr) {
      unsigned port = 0;
      if (std::sscanf(line, "sketch_serverd: listening on 127.0.0.1:%u",
                      &port) == 1) {
        port_ = static_cast<uint16_t>(port);
      } else if (std::sscanf(line, "sketch_serverd: metrics on 127.0.0.1:%u",
                             &port) == 1) {
        http_port_ = static_cast<uint16_t>(port);
      }
    }
    std::fclose(lines);
  }
  ~LimitedDaemon() { Kill(); }

  /// Ends the daemon, which also fails any call still waiting on it.
  void Kill() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

  uint16_t port() const { return port_; }
  uint16_t http_port() const { return http_port_; }

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
  uint16_t http_port_ = 0;
};

bool Ping(uint16_t port) {
  std::unique_ptr<ByteStream> stream = ConnectTcp("127.0.0.1", port);
  if (stream == nullptr) return false;
  SketchClient client(std::move(stream));
  return client.Ping();
}

/// The whole HTTP/1.0 response to GET `path`, or "" on a transport error.
std::string HttpGet(uint16_t port, const std::string& path) {
  std::unique_ptr<ByteStream> stream = ConnectTcp("127.0.0.1", port);
  if (stream == nullptr) return "";
  const std::string head = "GET " + path + " HTTP/1.0\r\n\r\n";
  if (!WriteAll(stream.get(), reinterpret_cast<const uint8_t*>(head.data()),
                head.size())) {
    return "";
  }
  std::string response;
  uint8_t chunk[4096];
  std::ptrdiff_t n;
  while ((n = stream->Read(chunk, sizeof(chunk))) > 0) {
    response.append(reinterpret_cast<const char*>(chunk),
                    static_cast<std::size_t>(n));
  }
  return response;
}

/// Runs `call` on its own thread and gives up on it after kAnswerDeadline,
/// killing the daemon so the call's blocked read returns.
template <typename Result, typename Call>
Result WithDeadline(LimitedDaemon* daemon, Result on_timeout, Call call) {
  std::future<Result> future = std::async(std::launch::async, call);
  if (future.wait_for(kAnswerDeadline) == std::future_status::ready) {
    return future.get();
  }
  daemon->Kill();
  future.wait();
  return on_timeout;
}

TEST(AcceptExhaustionTest, DaemonServesAfterDescriptorBurst) {
  LimitedDaemon daemon;
  ASSERT_NE(daemon.port(), 0) << "sketch_serverd did not start";
  ASSERT_NE(daemon.http_port(), 0);

  // The kernel completes each handshake from the listen queue, so every
  // connect succeeds; the daemon runs out of descriptors accepting them.
  std::vector<std::unique_ptr<ByteStream>> burst;
  for (int i = 0; i < kBurst; ++i) {
    burst.push_back(ConnectTcp("127.0.0.1", daemon.port()));
    ASSERT_NE(burst.back(), nullptr) << "connection " << i;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  burst.clear();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  EXPECT_TRUE(WithDeadline(&daemon, false,
                           [&daemon] { return Ping(daemon.port()); }))
      << "no ping answer after the burst";
  const std::string healthz =
      WithDeadline(&daemon, std::string(), [&daemon] {
        return HttpGet(daemon.http_port(), "/healthz");
      });
  EXPECT_EQ(healthz.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << healthz;
  EXPECT_NE(healthz.find("\"status\":\"ok\""), std::string::npos) << healthz;
  const std::string metrics =
      WithDeadline(&daemon, std::string(), [&daemon] {
        return HttpGet(daemon.http_port(), "/metrics");
      });
  EXPECT_NE(metrics.find("\nserver_accept_errors_total "), std::string::npos)
      << metrics;
  EXPECT_EQ(metrics.find("\nserver_accept_errors_total 0\n"),
            std::string::npos)
      << metrics;
}

}  // namespace
}  // namespace sketch::server
