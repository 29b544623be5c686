// Entry point for the sketch daemon: binds a TCP or Unix-domain listener
// and serves the sketchwire/1 protocol until a client sends Shutdown.
//
// Usage:
//   sketch_serverd [--port=N] [--unix=PATH] [--http-port=N] [--slow-log=N]
//
// With --port=0 (the default) a free port is picked and printed, so
// scripts can parse "listening on 127.0.0.1:PORT". --http-port enables
// the observability endpoints (/metrics /statsz /tracez /healthz) on a
// second 127.0.0.1 listener and prints "metrics on 127.0.0.1:PORT" the
// same way (0 picks a free port too).
//
// Every numeric flag must be a whole decimal number within its range
// (ports 0..65535, --slow-log 0..65536); anything else prints the usage
// line and exits 2.

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "server/server.h"

namespace {

constexpr uint64_t kMaxSlowLogSize = 65'536;

bool ParseFlag(const std::string& arg, const std::string& name,
               std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

/// Parses all of `text` as a decimal integer in [min, max].
bool ParseNumber(std::string_view text, uint64_t min, uint64_t max,
                 uint64_t* out) {
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value < min || value > max) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  sketch::server::SketchServer::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    uint64_t number = 0;
    bool ok = true;
    if (ParseFlag(arg, "port", &value)) {
      ok = ParseNumber(value, 0, UINT16_MAX, &number);
      options.tcp_port = static_cast<uint16_t>(number);
    } else if (ParseFlag(arg, "unix", &value)) {
      options.unix_path = value;
    } else if (ParseFlag(arg, "http-port", &value)) {
      ok = ParseNumber(value, 0, UINT16_MAX, &number);
      options.http_port = static_cast<uint16_t>(number);
    } else if (ParseFlag(arg, "slow-log", &value)) {
      ok = ParseNumber(value, 0, kMaxSlowLogSize, &number);
      options.slow_query_log_size = static_cast<std::size_t>(number);
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr,
                   "usage: %s [--port=N] [--unix=PATH] [--http-port=N] "
                   "[--slow-log=N]\n"
                   "  ports 0..65535, --slow-log 0..%llu\n",
                   argv[0], static_cast<unsigned long long>(kMaxSlowLogSize));
      return 2;
    }
  }
  sketch::server::SketchServer server(options);
  if (!server.Start()) {
    std::fprintf(stderr, "sketch_serverd: failed to bind listener\n");
    return 1;
  }
  if (options.unix_path.empty()) {
    std::printf("sketch_serverd: listening on 127.0.0.1:%u\n", server.port());
  } else {
    std::printf("sketch_serverd: listening on %s\n",
                options.unix_path.c_str());
  }
  if (options.http_port.has_value()) {
    std::printf("sketch_serverd: metrics on 127.0.0.1:%u\n",
                server.http_port());
  }
  std::fflush(stdout);
  server.Wait();
  std::printf("sketch_serverd: shutdown complete\n");
  return 0;
}
