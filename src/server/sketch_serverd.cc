// Entry point for the sketch daemon: binds a TCP or Unix-domain listener
// and serves the sketchwire/1 protocol until a client sends Shutdown.
//
// Usage:
//   sketch_serverd [--port=N] [--unix=PATH] [--http-port=N]
//                  [--health-period-ms=N] [--slow-log=N]
//
// With --port=0 (the default) a free port is picked and printed, so
// scripts can parse "listening on 127.0.0.1:PORT". --http-port enables
// the observability endpoints (/metrics /statsz /tracez /healthz) on a
// second 127.0.0.1 listener and prints "metrics on 127.0.0.1:PORT" the
// same way (0 picks a free port too).

#include <cstdio>
#include <cstdlib>
#include <string>

#include "server/server.h"

namespace {

bool ParseFlag(const std::string& arg, const std::string& name,
               std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  sketch::server::SketchServer::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (ParseFlag(arg, "port", &value)) {
      options.tcp_port = static_cast<uint16_t>(std::atoi(value.c_str()));
    } else if (ParseFlag(arg, "unix", &value)) {
      options.unix_path = value;
    } else if (ParseFlag(arg, "http-port", &value)) {
      options.enable_http = true;
      options.http_port = static_cast<uint16_t>(std::atoi(value.c_str()));
    } else if (ParseFlag(arg, "health-period-ms", &value)) {
      options.health_period_ms =
          static_cast<uint64_t>(std::atoll(value.c_str()));
    } else if (ParseFlag(arg, "slow-log", &value)) {
      options.slow_query_log_size =
          static_cast<std::size_t>(std::atoll(value.c_str()));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--port=N] [--unix=PATH] [--http-port=N] "
                   "[--health-period-ms=N] [--slow-log=N]\n",
                   argv[0]);
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
  if (options.enable_http) {
    std::printf("sketch_serverd: metrics on 127.0.0.1:%u\n",
                server.http_port());
  }
  std::fflush(stdout);
  server.Wait();
  std::printf("sketch_serverd: shutdown complete\n");
  return 0;
}
