// Terminal dashboard for a running sketch daemon: polls the HTTP
// /metrics endpoint (see --http-port on sketch_serverd) and redraws a
// compact live view — request rate, per-opcode latency quantiles, slow
// client evictions, and per-sketch health — once per interval. No curses:
// the screen is redrawn with ANSI clear-home, which every terminal that
// can run the daemon also supports; --plain drops the escape codes so the
// output can be piped or captured.
//
// Usage:
//   sketch_top --port=N [--host=127.0.0.1] [--interval-ms=1000]
//              [--iterations=0] [--plain]
//
// --iterations=N exits after N polls (0 = run until interrupted); the
// smoke test runs one iteration in --plain mode.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "server/transport.h"

namespace {

using sketch::server::ByteStream;
using sketch::server::ConnectTcp;
using sketch::server::WriteAll;

struct Config {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  uint64_t interval_ms = 1000;
  uint64_t iterations = 0;  // 0 = forever
  bool plain = false;
};

bool ParseFlag(const std::string& arg, const std::string& name,
               std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

/// One parsed exposition sample: metric name, raw label block (without
/// braces, escapes left as-is), value.
struct Sample {
  std::string name;
  std::string labels;
  double value = 0.0;
};

/// GET `path` and return the response body, or false on any transport or
/// HTTP failure. HTTP/1.0 close-delimited: read to EOF, split on the
/// blank line.
bool HttpGet(const Config& config, const std::string& path,
             std::string* body) {
  std::unique_ptr<ByteStream> stream = ConnectTcp(config.host, config.port);
  if (stream == nullptr) return false;
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  if (!WriteAll(stream.get(),
                reinterpret_cast<const uint8_t*>(request.data()),
                request.size())) {
    return false;
  }
  std::string response;
  uint8_t chunk[4096];
  while (true) {
    const std::ptrdiff_t n = stream->Read(chunk, sizeof(chunk));
    if (n < 0) return false;
    if (n == 0) break;
    response.append(reinterpret_cast<const char*>(chunk),
                    static_cast<std::size_t>(n));
  }
  const std::size_t split = response.find("\r\n\r\n");
  if (split == std::string::npos) return false;
  if (response.rfind("HTTP/1.0 200", 0) != 0 &&
      response.rfind("HTTP/1.1 200", 0) != 0) {
    return false;
  }
  *body = response.substr(split + 4);
  return true;
}

/// Parses Prometheus text exposition lines into samples. Comment/TYPE
/// lines are skipped; histogram buckets come through like any other
/// sample (their name ends in _bucket and carries an `le` label).
std::vector<Sample> ParseExposition(const std::string& body) {
  std::vector<Sample> samples;
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t end = body.find('\n', pos);
    if (end == std::string::npos) end = body.size();
    const std::string line = body.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    Sample sample;
    std::size_t cursor = line.find('{');
    const std::size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    if (cursor != std::string::npos && cursor < space) {
      sample.name = line.substr(0, cursor);
      // The label block may contain escaped quotes; scan for the closing
      // brace outside a quoted string.
      bool in_string = false;
      std::size_t close = cursor + 1;
      for (; close < line.size(); ++close) {
        const char c = line[close];
        if (in_string && c == '\\') {
          ++close;  // skip the escaped character
        } else if (c == '"') {
          in_string = !in_string;
        } else if (!in_string && c == '}') {
          break;
        }
      }
      if (close >= line.size()) continue;
      sample.labels = line.substr(cursor + 1, close - cursor - 1);
      sample.value = std::atof(line.c_str() + close + 1);
    } else {
      sample.name = line.substr(0, space);
      sample.value = std::atof(line.c_str() + space + 1);
    }
    samples.push_back(std::move(sample));
  }
  return samples;
}

/// First sample matching name (and, when non-null, a labels substring);
/// fallback when absent.
double Find(const std::vector<Sample>& samples, const std::string& name,
            const char* labels_contains, double fallback) {
  for (const Sample& s : samples) {
    if (s.name != name) continue;
    if (labels_contains != nullptr &&
        s.labels.find(labels_contains) == std::string::npos) {
      continue;
    }
    return s.value;
  }
  return fallback;
}

/// Extracts the value of one label from a raw label block, unescaping.
std::string LabelValue(const std::string& labels, const std::string& key) {
  const std::string prefix = key + "=\"";
  const std::size_t start = labels.find(prefix);
  if (start == std::string::npos) return "";
  std::string out;
  for (std::size_t i = start + prefix.size(); i < labels.size(); ++i) {
    const char c = labels[i];
    if (c == '\\' && i + 1 < labels.size()) {
      const char next = labels[++i];
      out += next == 'n' ? '\n' : next;
    } else if (c == '"') {
      break;
    } else {
      out += c;
    }
  }
  return out;
}

void DrawFrame(const Config& config, const std::vector<Sample>& samples,
               double qps, double ingest_rate) {
  if (!config.plain) std::printf("\x1b[H\x1b[2J");
  std::printf("sketch_top — %s:%u  (interval %llu ms)\n\n",
              config.host.c_str(), config.port,
              static_cast<unsigned long long>(config.interval_ms));
  std::printf("  frames/s   %10.1f    updates/s  %12.1f\n", qps, ingest_rate);
  std::printf("  evictions  %10.0f    framing errors %8.0f\n\n",
              Find(samples, "server_epoll_slow_clients_evicted_total",
                   nullptr, 0.0),
              Find(samples, "server_connections_framing_error_total", nullptr,
                   0.0));

  // Per-opcode latency quantiles from the summary families.
  std::printf("  %-24s %12s %12s\n", "opcode", "p50 (us)", "p99 (us)");
  const char* kOps[] = {"Ingest", "PointQuery", "PointQueryBatch",
                        "HeavyHitters", "InnerProduct", "Snapshot",
                        "Restore"};
  for (const char* op : kOps) {
    const std::string family =
        std::string("server_latency_ns_") + op + "_summary";
    bool present = false;
    for (const Sample& s : samples) {
      if (s.name == family) {
        present = true;
        break;
      }
    }
    if (!present) continue;
    std::printf("  %-24s %12.1f %12.1f\n", op,
                Find(samples, family, "quantile=\"0.5\"", 0.0) / 1e3,
                Find(samples, family, "quantile=\"0.99\"", 0.0) / 1e3);
  }

  // Per-sketch health gauges, evaluated by the daemon for this scrape (one
  // row per registered sketch).
  std::printf("\n  %-20s %10s %10s %10s %10s  %s\n", "sketch", "occup",
              "collide", "saturate", "drift", "state");
  for (const Sample& s : samples) {
    if (s.name != "sketch_health_occupancy") continue;
    const std::string sketch = LabelValue(s.labels, "sketch");
    const char* needle = s.labels.c_str();
    const double collide =
        Find(samples, "sketch_health_collision_rate", needle, 0.0);
    const double saturate =
        Find(samples, "sketch_health_saturation", needle, 0.0);
    const double drift =
        Find(samples, "sketch_health_eps_drift", needle, 0.0);
    const bool degraded =
        Find(samples, "sketch_health_degraded", needle, 0.0) != 0.0;
    std::printf("  %-20s %10.3f %10.3f %10.4f %10.3f  %s\n", sketch.c_str(),
                s.value, collide, saturate, drift,
                degraded ? "DEGRADED" : "ok");
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (ParseFlag(arg, "host", &value)) {
      config.host = value;
    } else if (ParseFlag(arg, "port", &value)) {
      config.port = static_cast<uint16_t>(std::atoi(value.c_str()));
    } else if (ParseFlag(arg, "interval-ms", &value)) {
      config.interval_ms = static_cast<uint64_t>(std::atoll(value.c_str()));
    } else if (ParseFlag(arg, "iterations", &value)) {
      config.iterations = static_cast<uint64_t>(std::atoll(value.c_str()));
    } else if (arg == "--plain") {
      config.plain = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s --port=N [--host=H] [--interval-ms=N] "
                   "[--iterations=N] [--plain]\n",
                   argv[0]);
      return 2;
    }
  }
  if (config.port == 0) {
    std::fprintf(stderr, "sketch_top: need --port (the daemon's HTTP port)\n");
    return 2;
  }

  double prev_frames = -1.0;
  double prev_updates = -1.0;
  uint64_t prev_ns = 0;
  for (uint64_t tick = 0; config.iterations == 0 || tick < config.iterations;
       ++tick) {
    std::string body;
    if (!HttpGet(config, "/metrics", &body)) {
      std::fprintf(stderr, "sketch_top: cannot scrape %s:%u/metrics\n",
                   config.host.c_str(), config.port);
      return 1;
    }
    const uint64_t now_ns = sketch::MonotonicNowNs();
    const std::vector<Sample> samples = ParseExposition(body);
    const double frames =
        Find(samples, "server_frames_handled_total", nullptr, 0.0);
    const double updates =
        Find(samples, "server_updates_ingested_total", nullptr, 0.0);
    double qps = 0.0;
    double ingest_rate = 0.0;
    if (prev_frames >= 0.0 && now_ns > prev_ns) {
      const double dt = static_cast<double>(now_ns - prev_ns) / 1e9;
      qps = std::max(0.0, (frames - prev_frames) / dt);
      ingest_rate = std::max(0.0, (updates - prev_updates) / dt);
    }
    prev_frames = frames;
    prev_updates = updates;
    prev_ns = now_ns;
    DrawFrame(config, samples, qps, ingest_rate);
    if (config.iterations != 0 && tick + 1 == config.iterations) break;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(config.interval_ms));
  }
  return 0;
}
