// perfbench_driver: the benchmark of the served sketch path.
//
// Starts the stock sketch_serverd (default flags), creates and
// pre-populates one workload's sketches, drives it closed-loop over
// 127.0.0.1 TCP, verifies every answer and the final state against an
// in-process reference, and prints the metrics. With --trace 1 it
// alternates untraced and traced slices, replays the workload in process
// through each layer's public functions, writes a Chrome trace, and
// prints the per-layer metrics instead.
//
//   perfbench_driver --daemon PATH --workload NAME [--seed N] [--seconds S]
//                    [--trace 0|1] [--out-dir DIR] [--commit SHA]
//                    [--corrupt-reference]
//
// The last stdout line is one JSON object: correct, attempted, failed and
// metrics (name -> {value, unit}). Exit status is 0 only if every answer
// was correct.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/timer.h"
#include "kernels/simd_dispatch.h"
#include "replay.h"
#include "spans.h"
#include "wire.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

namespace perfbench {
namespace {

// Set-up is repeated this many times per run (a fresh daemon each time)
// and its median reported.
constexpr int kSetupRepeats = 9;

// The timed phase is split over this many of those daemons. Throughput on
// the same inputs differs from one daemon process to the next by more
// than it drifts within one (thread placement, memory layout), so each run
// averages over several.
constexpr int kSegments = 5;

struct Args {
  std::string daemon;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string commit = "unknown";
  bool corrupt_reference = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-reference") {
      args->corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--daemon") {
      args->daemon = value;
    } else if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return !args->daemon.empty() && !args->workload.empty() &&
         args->seconds > 0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// Nearest-rank percentile of sorted samples.
double Percentile(const std::vector<uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  return static_cast<double>(sorted[std::max<std::size_t>(rank, 1) - 1]);
}

std::string Json(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c >= 0x20 ? c : ' ');
  }
  return out + "\"";
}

// Adds one segment's wire results to the run's totals.
void Append(WireResult* total, WireResult&& part) {
  total->slices.insert(total->slices.end(), part.slices.begin(),
                       part.slices.end());
  total->latency_ns.insert(total->latency_ns.end(), part.latency_ns.begin(),
                           part.latency_ns.end());
  total->attempted += part.attempted;
  total->failed += part.failed;
  total->reads += part.reads;
  total->timed_windows += part.timed_windows;
  total->client_cpu_s += part.client_cpu_s;
  total->client_wall_s += part.client_wall_s;
  for (auto& log : part.spans) total->spans.push_back(std::move(log));
  total->errors.insert(total->errors.end(), part.errors.begin(),
                       part.errors.end());
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

int Run(const Args& args) {
  WorkloadKind kind;
  if (!ParseWorkload(args.workload, &kind)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifndef NDEBUG
  const bool debug = true;
#else
  const bool debug = build_type == "Debug" || build_type.empty();
#endif
  if (debug) {
    std::fprintf(stderr, "perfbench: refusing to measure a debug build (%s)\n",
                 build_type.c_str());
    return 2;
  }
  if (std::getenv("SKETCH_FORCE_SCALAR") != nullptr) {
    std::fprintf(stderr,
                 "perfbench: SKETCH_FORCE_SCALAR is set; unset it so the "
                 "daemon runs its dispatched SIMD tier\n");
    return 2;
  }

  // Inputs and the expected blobs are built before any timing.
  const Workload workload = MakeWorkload(kind, args.seed);
  std::vector<std::vector<uint8_t>> blobs;
  {
    const Reference reference(workload);
    for (uint32_t s = 0; s < workload.sketches.size(); ++s) {
      blobs.push_back(reference.Serialize(s));
    }
  }

  // Every set-up runs on a fresh daemon; the last kSegments of them each
  // serve one segment of the timed phase and are verified before they stop.
  RunOptions options;
  options.warmup_s = 0.5;
  options.timed_s = args.seconds / kSegments;
  options.traced = args.trace;
  std::vector<double> setup_s;
  std::vector<double> peak_rss_mib;
  WireResult wire;
  VerifyResult verify;
  for (int i = 0; i < kSetupRepeats; ++i) {
    std::string error;
    const uint64_t start = sketch::MonotonicNowNs();
    std::unique_ptr<Daemon> daemon = Daemon::Spawn(args.daemon, &error);
    if (daemon == nullptr || !RunSetup(workload, daemon->port(), &error)) {
      std::fprintf(stderr, "perfbench: %s\n", error.c_str());
      return 1;
    }
    setup_s.push_back(static_cast<double>(sketch::MonotonicNowNs() - start) /
                      1e9);
    if (i < kSetupRepeats - kSegments) {
      daemon->Stop();
      continue;
    }
    WireResult part =
        RunClosedLoop(workload, daemon->port(), daemon->pid(), blobs, options);
    peak_rss_mib.push_back(PeakRssMib(daemon->pid()));
    Reference reference(workload);
    if (kind != WorkloadKind::kSnapshotRestore) {
      for (std::size_t c = 0; c < part.acked.size(); ++c) {
        for (std::size_t w = 0; w < part.acked[c].size(); ++w) {
          reference.ApplyWindow(workload.windows[c][w], part.acked[c][w]);
        }
      }
    }
    const VerifyResult checked = VerifyFinalState(
        workload, reference, daemon->port(), args.corrupt_reference);
    if (!daemon->Stop()) {
      part.errors.push_back("daemon did not shut down cleanly");
    }
    Append(&wire, std::move(part));
    verify.checks += checked.checks;
    verify.failed += checked.failed;
    verify.errors.insert(verify.errors.end(), checked.errors.begin(),
                         checked.errors.end());
  }

  const uint64_t attempted = wire.attempted + verify.checks;
  const uint64_t failed = wire.failed + verify.failed;
  const bool correct = failed == 0 && wire.errors.empty() && !wire.slices.empty();
  for (const std::string& e : wire.errors) {
    std::fprintf(stderr, "perfbench: %s\n", e.c_str());
  }
  for (const std::string& e : verify.errors) {
    std::fprintf(stderr, "perfbench: %s\n", e.c_str());
  }

  // Untraced slices give the end-to-end numbers (all slices when
  // untraced; every other one in a traced run). Rates are totals over the
  // slices, not a median of slice rates: the host alternates between fast
  // and slow phases lasting seconds, and a median jumps between the two
  // modes where a mean moves with the share of time spent in each.
  const double ticks = TicksPerSecond();
  std::vector<double> rates;
  double traced_requests = 0;
  double traced_wall = 0;
  double requests = 0;
  double wall = 0;
  double cpu = 0;
  double windows = 0;
  double ctx = 0;
  for (const Slice& s : wire.slices) {
    if (s.traced) {
      traced_requests += static_cast<double>(s.requests);
      traced_wall += s.wall_s;
      continue;
    }
    rates.push_back(static_cast<double>(s.requests) / s.wall_s);
    requests += static_cast<double>(s.requests);
    wall += s.wall_s;
    cpu += static_cast<double>(s.cpu_ticks) / ticks;
    windows += static_cast<double>(s.windows);
    ctx += static_cast<double>(s.ctx_switches);
  }
  std::vector<uint64_t> latency = wire.latency_ns;
  std::sort(latency.begin(), latency.end());
  const double requests_per_s = requests / wall;
  const std::size_t frames_per_window = workload.FramesPerWindow();

  std::vector<Metric> metrics;
  std::vector<Metric> notes;  // printed for reading, not in the JSON
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::string trace_path;
  if (!args.trace) {
    metrics = {
        {"requests_per_s", "requests/s", requests_per_s},
        {"latency_p50_us", "us", Percentile(latency, 0.50) / 1e3},
        {"server_cpu_us_per_request", "us", cpu / requests * 1e6},
        {"peak_rss_mb", "MiB", Median(peak_rss_mib)},
        {"setup_s", "s", Median(setup_s)},
    };
    // The p99 swings with host contention far more than the other
    // metrics do, so it is a per-layer diagnostic, not a gated metric.
    notes.push_back({"latency_p99_us", "us", Percentile(latency, 0.99) / 1e3});
    if (kind == WorkloadKind::kIngestStream) {
      notes.push_back({"updates_per_s", "updates/s",
                       requests_per_s * static_cast<double>(
                                            workload.batches.back().size())});
    }
    if (kind == WorkloadKind::kSnapshotRestore) {
      // Per cycle: one snapshot blob out and the same blob restored in.
      const double blob_mib =
          static_cast<double>(blobs.front().size()) / (1 << 20);
      notes.push_back(
          {"blob_mib_per_s", "MiB/s", requests_per_s / 3 * 2 * blob_mib});
    }
  } else {
    SpanLog replay_log("replay (in process)", 2, 1);
    const ReplayResult replay = RunReplay(workload, &replay_log);
    const double cpu_ns_per_window = cpu / windows * 1e9;
    std::vector<const SpanLog*> logs;
    double client_windows = 0;
    double write_ns = 0;
    for (const auto& log : wire.spans) {
      logs.push_back(log.get());
      const auto self = log->SelfTimeNs();
      for (const Span& span : log->spans()) {
        if (span.parent < 0) ++client_windows;
      }
      if (self.count("client.write") != 0) {
        write_ns += static_cast<double>(self.at("client.write"));
      }
    }
    logs.push_back(&replay_log);
    trace_path = args.out_dir + "/trace-" + args.workload + ".json";
    if (!WriteChromeTrace(trace_path, logs)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
      return 1;
    }
    const double layer_ns_per_window = replay.frame_decode_ns_per_window +
                                       replay.handle_frames_ns_per_window;
    metrics = {
        {"client.cpu_share", "fraction", wire.client_cpu_s / wire.client_wall_s},
        {"client.write_us_per_window", "us",
         write_ns / std::max(client_windows, 1.0) / 1e3},
        {"client.reads_per_window", "count",
         static_cast<double>(wire.reads) /
             static_cast<double>(std::max<uint64_t>(wire.timed_windows, 1))},
        {"sketch_serverd.busy_share", "fraction",
         cpu / (wall * static_cast<double>(nproc))},
        {"sketch_serverd.ctx_switches_per_window", "count", ctx / windows},
        {"event_loop.front_door_us_per_window", "us",
         (cpu_ns_per_window - replay.handle_frames_ns_per_window) / 1e3},
        {"budget.unexplained_share", "fraction",
         1 - layer_ns_per_window / cpu_ns_per_window},
        {"trace.overhead_share", "fraction",
         1 - traced_requests / traced_wall / requests_per_s},
        {"latency_p99_us", "us", Percentile(latency, 0.99) / 1e3},
    };
    const std::map<std::string, std::string> units = {
        {"protocol.frame_decode_ns_per_frame", "ns"},
        {"protocol.frame_decode_ns_per_kib", "ns"},
        {"protocol.decode_ingest_ns_per_update", "ns"},
        {"protocol.decode_query_ns_per_frame", "ns"},
        {"protocol.encode_response_ns_per_frame", "ns"},
        {"protocol.blob_codec_ns_per_kib", "ns"},
        {"sketch_service.ingest_ns_per_update", "ns"},
        {"sketch_service.query_l1_ns_per_frame", "ns"},
        {"sketch_service.query_l2_ns_per_frame", "ns"},
        {"sketch_service.point_query_l2_ns", "ns"},
        {"sketch_service.heavy_hitters_us", "us"},
        {"sketch_service.l2_bound_us_per_frame", "us"},
        {"sketch_service.l1_bound_us_per_frame", "us"},
        {"sketch_service.dispatch_share", "fraction"},
        {"sketch_service.snapshot_us_per_mib", "us"},
        {"sketch_service.restore_us_per_mib", "us"},
        {"sketch_service.create_drop_us", "us"},
        {"kernels.countmin_pow2.apply_ns_per_update", "ns"},
        {"kernels.countmin_div.apply_ns_per_update", "ns"},
        {"kernels.countsketch_pow2.apply_ns_per_update", "ns"},
        {"kernels.countsketch_div.apply_ns_per_update", "ns"},
        {"kernels.bloom.apply_ns_per_update", "ns"},
        {"kernels.countmin.estimate_ns_per_key", "ns"},
        {"kernels.countsketch.estimate_ns_per_key", "ns"},
        {"sketch.serialize_us_per_mib", "us"},
    };
    for (const auto& [name, unit] : units) {
      const auto it = replay.metrics.find(name);
      if (it == replay.metrics.end()) {
        std::fprintf(stderr, "perfbench: replay produced no %s\n", name.c_str());
        return 1;
      }
      metrics.push_back({name, unit, it->second});
    }
    notes.push_back({"daemon_cpu_us_per_window", "us", cpu_ns_per_window / 1e3});
    notes.push_back({"replay.frame_decode_us_per_window", "us",
                     replay.frame_decode_ns_per_window / 1e3});
    notes.push_back({"replay.handle_frames_us_per_window", "us",
                     replay.handle_frames_ns_per_window / 1e3});
  }
  notes.push_back({"failed_share", "fraction",
                   static_cast<double>(failed) /
                       static_cast<double>(std::max<uint64_t>(attempted, 1))});

  for (const Metric& m : metrics) {
    std::printf("metric %-44s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : notes) {
    std::printf("note   %-44s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string slice_rates;
  for (double rate : rates) {
    slice_rates += (slice_rates.empty() ? "" : ",") + std::to_string(std::lround(rate));
  }
  // Run metadata: what was measured, on what, with how many samples.
  const std::size_t p99_tail =
      latency.size() - static_cast<std::size_t>(std::ceil(
                           0.99 * static_cast<double>(latency.size())));
  std::printf(
      "metadata {\"workload\":%s,\"seed\":%llu,\"trace\":%d,\"commit\":%s,"
      "\"build_type\":%s,\"simd_tier\":%s,\"sketch_force_scalar\":\"unset\","
      "\"nproc\":%ld,\"daemon_flags\":[],\"connections\":%zu,"
      "\"frames_per_window\":%zu,\"windows_in_flight_per_connection\":1,"
      "\"segments\":%d,\"warmup_s_per_segment\":%.1f,"
      "\"timed_s_per_segment\":%.2f,\"slice_s\":%.1f,"
      "\"untraced_slices\":%zu,\"latency_samples\":%zu,"
      "\"latency_p99_samples_beyond\":%zu,\"setup_repeats\":%d,"
      "\"slice_requests_per_s\":[%s],\"attempted\":%llu,\"failed\":%llu,"
      "\"trace_file\":%s}\n",
      Json(args.workload).c_str(), static_cast<unsigned long long>(args.seed),
      args.trace ? 1 : 0, Json(args.commit).c_str(), Json(build_type).c_str(),
      Json(sketch::simd::SimdTierName(sketch::simd::ActiveSimdTier())).c_str(),
      nproc, workload.connections(), frames_per_window, kSegments,
      options.warmup_s,
      options.timed_s, options.slice_s, rates.size(), latency.size(), p99_tail,
      kSetupRepeats, slice_rates.c_str(),
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), Json(trace_path).c_str());

  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i == 0 ? "" : ", ") + Json(metrics[i].name) + ": {\"value\": " +
            value + ", \"unit\": " + Json(metrics[i].unit) + "}";
  }
  std::printf("%s}}\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --daemon PATH --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--out-dir DIR] [--commit SHA] "
                 "[--corrupt-reference]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
