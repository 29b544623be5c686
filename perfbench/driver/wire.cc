#include "wire.h"

#include <dirent.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/timer.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/transport.h"

extern char** environ;

namespace perfbench {

namespace {

using sketch::MonotonicNowNs;
using namespace sketch::server;

constexpr std::size_t kReadChunkBytes = 256 * 1024;

// One client connection with its own frame decoder.
class Connection {
 public:
  explicit Connection(uint16_t port)
      : stream_(ConnectTcp("127.0.0.1", port)), chunk_(kReadChunkBytes) {}
  bool ok() const { return stream_ != nullptr; }

  bool Write(const std::vector<uint8_t>& bytes) {
    return WriteAll(stream_.get(), bytes);
  }

  // Reads until `count` complete response frames are buffered.
  bool ReadFrames(std::size_t count, std::vector<Frame>* out,
                  uint64_t* reads) {
    out->clear();
    while (out->size() < count) {
      Frame frame;
      const DecodeStatus status = decoder_.Next(&frame);
      if (status == DecodeStatus::kFrame) {
        out->push_back(std::move(frame));
        continue;
      }
      if (status == DecodeStatus::kBadFrame) return false;
      const std::ptrdiff_t n = stream_->Read(chunk_.data(), chunk_.size());
      ++*reads;
      if (n <= 0) return false;
      decoder_.Feed(chunk_.data(), static_cast<std::size_t>(n));
    }
    return true;
  }

  // One synchronous request; false on transport failure.
  bool Call(const std::vector<uint8_t>& request, Frame* response) {
    std::vector<Frame> frames;
    uint64_t reads = 0;
    if (!Write(request) || !ReadFrames(1, &frames, &reads)) return false;
    *response = std::move(frames.front());
    return true;
  }

 private:
  std::unique_ptr<ByteStream> stream_;
  FrameDecoder decoder_;
  std::vector<uint8_t> chunk_;
};

std::string ErrorText(const Frame& frame) {
  ErrorResponse error;
  if (frame.opcode == Opcode::kError && DecodeError(frame, &error)) {
    return error.message;
  }
  return std::string("unexpected response ") + OpcodeName(frame.opcode);
}

// Checks one timed-phase response: its shape, and a snapshot's bytes
// against the reference blob. Query values are checked after the phase
// against the reference (VerifyFinalState).
bool CheckResponse(const Workload& w,
                   const std::vector<std::vector<uint8_t>>& blobs,
                   const FrameSpec& spec, const Frame& frame) {
  const BoundKind kind = w.sketches[spec.sketch].type == SketchType::kCountMin
                             ? BoundKind::kL1
                             : BoundKind::kL2;
  switch (spec.opcode) {
    case Opcode::kIngest: {
      IngestAckResponse ack;
      return DecodeIngestAck(frame, &ack) &&
             ack.accepted == w.batches[spec.arg].size();
    }
    case Opcode::kPointQueryBatch: {
      ValueBatchResponse batch;
      if (!DecodeValueBatch(frame, &batch) ||
          batch.values.size() != w.keys[spec.arg].size()) {
        return false;
      }
      for (const PointValueResponse& v : batch.values) {
        if (v.bound_kind != kind || !(v.error_bound >= 0)) return false;
      }
      return true;
    }
    case Opcode::kPointQuery: {
      PointValueResponse value;
      return DecodePointValue(frame, &value) && value.bound_kind == kind;
    }
    case Opcode::kHeavyHitters: {
      ItemsResponse items;
      return DecodeItems(frame, &items);
    }
    case Opcode::kSnapshot: {
      BlobResponse blob;
      return DecodeBlob(frame, &blob) && blob.bytes == blobs[spec.sketch];
    }
    case Opcode::kRestore:
    case Opcode::kDropSketch:
      return frame.opcode == Opcode::kOk;
    default:
      break;
  }
  return false;
}

bool SameValue(const PointValueResponse& got,
               const PointValueResponse& want) {
  // Estimates are integers and must match exactly; the bounds are the
  // same double expression evaluated in the same order, so a relative
  // 1e-12 only absorbs a compiler's choice of fused multiply-add.
  const double scale = std::max(1.0, std::abs(want.error_bound));
  return got.estimate == want.estimate && got.bound_kind == want.bound_kind &&
         std::abs(got.error_bound - want.error_bound) <= 1e-12 * scale;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

enum Phase : int { kWarmup = 0, kUntraced = 1, kTraced = 2, kStop = 3 };

struct LoadThreadState {
  std::atomic<uint64_t> windows{0};
  std::atomic<uint64_t> requests{0};
  std::vector<uint64_t> latency_ns;
  std::vector<int64_t> acked;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t reads = 0;
  uint64_t timed_windows = 0;
  double cpu_s = 0;
  double wall_s = 0;
  std::string error;
};

// Spans of one traced window: the window, then write / wait / decode
// children. Every 4th traced window is kept, at most 4000 per thread, so
// a trace file stays small enough to open.
constexpr uint64_t kSpanSampleEvery = 4;
constexpr uint64_t kMaxSpannedWindows = 4000;

// One closed-loop unit: a pipelined window is one step; a snapshot_restore
// cycle is three synchronous one-frame steps.
using Unit = std::vector<const Window*>;

void LoadThread(const Workload& w, const std::vector<Unit>& units,
                const std::vector<std::vector<uint8_t>>& blobs, uint16_t port,
                const std::atomic<int>& phase, LoadThreadState* state,
                SpanLog* log) {
  Connection conn(port);
  if (!conn.ok()) {
    state->error = "connect failed";
    ++state->failed;
    return;
  }
  state->acked.assign(units.size(), 0);
  std::vector<Frame> frames;
  uint64_t spanned = 0;
  uint64_t traced_windows = 0;
  bool timing = false;
  uint64_t timed_start_ns = 0;
  double timed_start_cpu = 0;
  for (uint64_t serial = 0;; ++serial) {
    const int now_phase = phase.load(std::memory_order_acquire);
    if (now_phase == kStop) break;
    if (now_phase != kWarmup && !timing) {
      timing = true;
      timed_start_ns = MonotonicNowNs();
      timed_start_cpu = ThreadCpuSeconds();
    }
    const bool keep_spans = now_phase == kTraced &&
                            traced_windows++ % kSpanSampleEvery == 0 &&
                            spanned < kMaxSpannedWindows;
    const std::size_t slot = serial % units.size();
    uint64_t reads = 0;
    std::size_t sent = 0;
    uint64_t bad = 0;
    uint64_t round_trip_ns = 0;
    bool transport_ok = true;
    // Per step: write start, write end, last response read, checks done.
    std::vector<std::array<uint64_t, 4>> marks;
    for (const Window* step : units[slot]) {
      const uint64_t a = MonotonicNowNs();
      transport_ok = conn.Write(step->bytes);
      const uint64_t b = MonotonicNowNs();
      transport_ok =
          transport_ok && conn.ReadFrames(step->frames.size(), &frames, &reads);
      const uint64_t c = MonotonicNowNs();
      sent += step->frames.size();
      if (!transport_ok) break;
      for (std::size_t i = 0; i < frames.size(); ++i) {
        if (!CheckResponse(w, blobs, step->frames[i], frames[i])) ++bad;
      }
      marks.push_back({a, b, c, MonotonicNowNs()});
      round_trip_ns += c - a;
    }
    state->attempted += sent;
    if (!transport_ok) {
      state->failed += sent;
      state->error = "transport failure";
      break;
    }
    state->failed += bad;
    if (bad == 0) ++state->acked[slot];
    if (now_phase != kWarmup) {
      state->reads += reads;
      ++state->timed_windows;
    }
    if (now_phase == kUntraced) state->latency_ns.push_back(round_trip_ns);
    if (keep_spans) {
      ++spanned;
      const int64_t root = log->Add("client.window", serial, -1,
                                    marks.front()[0], marks.back()[3]);
      for (const auto& [a, b, c, d] : marks) {
        log->Add("client.write", serial, root, a, b);
        log->Add("client.wait", serial, root, b, c);
        log->Add("client.decode", serial, root, c, d);
      }
    }
    state->windows.fetch_add(1, std::memory_order_relaxed);
    state->requests.fetch_add(sent, std::memory_order_relaxed);
  }
  if (timing) {
    state->cpu_s = ThreadCpuSeconds() - timed_start_cpu;
    state->wall_s =
        static_cast<double>(MonotonicNowNs() - timed_start_ns) / 1e9;
  }
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

uint64_t StatusField(const std::string& status, const char* key) {
  const std::size_t at = status.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(status.c_str() + at + std::strlen(key), nullptr, 10);
}

}  // namespace

// --- Daemon ---------------------------------------------------------------

std::unique_ptr<Daemon> Daemon::Spawn(const std::string& binary,
                                      std::string* error) {
  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) {
    *error = "pipe failed";
    return nullptr;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, pipe_fds[0]);
  posix_spawn_file_actions_addclose(&actions, pipe_fds[1]);
  pid_t pid = 0;
  std::string arg0 = binary;
  char* argv[] = {arg0.data(), nullptr};
  const int rc =
      posix_spawn(&pid, binary.c_str(), &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  close(pipe_fds[1]);
  if (rc != 0) {
    close(pipe_fds[0]);
    *error = "cannot start " + binary + ": " + std::strerror(rc);
    return nullptr;
  }
  std::unique_ptr<Daemon> daemon(new Daemon(pid, pipe_fds[0], 0));
  // Wait (at most 10 s) for the listening line.
  std::string text;
  const uint64_t deadline = MonotonicNowNs() + 10'000'000'000ULL;
  const std::string marker = "listening on 127.0.0.1:";
  while (MonotonicNowNs() < deadline) {
    pollfd pfd{pipe_fds[0], POLLIN, 0};
    if (poll(&pfd, 1, 100) <= 0) continue;
    char buffer[256];
    const ssize_t n = read(pipe_fds[0], buffer, sizeof(buffer));
    if (n <= 0) break;
    text.append(buffer, static_cast<std::size_t>(n));
    const std::size_t at = text.find(marker);
    if (at != std::string::npos && text.find('\n', at) != std::string::npos) {
      daemon->port_ = static_cast<uint16_t>(
          std::atoi(text.c_str() + at + marker.size()));
      return daemon;
    }
  }
  *error = "sketch_serverd did not report its port: " + text;
  return nullptr;  // the destructor kills and reaps the child
}

Daemon::~Daemon() {
  if (running_) Reap(false);
  close(stdout_fd_);
}

bool Daemon::Stop() {
  if (!running_) return false;
  Connection conn(port_);
  Frame response;
  const bool acked = conn.ok() && conn.Call(EncodeShutdown(), &response) &&
                     response.opcode == Opcode::kOk;
  Reap(acked);
  return acked;
}

void Daemon::Reap(bool graceful) {
  // Give a shut-down daemon 10 s to drain and exit; kill it otherwise.
  const uint64_t deadline =
      MonotonicNowNs() + (graceful ? 10'000'000'000ULL : 0);
  int status = 0;
  while (waitpid(pid_, &status, WNOHANG) == 0) {
    if (MonotonicNowNs() >= deadline) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      break;
    }
    // Drain its stdout so a final message can never block it.
    char buffer[256];
    pollfd pfd{stdout_fd_, POLLIN, 0};
    if (poll(&pfd, 1, 10) > 0 && read(stdout_fd_, buffer, sizeof(buffer)) <= 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  running_ = false;
}

// --- /proc ----------------------------------------------------------------

bool ReadProcSample(pid_t pid, ProcSample* out) {
  const std::string base = "/proc/" + std::to_string(pid);
  std::string stat;
  if (!ReadFile(base + "/stat", &stat)) return false;
  // Fields after the parenthesised command: state is field 3, utime 14,
  // stime 15.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return false;
  std::istringstream fields(stat.substr(close + 2));
  std::string token;
  uint64_t utime = 0;
  uint64_t stime = 0;
  for (int field = 3; field <= 15 && (fields >> token); ++field) {
    if (field == 14) utime = std::strtoull(token.c_str(), nullptr, 10);
    if (field == 15) stime = std::strtoull(token.c_str(), nullptr, 10);
  }
  out->cpu_ticks = utime + stime;
  out->ctx_switches = 0;
  DIR* dir = opendir((base + "/task").c_str());
  if (dir == nullptr) return false;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    std::string status;
    if (ReadFile(base + "/task/" + entry->d_name + "/status", &status)) {
      out->ctx_switches += StatusField(status, "\nvoluntary_ctxt_switches:") +
                           StatusField(status, "nonvoluntary_ctxt_switches:");
    }
  }
  closedir(dir);
  return true;
}

double PeakRssMib(pid_t pid) {
  std::string status;
  if (!ReadFile("/proc/" + std::to_string(pid) + "/status", &status)) return 0;
  return static_cast<double>(StatusField(status, "VmHWM:")) / 1024.0;
}

double TicksPerSecond() { return static_cast<double>(sysconf(_SC_CLK_TCK)); }

// --- Set-up, load, verification -------------------------------------------

bool RunSetup(const Workload& w, uint16_t port, std::string* error) {
  Connection conn(port);
  if (!conn.ok()) {
    *error = "setup: connect failed";
    return false;
  }
  const std::vector<std::vector<uint8_t>> frames = SetupFrames(w);
  // Pipelined in groups of 16, one group in flight.
  constexpr std::size_t kGroup = 16;
  std::vector<Frame> responses;
  uint64_t reads = 0;
  for (std::size_t first = 0; first < frames.size(); first += kGroup) {
    const std::size_t end = std::min(frames.size(), first + kGroup);
    std::vector<uint8_t> group;
    for (std::size_t i = first; i < end; ++i) {
      group.insert(group.end(), frames[i].begin(), frames[i].end());
    }
    if (!conn.Write(group) || !conn.ReadFrames(end - first, &responses, &reads)) {
      *error = "setup: transport failure";
      return false;
    }
    for (const Frame& frame : responses) {
      if (frame.opcode != Opcode::kOk && frame.opcode != Opcode::kIngestAck) {
        *error = "setup: " + ErrorText(frame);
        return false;
      }
    }
  }
  return true;
}

WireResult RunClosedLoop(const Workload& w, uint16_t port, pid_t pid,
                         const std::vector<std::vector<uint8_t>>& blobs,
                         const RunOptions& options) {
  WireResult result;
  // Closed-loop units per connection. snapshot_restore cycles, one per
  // source sketch: its snapshot, the restore of the blob it must return,
  // and the drop of the copy.
  std::vector<Window> cycle_steps;
  std::vector<std::vector<Unit>> units(w.connections());
  if (w.kind == WorkloadKind::kSnapshotRestore) {
    for (uint32_t s = 0; s < w.sketches.size(); ++s) {
      cycle_steps.push_back({SnapshotFrame(w, s), {{Opcode::kSnapshot, s, 0}}});
      cycle_steps.push_back({RestoreFrame(w, s, kScratchName, blobs[s]),
                             {{Opcode::kRestore, s, 0}}});
      cycle_steps.push_back(
          {DropFrame(kScratchName), {{Opcode::kDropSketch, s, 0}}});
    }
    for (std::size_t i = 0; i < cycle_steps.size(); i += 3) {
      units[0].push_back(
          {&cycle_steps[i], &cycle_steps[i + 1], &cycle_steps[i + 2]});
    }
  } else {
    for (std::size_t c = 0; c < units.size(); ++c) {
      for (const Window& window : w.windows[c]) units[c].push_back({&window});
    }
  }
  const std::size_t connections = w.connections();
  std::vector<LoadThreadState> states(connections);
  for (std::size_t c = 0; c < connections; ++c) {
    result.spans.push_back(
        std::make_unique<SpanLog>("client (wire run)", 1,
                                  static_cast<uint32_t>(c + 1)));
  }
  std::atomic<int> phase{kWarmup};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back(LoadThread, std::cref(w), std::cref(units[c]),
                         std::cref(blobs), port, std::cref(phase), &states[c],
                         result.spans[c].get());
  }
  const auto sleep_s = [](double seconds) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  };
  sleep_s(options.warmup_s);

  const auto totals = [&states](uint64_t* windows, uint64_t* requests) {
    *windows = 0;
    *requests = 0;
    for (const LoadThreadState& s : states) {
      *windows += s.windows.load(std::memory_order_relaxed);
      *requests += s.requests.load(std::memory_order_relaxed);
    }
  };
  // Whole slices of about options.slice_s that add up to timed_s; a
  // traced run needs at least one untraced and one traced slice.
  const auto slices = std::max<std::size_t>(
      options.traced ? 2 : 1,
      static_cast<std::size_t>(
          std::llround(options.timed_s / options.slice_s)));
  const double slice_s = options.timed_s / static_cast<double>(slices);
  ProcSample before;
  ReadProcSample(pid, &before);
  uint64_t windows_before = 0;
  uint64_t requests_before = 0;
  totals(&windows_before, &requests_before);
  uint64_t start_ns = MonotonicNowNs();
  for (std::size_t i = 0; i < slices; ++i) {
    const bool traced = options.traced && i % 2 == 1;
    phase.store(traced ? kTraced : kUntraced, std::memory_order_release);
    sleep_s(slice_s);
    ProcSample after;
    ReadProcSample(pid, &after);
    uint64_t windows = 0;
    uint64_t requests = 0;
    totals(&windows, &requests);
    const uint64_t end_ns = MonotonicNowNs();
    result.slices.push_back({traced,
                             static_cast<double>(end_ns - start_ns) / 1e9,
                             windows - windows_before,
                             requests - requests_before,
                             after.cpu_ticks - before.cpu_ticks,
                             after.ctx_switches - before.ctx_switches});
    before = after;
    windows_before = windows;
    requests_before = requests;
    start_ns = end_ns;
  }
  phase.store(kStop, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  for (LoadThreadState& s : states) {
    result.latency_ns.insert(result.latency_ns.end(), s.latency_ns.begin(),
                             s.latency_ns.end());
    result.attempted += s.attempted;
    result.failed += s.failed;
    result.reads += s.reads;
    result.timed_windows += s.timed_windows;
    result.client_cpu_s += s.cpu_s;
    result.client_wall_s += s.wall_s;
    result.acked.push_back(std::move(s.acked));
    if (!s.error.empty()) result.errors.push_back(s.error);
  }
  return result;
}

VerifyResult VerifyFinalState(const Workload& w, const Reference& reference,
                              uint16_t port, bool corrupt_digest) {
  VerifyResult result;
  Connection conn(port);
  const auto fail = [&result](const std::string& what) {
    ++result.failed;
    if (result.errors.size() < 8) result.errors.push_back(what);
  };
  if (!conn.ok()) {
    fail("verify: connect failed");
    return result;
  }
  Frame response;
  // 1. Every sketch's state, by FNV-1a digest of its snapshot.
  for (uint32_t s = 0; s < w.sketches.size(); ++s) {
    ++result.checks;
    BlobResponse blob;
    if (!conn.Call(SnapshotFrame(w, s), &response) ||
        !DecodeBlob(response, &blob)) {
      fail("verify: snapshot of " + w.sketches[s].name + " failed");
      continue;
    }
    uint64_t expected = Fnv1a(reference.Serialize(s));
    if (corrupt_digest && s == 0) expected ^= 1;
    if (Fnv1a(blob.bytes) != expected) {
      fail("verify: digest mismatch on " + w.sketches[s].name);
    }
    if (w.kind != WorkloadKind::kSnapshotRestore) continue;
    // 2. snapshot_restore: a restored copy must snapshot to the same bytes.
    const std::string copy = "verify_" + std::to_string(s);
    BlobResponse restored;
    ++result.checks;
    if (!conn.Call(RestoreFrame(w, s, copy, blob.bytes), &response) ||
        response.opcode != Opcode::kOk ||
        !conn.Call(EncodeSnapshot({copy}), &response) ||
        !DecodeBlob(response, &restored) || restored.bytes != blob.bytes ||
        !conn.Call(DropFrame(copy), &response) ||
        response.opcode != Opcode::kOk) {
      fail("verify: restore round trip of " + w.sketches[s].name);
    }
  }
  // 3. A fixed sample of queries from connection 0's windows.
  if (w.windows.empty()) return result;
  std::size_t batch_checks = 0;
  std::size_t point_checks = 0;
  std::size_t hh_checks = 0;
  for (const Window& window : w.windows[0]) {
    for (const FrameSpec& f : window.frames) {
      const std::string& name = w.sketches[f.sketch].name;
      if (f.opcode == Opcode::kPointQueryBatch && batch_checks < 64) {
        ++batch_checks;
        ++result.checks;
        ValueBatchResponse got;
        const auto want = reference.PointValues(f.sketch, w.keys[f.arg]);
        bool same = conn.Call(EncodePointQueryBatch({name, w.keys[f.arg]}),
                              &response) &&
                    DecodeValueBatch(response, &got) &&
                    got.values.size() == want.size();
        for (std::size_t i = 0; same && i < want.size(); ++i) {
          same = SameValue(got.values[i], want[i]);
        }
        if (!same) fail("verify: batched point query on " + name);
      } else if (f.opcode == Opcode::kPointQuery && point_checks < 16) {
        ++point_checks;
        ++result.checks;
        PointValueResponse got;
        const uint64_t item = w.keys[f.arg].front();
        if (!conn.Call(EncodePointQuery({name, item}), &response) ||
            !DecodePointValue(response, &got) ||
            !SameValue(got, reference.PointValue(f.sketch, item))) {
          fail("verify: point query on " + name);
        }
      } else if (f.opcode == Opcode::kHeavyHitters && hh_checks < 4) {
        ++hh_checks;
        ++result.checks;
        ItemsResponse got;
        if (!conn.Call(EncodeHeavyHitters({name, kHeavyHitterPhi}),
                       &response) ||
            !DecodeItems(response, &got) ||
            got.items != reference.HeavyHitters(f.sketch, kHeavyHitterPhi)) {
          fail("verify: heavy hitters on " + name);
        }
      }
    }
  }
  return result;
}

}  // namespace perfbench
