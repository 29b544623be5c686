#ifndef PERFBENCH_DRIVER_WIRE_H_
#define PERFBENCH_DRIVER_WIRE_H_

// The wire side of the benchmark: the stock sketch_serverd as a child
// process, its /proc counters, the closed-loop load threads that drive it
// over 127.0.0.1 TCP, and the verification of its final state.

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "spans.h"
#include "workloads.h"

namespace perfbench {

// A running sketch_serverd started with its default flags.
class Daemon {
 public:
  // Starts `binary` and waits for its "listening on 127.0.0.1:PORT" line.
  static std::unique_ptr<Daemon> Spawn(const std::string& binary,
                                       std::string* error);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Sends Shutdown and waits for the process to exit (killing it after a
  // timeout). True if it exited cleanly on its own.
  bool Stop();

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

 private:
  Daemon(pid_t pid, int stdout_fd, uint16_t port)
      : pid_(pid), stdout_fd_(stdout_fd), port_(port) {}
  void Reap(bool graceful);

  pid_t pid_;
  int stdout_fd_;
  uint16_t port_;
  bool running_ = true;
};

// Reads only: CPU ticks (utime + stime) of the whole process and voluntary
// plus involuntary context switches summed over its threads.
struct ProcSample {
  uint64_t cpu_ticks = 0;
  uint64_t ctx_switches = 0;
};
bool ReadProcSample(pid_t pid, ProcSample* out);
double PeakRssMib(pid_t pid);  // VmHWM
double TicksPerSecond();

// Creates and pre-populates every sketch of `workload` over one
// connection. False (with *error) if any request fails.
bool RunSetup(const Workload& workload, uint16_t port, std::string* error);

struct RunOptions {
  double warmup_s = 1.0;
  double timed_s = 10.0;
  double slice_s = 0.5;  // rounded so whole slices fill timed_s
  // Alternate untraced and traced slices; spans only in traced ones.
  bool traced = false;
};

struct Slice {
  bool traced = false;
  double wall_s = 0;
  uint64_t windows = 0;
  uint64_t requests = 0;
  uint64_t cpu_ticks = 0;
  uint64_t ctx_switches = 0;
};

struct WireResult {
  std::vector<Slice> slices;
  // Round trip of each window started in an untraced timed slice.
  std::vector<uint64_t> latency_ns;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t reads = 0;         // read() calls over the timed phase
  uint64_t timed_windows = 0;
  double client_cpu_s = 0;    // load threads, timed phase
  double client_wall_s = 0;   // timed phase times load threads
  // acked[c][i]: times window i of connection c was fully acknowledged.
  std::vector<std::vector<int64_t>> acked;
  std::vector<std::unique_ptr<SpanLog>> spans;
  std::vector<std::string> errors;
};

// Drives `workload` closed-loop against the daemon at `port`, sampling
// `pid`'s /proc counters at slice boundaries. `blobs` holds the expected
// snapshot of every sketch (snapshot_restore compares each one it gets).
WireResult RunClosedLoop(const Workload& workload, uint16_t port, pid_t pid,
                         const std::vector<std::vector<uint8_t>>& blobs,
                         const RunOptions& options);

struct VerifyResult {
  uint64_t checks = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
};

// After the timed phase: every sketch's snapshot digest against the
// reference (which must already hold the acknowledged updates), a fixed
// sample of queries replayed against reference answers, and on
// snapshot_restore a restore of every blob read back byte for byte.
// `corrupt_digest` flips one reference digest to prove a mismatch fails.
VerifyResult VerifyFinalState(const Workload& workload,
                              const Reference& reference, uint16_t port,
                              bool corrupt_digest);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_WIRE_H_
