#ifndef PERFBENCH_DRIVER_REPLAY_H_
#define PERFBENCH_DRIVER_REPLAY_H_

// The in-process half of the traced run: the workload's generated windows
// replayed through the program's public layer functions (FrameDecoder,
// the typed codecs, SketchService::HandleFrames, the sketch kernels), each
// call timed from outside as a span.

#include <map>
#include <string>

#include "spans.h"
#include "workloads.h"

namespace perfbench {

struct ReplayResult {
  // Per-layer metrics by BENCHMARK.json name.
  std::map<std::string, double> metrics;
  // The traced workload's own windows, per window.
  double frame_decode_ns_per_window = 0;
  double handle_frames_ns_per_window = 0;
};

// Replays `own`'s windows on a freshly built SketchService, then runs the
// layer probes of every workload (each on that workload's generated
// windows, seeded like `own`), so every traced run reports every metric.
ReplayResult RunReplay(const Workload& own, SpanLog* log);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_REPLAY_H_
