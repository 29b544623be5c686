#ifndef PERFBENCH_DRIVER_WORKLOADS_H_
#define PERFBENCH_DRIVER_WORKLOADS_H_

// The four benchmark workloads as data: which sketches the daemon holds,
// how they are pre-populated, and the pipelined request windows each
// connection cycles through. Everything is generated from the workload
// seed, so one seed always yields the same requests. The Reference model
// applies the same updates in process and predicts every answer the
// daemon must give.

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "server/protocol.h"
#include "sketch/bloom_filter.h"
#include "sketch/count_min.h"
#include "sketch/count_sketch.h"
#include "sketch/stream_summary.h"
#include "stream/update.h"

namespace perfbench {

using sketch::StreamUpdate;
using sketch::server::Opcode;
using sketch::server::SketchType;

enum class WorkloadKind { kIngestStream, kQueryL1, kQueryL2, kSnapshotRestore };

inline constexpr std::array<WorkloadKind, 4> kAllWorkloads = {
    WorkloadKind::kIngestStream, WorkloadKind::kQueryL1,
    WorkloadKind::kQueryL2, WorkloadKind::kSnapshotRestore};

const char* WorkloadName(WorkloadKind kind);
bool ParseWorkload(const std::string& name, WorkloadKind* out);

struct SketchSpec {
  std::string name;
  SketchType type = SketchType::kCountMin;
  std::array<uint64_t, 5> params{};
};

// One request of a window and what it addresses. `arg` indexes
// Workload::batches for kIngest and Workload::keys for point queries.
struct FrameSpec {
  Opcode opcode = Opcode::kPing;
  uint32_t sketch = 0;
  uint32_t arg = 0;
};

inline constexpr double kHeavyHitterPhi = 0.01;

// A pipelined closed-loop unit: every frame is written at once, then every
// response is read before the next window starts.
struct Window {
  std::vector<uint8_t> bytes;  // the encoded request frames, back to back
  std::vector<FrameSpec> frames;
};

struct Workload {
  WorkloadKind kind = WorkloadKind::kIngestStream;
  uint64_t seed = 0;
  std::vector<SketchSpec> sketches;
  std::vector<std::vector<StreamUpdate>> batches;
  std::vector<std::vector<uint64_t>> keys;
  // (sketch, batch) ingests applied during set-up, before timing.
  std::vector<std::array<uint32_t, 2>> prepopulate;
  // Window pools, one per connection; snapshot_restore has none (its
  // snapshot -> restore -> drop cycles are built in wire.cc from the
  // reference blobs).
  std::vector<std::vector<Window>> windows;

  std::size_t connections() const;
  std::size_t FramesPerWindow() const;
};

Workload MakeWorkload(WorkloadKind kind, uint64_t seed);

// Encoded set-up requests (create every sketch, then pre-populate), in the
// order the daemon and the in-process replay receive them.
std::vector<std::vector<uint8_t>> SetupFrames(const Workload& workload);

// The snapshot_restore cycle's request frames for one source sketch.
std::vector<uint8_t> SnapshotFrame(const Workload& workload, uint32_t sketch);
std::vector<uint8_t> RestoreFrame(const Workload& workload, uint32_t sketch,
                                  const std::string& name,
                                  const std::vector<uint8_t>& blob);
std::vector<uint8_t> DropFrame(const std::string& name);
inline constexpr const char* kScratchName = "snap_scratch";

// In-process model of the daemon's registry: the same sketches fed the
// same acknowledged updates. Linear sketches make the result independent
// of the order updates arrived in.
class Reference {
 public:
  explicit Reference(const Workload& workload);
  ~Reference();
  Reference(const Reference&) = delete;
  Reference& operator=(const Reference&) = delete;

  // Applies `batch` to `sketch` as if it had been acknowledged `times`
  // times (a Bloom filter is idempotent; the counter sketches scale).
  void Apply(uint32_t sketch, uint32_t batch, int64_t times);
  void ApplyWindow(const Window& window, int64_t times);

  std::vector<uint8_t> Serialize(uint32_t sketch) const;

  // What the daemon must answer for a point or batched point query.
  sketch::server::PointValueResponse PointValue(uint32_t sketch,
                                                uint64_t item) const;
  std::vector<sketch::server::PointValueResponse> PointValues(
      uint32_t sketch, const std::vector<uint64_t>& items) const;
  std::vector<uint64_t> HeavyHitters(uint32_t sketch, double phi) const;

  const sketch::CountMinSketch* count_min(uint32_t sketch) const;
  const sketch::CountSketch* count_sketch(uint32_t sketch) const;
  sketch::CountMinSketch* mutable_count_min(uint32_t sketch);
  sketch::CountSketch* mutable_count_sketch(uint32_t sketch);
  sketch::BloomFilter* mutable_bloom(uint32_t sketch);

 private:
  struct Entry;
  const Workload& workload_;
  std::vector<std::unique_ptr<Entry>> entries_;
};

uint64_t Fnv1a(const std::vector<uint8_t>& bytes);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_WORKLOADS_H_
