#include "replay.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "server/protocol.h"
#include "server/sketch_service.h"

namespace perfbench {

namespace {

using sketch::MonotonicNowNs;
using namespace sketch::server;

constexpr int kReps = 3;

// Results of timed calls land here so the compiler cannot drop the calls.
volatile std::size_t g_sink = 0;
constexpr std::size_t kMaxReplayFrames = 2048;

std::vector<Frame> DecodeAll(const std::vector<uint8_t>& bytes) {
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  std::vector<Frame> frames;
  Frame frame;
  while (decoder.Next(&frame) == DecodeStatus::kFrame) {
    frames.push_back(std::move(frame));
  }
  return frames;
}

std::unique_ptr<SketchService> BuildService(const Workload& w) {
  auto service = std::make_unique<SketchService>(SketchService::Options{});
  std::vector<Frame> frames;
  for (const std::vector<uint8_t>& bytes : SetupFrames(w)) {
    for (Frame& f : DecodeAll(bytes)) frames.push_back(std::move(f));
  }
  std::vector<std::vector<uint8_t>> responses;
  service->HandleFrames(frames, &responses);
  return service;
}

// Times `fn` kReps times, one span per repetition, and returns the median
// repetition in nanoseconds.
template <typename Fn>
double MedianNs(SpanLog* log, const char* name, Fn&& fn) {
  std::vector<uint64_t> reps;
  for (int rep = 0; rep < kReps; ++rep) {
    const uint64_t start = MonotonicNowNs();
    fn();
    const uint64_t end = MonotonicNowNs();
    log->Add(name, static_cast<uint64_t>(rep), -1, start, end);
    reps.push_back(end - start);
  }
  std::sort(reps.begin(), reps.end());
  return static_cast<double>(reps[reps.size() / 2]);
}

// Decoded request frames of the given opcode from connection 0's windows.
std::vector<std::pair<FrameSpec, Frame>> FramesOf(const Workload& w,
                                                  Opcode opcode,
                                                  std::size_t limit) {
  std::vector<std::pair<FrameSpec, Frame>> out;
  for (const std::vector<Window>& pool : w.windows) {
    for (const Window& window : pool) {
      std::vector<Frame> frames = DecodeAll(window.bytes);
      for (std::size_t i = 0; i < frames.size() && out.size() < limit; ++i) {
        if (window.frames[i].opcode == opcode) {
          out.emplace_back(window.frames[i], std::move(frames[i]));
        }
      }
    }
  }
  return out;
}

// Splits `frames` into pipelined groups of `group`, built before timing
// so the timed loop below only dispatches.
std::vector<std::vector<Frame>> Groups(
    const std::vector<std::pair<FrameSpec, Frame>>& frames,
    std::size_t group) {
  std::vector<std::vector<Frame>> groups;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (i % group == 0) groups.emplace_back();
    groups.back().push_back(frames[i].second);
  }
  return groups;
}

void HandleGroups(SketchService* service,
                  const std::vector<std::vector<Frame>>& groups) {
  std::vector<std::vector<uint8_t>> responses;
  for (const std::vector<Frame>& group : groups) {
    responses.clear();
    service->HandleFrames(group, &responses);
  }
}

void IngestProbes(const Workload& w, SpanLog* log,
                  std::map<std::string, double>* m) {
  Reference reference(w);
  std::vector<uint32_t> batches;
  for (const Window& window : w.windows[0]) {
    for (const FrameSpec& f : window.frames) batches.push_back(f.arg);
  }
  const double updates =
      static_cast<double>(batches.size() * w.batches[batches[0]].size());
  const auto apply = [&](auto* sketch) {
    for (uint32_t b : batches) sketch->ApplyBatch(w.batches[b]);
  };
  // Sketch indices follow BuildIngestStream: 0-3 are CountMin div/pow2
  // and CountSketch div/pow2, 12 is the division-mode Bloom filter.
  (*m)["kernels.countmin_div.apply_ns_per_update"] =
      MedianNs(log, "kernels.countmin_div.ApplyBatch",
               [&] { apply(reference.mutable_count_min(0)); }) / updates;
  (*m)["kernels.countmin_pow2.apply_ns_per_update"] =
      MedianNs(log, "kernels.countmin_pow2.ApplyBatch",
               [&] { apply(reference.mutable_count_min(1)); }) / updates;
  (*m)["kernels.countsketch_div.apply_ns_per_update"] =
      MedianNs(log, "kernels.countsketch_div.ApplyBatch",
               [&] { apply(reference.mutable_count_sketch(2)); }) / updates;
  (*m)["kernels.countsketch_pow2.apply_ns_per_update"] =
      MedianNs(log, "kernels.countsketch_pow2.ApplyBatch",
               [&] { apply(reference.mutable_count_sketch(3)); }) / updates;
  (*m)["kernels.bloom.apply_ns_per_update"] =
      MedianNs(log, "kernels.bloom.ApplyBatch",
               [&] { apply(reference.mutable_bloom(12)); }) / updates;

  const auto frames = FramesOf(w, Opcode::kIngest, batches.size());
  (*m)["protocol.decode_ingest_ns_per_update"] =
      MedianNs(log, "protocol.DecodeIngest", [&] {
        IngestRequest request;
        for (const auto& [spec, frame] : frames) DecodeIngest(frame, &request);
      }) / updates;
  std::unique_ptr<SketchService> service = BuildService(w);
  const auto groups = Groups(frames, 8);
  (*m)["sketch_service.ingest_ns_per_update"] =
      MedianNs(log, "sketch_service.HandleFrames(ingest)",
               [&] { HandleGroups(service.get(), groups); }) /
      updates;
}

// Times the batched-query path of query_l1 / query_l2 and splits
// HandleFrames into typed decode, kernel, encode and the rest.
void QueryProbes(const Workload& w, SpanLog* log,
                 std::map<std::string, double>* m) {
  const bool l2 = w.kind == WorkloadKind::kQueryL2;
  Reference reference(w);
  std::unique_ptr<SketchService> service = BuildService(w);
  const auto frames = FramesOf(w, Opcode::kPointQueryBatch, kMaxReplayFrames);
  const auto n = static_cast<double>(frames.size());
  double keys = 0;
  std::vector<ValueBatchResponse> answers;
  for (const auto& [spec, frame] : frames) {
    keys += static_cast<double>(w.keys[spec.arg].size());
    answers.push_back({reference.PointValues(spec.sketch, w.keys[spec.arg])});
  }
  const double decode = MedianNs(log, "protocol.DecodePointQueryBatch", [&] {
    PointQueryBatchRequest request;
    for (const auto& [spec, frame] : frames) {
      DecodePointQueryBatch(frame, &request);
    }
  });
  std::vector<int64_t> estimates(64);
  const double kernel = MedianNs(
      log, l2 ? "kernels.countsketch.EstimateBatch"
              : "kernels.countmin.EstimateBatch",
      [&] {
        for (const auto& [spec, frame] : frames) {
          const std::vector<uint64_t>& items = w.keys[spec.arg];
          if (l2) {
            reference.count_sketch(spec.sketch)
                ->EstimateBatch(items.data(), items.size(), estimates.data());
          } else {
            reference.count_min(spec.sketch)
                ->EstimateBatch(items.data(), items.size(), estimates.data());
          }
        }
      });
  const double encode = MedianNs(log, "protocol.EncodeValueBatch", [&] {
    for (const ValueBatchResponse& answer : answers) {
      g_sink = g_sink + EncodeValueBatch(answer).size();
    }
  });
  const double handle = MedianNs(
      log, l2 ? "sketch_service.HandleFrames(query_l2)"
              : "sketch_service.HandleFrames(query_l1)",
      [&, groups = Groups(frames, 32)] { HandleGroups(service.get(), groups); });
  const double rest = handle - decode - kernel - encode;
  if (l2) {
    (*m)["kernels.countsketch.estimate_ns_per_key"] = kernel / keys;
    (*m)["sketch_service.query_l2_ns_per_frame"] = handle / n;
    (*m)["sketch_service.l2_bound_us_per_frame"] = rest / n / 1e3;
    const auto points = FramesOf(w, Opcode::kPointQuery, 256);
    (*m)["sketch_service.point_query_l2_ns"] =
        MedianNs(log, "sketch_service.HandleFrames(point_query)",
                 [&, groups = Groups(points, 1)] {
                   HandleGroups(service.get(), groups);
                 }) /
        static_cast<double>(points.size());
    const auto hh = FramesOf(w, Opcode::kHeavyHitters, 64);
    (*m)["sketch_service.heavy_hitters_us"] =
        MedianNs(log, "sketch_service.HandleFrames(heavy_hitters)",
                 [&, groups = Groups(hh, 1)] {
                   HandleGroups(service.get(), groups);
                 }) /
        static_cast<double>(hh.size()) / 1e3;
  } else {
    (*m)["protocol.decode_query_ns_per_frame"] = decode / n;
    (*m)["kernels.countmin.estimate_ns_per_key"] = kernel / keys;
    (*m)["protocol.encode_response_ns_per_frame"] = encode / n;
    (*m)["sketch_service.query_l1_ns_per_frame"] = handle / n;
    (*m)["sketch_service.l1_bound_us_per_frame"] = rest / n / 1e3;
    (*m)["sketch_service.dispatch_share"] = rest / handle;
  }
}

void SnapshotProbes(const Workload& w, SpanLog* log,
                    std::map<std::string, double>* m) {
  Reference reference(w);
  std::unique_ptr<SketchService> service = BuildService(w);
  const auto count = static_cast<uint32_t>(w.sketches.size());
  std::vector<std::vector<uint8_t>> blobs;
  // Each request as its own one-frame run, built before timing.
  std::vector<std::vector<Frame>> snapshots;
  std::vector<std::vector<Frame>> restores;
  double mib = 0;
  for (uint32_t s = 0; s < count; ++s) {
    blobs.push_back(reference.Serialize(s));
    mib += static_cast<double>(blobs.back().size()) / (1 << 20);
    snapshots.push_back(DecodeAll(SnapshotFrame(w, s)));
    restores.push_back(DecodeAll(RestoreFrame(w, s, kScratchName, blobs.back())));
  }
  const std::vector<Frame> drop = DecodeAll(DropFrame(kScratchName));
  std::vector<std::vector<uint8_t>> responses;
  const auto handle = [&](const std::vector<Frame>& run) {
    responses.clear();
    service->HandleFrames(run, &responses);
  };
  (*m)["sketch.serialize_us_per_mib"] =
      MedianNs(log, "sketch.Serialize", [&] {
        for (uint32_t s = 0; s < count; ++s) {
          g_sink = g_sink + reference.Serialize(s).size();
        }
      }) / mib / 1e3;
  (*m)["sketch_service.snapshot_us_per_mib"] =
      MedianNs(log, "sketch_service.HandleFrames(snapshot)", [&] {
        for (const std::vector<Frame>& run : snapshots) handle(run);
      }) / mib / 1e3;
  (*m)["protocol.blob_codec_ns_per_kib"] =
      MedianNs(log, "protocol.DecodeRestore+EncodeBlob", [&] {
        RestoreRequest request;
        for (uint32_t s = 0; s < count; ++s) {
          DecodeRestore(restores[s].front(), &request);
          g_sink = g_sink + EncodeBlob({blobs[s]}).size();
        }
      }) / (2 * mib * 1024);
  // Restore and drop are timed separately; the drop is part of the
  // create/drop pair below.
  std::vector<uint64_t> restore_ns;
  for (int rep = 0; rep < kReps; ++rep) {
    uint64_t total = 0;
    for (const std::vector<Frame>& run : restores) {
      const uint64_t start = MonotonicNowNs();
      handle(run);
      const uint64_t end = MonotonicNowNs();
      log->Add("sketch_service.HandleFrames(restore)",
               static_cast<uint64_t>(rep), -1, start, end);
      total += end - start;
      handle(drop);
    }
    restore_ns.push_back(total);
  }
  std::sort(restore_ns.begin(), restore_ns.end());
  (*m)["sketch_service.restore_us_per_mib"] =
      static_cast<double>(restore_ns[restore_ns.size() / 2]) / mib / 1e3;
  const SketchSpec& spec = w.sketches[0];
  const std::vector<Frame> create =
      DecodeAll(EncodeCreateSketch({kScratchName, spec.type, spec.params}));
  (*m)["sketch_service.create_drop_us"] =
      MedianNs(log, "sketch_service.HandleFrames(create+drop)", [&] {
        for (uint32_t s = 0; s < count; ++s) {
          handle(create);
          handle(drop);
        }
      }) / count / 1e3;
}

// The traced workload's own windows (or snapshot cycles), each decoded by
// FrameDecoder and dispatched by HandleFrames, as the daemon would.
void OwnReplay(const Workload& w, SpanLog* log, ReplayResult* result) {
  std::unique_ptr<SketchService> service = BuildService(w);
  std::vector<std::vector<std::vector<uint8_t>>> windows;  // steps of frames
  if (w.kind == WorkloadKind::kSnapshotRestore) {
    Reference reference(w);
    for (uint32_t s = 0; s < w.sketches.size(); ++s) {
      windows.push_back({SnapshotFrame(w, s),
                         RestoreFrame(w, s, kScratchName, reference.Serialize(s)),
                         DropFrame(kScratchName)});
    }
  } else {
    const std::size_t cap =
        std::max<std::size_t>(1, kMaxReplayFrames / w.FramesPerWindow());
    for (const std::vector<Window>& pool : w.windows) {
      for (const Window& window : pool) {
        if (windows.size() < cap) windows.push_back({window.bytes});
      }
    }
  }
  double bytes = 0;
  double frames = 0;
  uint64_t decode_ns = 0;
  uint64_t handle_ns = 0;
  std::vector<std::vector<uint8_t>> responses;
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t i = 0; i < windows.size(); ++i) {
      const int64_t root = log->Begin("replay.window", i);
      for (const std::vector<uint8_t>& step : windows[i]) {
        const uint64_t a = MonotonicNowNs();
        FrameDecoder decoder;
        decoder.Feed(step.data(), step.size());
        std::vector<Frame> batch;
        Frame frame;
        while (decoder.Next(&frame) == DecodeStatus::kFrame) {
          batch.push_back(std::move(frame));
        }
        const uint64_t b = MonotonicNowNs();
        responses.clear();
        service->HandleFrames(batch, &responses);
        const uint64_t c = MonotonicNowNs();
        log->Add("protocol.FrameDecoder", i, root, a, b);
        log->Add("sketch_service.HandleFrames", i, root, b, c);
        decode_ns += b - a;
        handle_ns += c - b;
        if (rep == 0) {
          bytes += static_cast<double>(step.size());
          frames += static_cast<double>(batch.size());
        }
      }
      log->End(root);
    }
  }
  const double reps = kReps;
  const auto count = static_cast<double>(windows.size());
  result->frame_decode_ns_per_window = static_cast<double>(decode_ns) / reps / count;
  result->handle_frames_ns_per_window = static_cast<double>(handle_ns) / reps / count;
  result->metrics["protocol.frame_decode_ns_per_frame"] =
      static_cast<double>(decode_ns) / reps / frames;
  result->metrics["protocol.frame_decode_ns_per_kib"] =
      static_cast<double>(decode_ns) / reps / (bytes / 1024);
}

}  // namespace

ReplayResult RunReplay(const Workload& own, SpanLog* log) {
  ReplayResult result;
  for (WorkloadKind kind : kAllWorkloads) {
    std::unique_ptr<Workload> generated;
    const Workload* w = &own;
    if (kind != own.kind) {
      generated = std::make_unique<Workload>(MakeWorkload(kind, own.seed));
      w = generated.get();
    }
    switch (kind) {
      case WorkloadKind::kIngestStream:
        IngestProbes(*w, log, &result.metrics);
        break;
      case WorkloadKind::kQueryL1:
      case WorkloadKind::kQueryL2:
        QueryProbes(*w, log, &result.metrics);
        break;
      case WorkloadKind::kSnapshotRestore:
        SnapshotProbes(*w, log, &result.metrics);
        break;
    }
  }
  OwnReplay(own, log, &result);
  return result;
}

}  // namespace perfbench
