// Fuzz harness: the sketchwire/1 frame decoder, the typed message
// decoders, and the full service dispatch behind them.
//
// The input is fed to a FrameDecoder in two fragments (exercising header /
// payload resumption and the in-place receipt of a large frame), and every
// extracted frame is pushed through every typed decoder and then through
// SketchService::HandleFrame. Invariants enforced with a trap (a real
// finding, not a rejection):
//
//   * no frame reaches a SKETCH_CHECK inside the service (the daemon would
//     abort there),
//   * the service always answers with exactly one well-formed frame,
//   * the answer always carries a response opcode (0x80-0xff),
//   * no decode path allocates from a hostile length prefix — an
//     oversized declared length is rejected before the allocation, so the
//     harness runs clean under ASan's allocator limits.
//
// Malformed inputs ending in DecodeStatus::kBadFrame or a false return
// from a typed decoder are the expected outcome for most of the corpus.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "common/check.h"
#include "fuzz/fuzz_util.h"
#include "server/protocol.h"
#include "server/sketch_service.h"

namespace {

/// Every typed decoder must either reject the frame or fill the struct;
/// it must never read out of bounds (ASan's job to notice).
void TryAllDecoders(const sketch::server::Frame& frame) {
  using namespace sketch::server;
  CreateSketchRequest create;
  (void)DecodeCreateSketch(frame, &create);
  IngestRequest ingest;
  (void)DecodeIngest(frame, &ingest);
  PointQueryRequest query;
  (void)DecodePointQuery(frame, &query);
  HeavyHittersRequest hh;
  (void)DecodeHeavyHitters(frame, &hh);
  InnerProductRequest inner;
  (void)DecodeInnerProduct(frame, &inner);
  NamedRequest named;
  (void)DecodeNamedRequest(frame, &named);
  RestoreRequest restore;
  (void)DecodeRestore(frame, &restore);
  ErrorResponse error;
  (void)DecodeError(frame, &error);
  PointValueResponse value;
  (void)DecodePointValue(frame, &value);
  ItemsResponse items;
  (void)DecodeItems(frame, &items);
  BlobResponse blob;
  (void)DecodeBlob(frame, &blob);
  TextResponse text;
  (void)DecodeText(frame, &text);
  IngestAckResponse ack;
  (void)DecodeIngestAck(frame, &ack);
}


/// The service's answer to one frame. A SKETCH_CHECK reached from
/// HandleFrame would abort the daemon, so in fuzz builds (where checks
/// throw) it traps: hostile frames must be answered, never checked.
std::vector<uint8_t> HandleOrTrap(sketch::server::SketchService& service,
                                  const sketch::server::Frame& frame) {
  try {
    return service.HandleFrame(frame);
  } catch (const sketch::CheckFailure& failure) {
    std::fprintf(stderr, "HandleFrame reached a check: %s\n",
                 failure.what());
    __builtin_trap();
  }
}

/// Pushes one extracted frame through every typed decoder and the
/// service, and checks the answer is one well-formed response frame.
void CheckFrame(sketch::server::SketchService& service,
                const sketch::server::Frame& frame) {
  using namespace sketch::server;
  TryAllDecoders(frame);
  const std::vector<uint8_t> response = HandleOrTrap(service, frame);
  FrameDecoder response_decoder;
  response_decoder.Feed(response.data(), response.size());
  Frame response_frame;
  if (response_decoder.Next(&response_frame) != DecodeStatus::kFrame) {
    __builtin_trap();  // the server emitted a malformed frame
  }
  if (static_cast<uint8_t>(response_frame.opcode) < 0x80) {
    __builtin_trap();  // the server answered with a request opcode
  }
  if (response_decoder.buffered_bytes() != 0) {
    __builtin_trap();  // trailing bytes after the response frame
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace sketch::server;
  SketchService service({});
  FrameDecoder decoder;
  // Split the input so every frame boundary can land mid-header or
  // mid-payload at least some of the time, and drain the frames after
  // each half, as the event loop does after each read: a frame split
  // with more than one window still to come is received in place.
  const size_t half = size / 2;
  const size_t lengths[2] = {half, size - half};
  Frame frame;
  // Cap the frames handled per input so a frame-dense input cannot
  // create an unbounded registry.
  int handled = 0;
  for (const size_t length : lengths) {
    decoder.Feed(data, length);
    data += length;
    while (handled < 64 && decoder.Next(&frame) == DecodeStatus::kFrame) {
      ++handled;
      CheckFrame(service, frame);
    }
  }
  return 0;
}
