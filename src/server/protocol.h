#ifndef SKETCH_SERVER_PROTOCOL_H_
#define SKETCH_SERVER_PROTOCOL_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/byte_buffer.h"
#include "stream/update.h"

/// \file
/// Wire protocol for the sketch-as-a-service daemon ("sketchwire/1").
///
/// This layer is a pure codec: it converts between message structs and
/// length-prefixed binary frames, and never touches a socket, a sketch, or
/// a thread — so the whole protocol is unit-testable in-process, and the
/// daemon's event loop, the client library, and the fuzz harness all
/// share one decoder.
///
/// Frame layout (all integers little-endian):
///
///   offset 0  u32  payload length in bytes (excludes this 8-byte header)
///   offset 4  u8   opcode
///   offset 5  u8   protocol version (must be 1)
///   offset 6  u16  flags (unknown bits must be 0; was "reserved" pre-PR 10)
///   offset 8  payload bytes
///
/// Flags: bit 0 (kFrameFlagTraceId) marks a frame whose payload carries a
/// trailing 8-byte little-endian trace/request id; the u32 payload length
/// *includes* those 8 bytes on the wire, and the decoder strips them into
/// Frame::trace_id before typed decoding, so message codecs never see the
/// id. Frames with any other flag bit set are rejected exactly as the old
/// reserved-must-be-zero rule rejected them, which keeps old servers'
/// behavior a strict subset of new ones.
///
/// Payload primitives: u8/u16/u32/u64/i64/f64 little-endian; strings are a
/// u16 length followed by raw bytes (names are capped at kMaxNameBytes);
/// byte blobs are a u32 length followed by raw bytes. All of them, and the
/// frame header itself, are written and read by the byte codec that also
/// encodes sketch blobs (common/byte_buffer.h); this file adds only the
/// wire's own rules: the name and blob caps, the batch caps, and that a
/// message consumes its payload exactly. Each Encode* builds its frame in
/// one buffer: header first, then the payload, then the length patched in.
///
/// Untrusted-input discipline (the server-side mirror of SL003): every
/// decode path validates a declared length against both its own cap and
/// the bytes actually present *before* allocating, so a malformed frame
/// can produce an error response but never an oversized allocation or a
/// crash. Decoding returns false / DecodeStatus::kBadFrame instead of
/// CHECK-failing; SKETCH_CHECK appears only on encode paths, where a
/// violation is a programming error in this process, not hostile input.
/// The full wire-format specification lives in DESIGN.md ("Server"); the
/// golden-file test (tests/server/wire_golden_test.cc) pins the encoding
/// so schema changes are deliberate.

namespace sketch::server {

/// Protocol version carried in every frame header.
inline constexpr uint8_t kProtocolVersion = 1;

/// Bytes in the fixed frame header.
inline constexpr std::size_t kFrameHeaderBytes = 8;

/// Header flag: payload ends with an 8-byte little-endian trace id.
inline constexpr uint16_t kFrameFlagTraceId = 0x0001;

/// Every flag bit this protocol version understands; all others must be
/// zero on the wire.
inline constexpr uint16_t kKnownFrameFlags = kFrameFlagTraceId;

/// Bytes the trace id appends to a flagged frame's payload.
inline constexpr std::size_t kTraceIdBytes = 8;

/// Hard cap on a frame payload. Chosen so the largest legal messages — a
/// kMaxBatchUpdates ingest batch (16 bytes per update) and a snapshot of a
/// maximum-geometry sketch (kMaxSketchCounters counters at 8 bytes) — fit
/// with headroom. The decoder rejects a longer declared length from the
/// header alone, and resident memory follows the bytes received, so a
/// hostile length prefix cannot make the daemon touch memory it was
/// never sent.
inline constexpr uint32_t kMaxFramePayloadBytes = 8u << 20;  // 8 MiB

/// Cap on sketch-name strings.
inline constexpr uint32_t kMaxNameBytes = 256;

/// Cap on updates per ingest frame (16 bytes each → 4 MiB of payload).
inline constexpr uint32_t kMaxBatchUpdates = 1u << 18;

/// Cap on snapshot/restore blobs inside a frame.
inline constexpr uint32_t kMaxBlobBytes = kMaxFramePayloadBytes - 1024;

/// Cap on total counters a served sketch may allocate (512Ki counters =
/// 4 MiB), so CreateSketch geometry — and therefore every snapshot — stays
/// within one frame and a hostile create cannot exhaust server memory.
inline constexpr uint64_t kMaxSketchCounters = 1ull << 19;

/// Cap on items returned from a heavy-hitters query.
inline constexpr uint32_t kMaxHeavyHitterItems = 1u << 16;

/// Cap on keys per batched point query (8 bytes each on request; 17 bytes
/// of estimate+bound+kind each on response — both far inside the frame
/// cap).
inline constexpr uint32_t kMaxBatchQueryItems = 1u << 16;

/// Request and response opcodes. Requests occupy 0x01-0x7f, responses
/// 0x80-0xff, so a stray response frame can never be mistaken for a
/// request.
enum class Opcode : uint8_t {
  // Requests.
  kPing = 0x01,
  kCreateSketch = 0x02,
  kDropSketch = 0x03,
  kIngest = 0x04,
  kPointQuery = 0x05,
  kHeavyHitters = 0x06,
  kInnerProduct = 0x07,
  kSnapshot = 0x08,
  kRestore = 0x09,
  kListSketches = 0x0a,
  kStatsz = 0x0b,
  kTraceDump = 0x0c,
  kShutdown = 0x0d,
  kPointQueryBatch = 0x0e,
  // Responses.
  kOk = 0x80,
  kError = 0x81,
  kPointValue = 0x82,
  kItems = 0x83,
  kBlob = 0x84,
  kText = 0x85,
  kPong = 0x86,
  kIngestAck = 0x87,
  kValueBatch = 0x88,
};

/// Sketch families a server registry can own.
enum class SketchType : uint8_t {
  kCountMin = 1,
  kCountSketch = 2,
  kBloom = 3,
  kStreamSummary = 4,
  kShardedCountMin = 5,
};

/// Error codes carried in kError responses.
enum class ErrorCode : uint16_t {
  kNone = 0,
  kMalformedPayload = 1,
  kUnknownOpcode = 2,
  kNoSuchSketch = 3,
  kSketchExists = 4,
  kGeometryMismatch = 5,
  kFrameTooLarge = 6,
  kBadSketchType = 7,
  kUnsupported = 8,
  kBadBlob = 9,
  kBadGeometry = 10,
  kBadFrameHeader = 11,
};

/// Kind of error bound attached to a point-query response. Minton & Price
/// 2012 motivate reporting the bound alongside the estimate: the same
/// counters admit sharper guarantees than the worst case, and a client can
/// only exploit that if the server tells it the scale of the noise.
enum class BoundKind : uint8_t {
  kNone = 0,
  kL1 = 1,   ///< Count-Min style: eps * ||x||_1 with eps = e / width
  kL2 = 2,   ///< Count-Sketch style: sqrt(3 * F2_hat / width)
  kFpr = 3,  ///< Bloom: current false-positive probability
};

/// One decoded frame: opcode plus raw payload bytes. `trace_id` is the
/// stripped wire trace id (0 = frame was not flagged; stamped ids are
/// never 0 by construction, see StampTraceId).
struct Frame {
  Opcode opcode = Opcode::kPing;
  std::vector<uint8_t> payload;
  uint64_t trace_id = 0;
};

/// The wire's name field: a u16 length plus raw bytes, capped at
/// kMaxNameBytes. AppendName CHECKs the cap (an oversized name is a bug in
/// this process); TryReadName rejects a longer or truncated name before
/// allocating.
void AppendName(const std::string& name, std::vector<uint8_t>* out);
bool TryReadName(ByteReader* reader, std::string* out);

/// Encodes a complete frame (header + payload). CHECKs the payload is
/// within kMaxFramePayloadBytes — an oversized response is a server bug.
std::vector<uint8_t> EncodeFrame(Opcode opcode,
                                 const std::vector<uint8_t>& payload);

/// Stamps an already-encoded request frame with a trace id: appends the
/// 8-byte little-endian id, bumps the header's payload length, and sets
/// kFrameFlagTraceId. Works on any Encode* output, so samplers decorate
/// frames post hoc without every codec growing a trace parameter. CHECKs
/// `trace_id != 0` (0 is the "untraced" sentinel) and that the frame is
/// well-formed and stays within kMaxFramePayloadBytes.
void StampTraceId(std::vector<uint8_t>* frame, uint64_t trace_id);

/// Incremental frame decoder. A transport reads straight into
/// WriteWindow() and reports what arrived with Commit(); Feed() copies
/// bytes it already holds through the same window. Next() yields complete
/// frames as they become available, under any fragmentation, including
/// one byte at a time. A malformed header (bad version, unknown flag
/// bits, oversized length) is fatal for the stream: Next() returns
/// kBadFrame and the decoder stays failed, because after a framing error
/// the byte stream can no longer be resynchronized.
///
/// Bytes land in the decoder's buffer, and Next() copies each frame it
/// finds complete there into Frame::payload. Once Next() has validated
/// the header of a frame whose remaining bytes are more than one window,
/// it reserves the frame's own payload vector (the validated length, so
/// at most kMaxFramePayloadBytes), moves the bytes already buffered into
/// it, and WriteWindow() then points into that vector, one window at a
/// time, until the frame is complete; Next() hands the vector out by
/// move. So past its first window, a MiB-sized restore is copied only by
/// the transport. The vector's size grows one window per WriteWindow(),
/// so resident memory follows the bytes received, not the declared
/// length.
enum class DecodeStatus : uint8_t {
  kFrame = 0,     ///< *out holds the next complete frame
  kNeedMore = 1,  ///< no complete frame buffered yet
  kBadFrame = 2,  ///< framing violation; connection must be dropped
};

class FrameDecoder {
 public:
  /// Most bytes one WriteWindow() offers, and the remaining-bytes size
  /// above which a frame is received in place.
  static constexpr std::size_t kWindowBytes = 64 * 1024;

  /// Where the next transport read lands: 1 to kWindowBytes writable
  /// bytes, never empty. Valid until the next call on this decoder.
  std::span<uint8_t> WriteWindow();

  /// Records that the first `size` bytes of the last WriteWindow() were
  /// written, with no other call in between. CHECKs `size` fits that
  /// window. Bytes committed after a framing error are dropped.
  void Commit(std::size_t size);

  /// Copies `size` bytes through WriteWindow()/Commit().
  void Feed(const uint8_t* data, std::size_t size);

  /// Extracts the next complete frame, if any.
  DecodeStatus Next(Frame* out);

  /// Populated after Next() returns kBadFrame.
  ErrorCode error_code() const { return error_code_; }
  const std::string& error() const { return error_; }

  /// Bytes received and not yet handed out by Next(), a partly received
  /// in-place frame included.
  std::size_t buffered_bytes() const {
    return filled_ - consumed_ +
           (in_place_bytes_ != 0 ? kFrameHeaderBytes + in_place_received_
                                 : 0);
  }

 private:
  /// Marks the stream failed with `code` and `message`; returns kBadFrame.
  DecodeStatus Fail(ErrorCode code, const char* message);

  /// Received bytes are buffer_[consumed_, filled_); the rest of buffer_
  /// is the window the next read may fill.
  std::vector<uint8_t> buffer_;
  std::size_t consumed_ = 0;
  std::size_t filled_ = 0;
  /// The frame being received in place: its opcode and payload vector,
  /// its declared payload length (trace id included; 0 = none), the
  /// payload bytes received so far, and whether it carries a trace id.
  Frame in_place_;
  std::size_t in_place_bytes_ = 0;
  std::size_t in_place_received_ = 0;
  bool in_place_traced_ = false;
  bool failed_ = false;
  ErrorCode error_code_ = ErrorCode::kNone;
  std::string error_;
};

// --- Request messages -----------------------------------------------------

/// CreateSketch: five u64 parameters whose meaning depends on the type:
///   kCountMin/kCountSketch: {width, depth, seed, width_mode, 0}
///   kBloom:                 {num_bits, num_hashes, seed, width_mode, 0}
///   kStreamSummary:         {log_universe, width, depth, verify_width, seed}
///   kShardedCountMin:       {width, depth, seed, num_shards, width_mode}
///
/// `width_mode` is a sketch::WidthMode value: 0 (division, the default —
/// the slot was previously reserved-zero, so old clients are unchanged)
/// or 1 (pow2: width/num_bits rounds up to the next power of two; any
/// power-of-two width, in either mode, reduces with a mask). Responses that report geometry or error
/// bounds always reflect the *rounded* width. Any other value is
/// kBadGeometry. `num_shards` must be 1 to 256; the server keeps one
/// Count-Min table whatever its value (sharding is exact by linearity).
struct CreateSketchRequest {
  std::string name;
  SketchType type = SketchType::kCountMin;
  std::array<uint64_t, 5> params{};
};

/// Wire bytes of one ingest update: u64 item, then i64 delta.
inline constexpr std::size_t kUpdateWireBytes = 16;

struct IngestRequest {
  std::string name;
  std::vector<StreamUpdate> updates;
  /// Wire trace id of the carrying frame (not part of the ingest payload
  /// itself; the server copies it from Frame::trace_id so coalesced-run
  /// spans can tag which requests fed a batch). 0 = untraced.
  uint64_t trace_id = 0;
};

/// A decoded ingest whose updates borrow the frame's payload: valid only
/// while that Frame is alive and unchanged. The update bytes sit wherever
/// the name leaves them, at any alignment, so the server copies them once
/// with CopyUpdatesTo into an aligned buffer the kernel reads.
struct IngestRequestView {
  std::string name;
  /// size() * kUpdateWireBytes bytes of wire updates.
  std::span<const uint8_t> updates;

  std::size_t size() const { return updates.size() / kUpdateWireBytes; }

  /// Writes the size() updates to `out`: one memcpy on a little-endian
  /// host, the per-field fold elsewhere.
  void CopyUpdatesTo(StreamUpdate* out) const;
};

struct PointQueryRequest {
  std::string name;
  uint64_t item = 0;
};

/// Multi-key point query: one registry lookup and one (shared) entry lock
/// amortized over every key, and the estimates come from the batched
/// EstimateBatch kernel instead of per-item hashing.
struct PointQueryBatchRequest {
  std::string name;
  std::vector<uint64_t> items;
};

struct HeavyHittersRequest {
  std::string name;
  double phi = 0.0;
};

struct InnerProductRequest {
  std::string left;
  std::string right;
};

/// Shared by kDropSketch and kSnapshot (payload is just the name).
struct NamedRequest {
  std::string name;
};

struct RestoreRequest {
  std::string name;
  SketchType type = SketchType::kCountMin;
  std::vector<uint8_t> blob;
};

/// A decoded restore whose blob borrows the frame's payload: valid only
/// while that Frame is alive and unchanged. The server restores from it,
/// so the blob's counters are copied once, into the restored sketch.
struct RestoreRequestView {
  std::string name;
  SketchType type = SketchType::kCountMin;
  std::span<const uint8_t> blob;
};

// --- Response messages ----------------------------------------------------

struct ErrorResponse {
  ErrorCode code = ErrorCode::kNone;
  std::string message;
};

struct PointValueResponse {
  int64_t estimate = 0;
  double error_bound = 0.0;
  BoundKind bound_kind = BoundKind::kNone;
};

struct ItemsResponse {
  std::vector<uint64_t> items;
};

struct BlobResponse {
  std::vector<uint8_t> bytes;
};

struct TextResponse {
  std::string text;
};

struct IngestAckResponse {
  uint64_t accepted = 0;
};

/// One PointValueResponse per requested key, in request order.
struct ValueBatchResponse {
  std::vector<PointValueResponse> values;
};

// --- Typed encode/decode --------------------------------------------------
//
// Encode* returns complete frame bytes ready for a transport. Decode*
// takes a frame (already extracted by FrameDecoder), checks the opcode,
// and fills the struct; it returns false on any payload malformation,
// including trailing bytes after the message.

std::vector<uint8_t> EncodePing();
std::vector<uint8_t> EncodeShutdown();
std::vector<uint8_t> EncodeListSketches();
std::vector<uint8_t> EncodeStatsz();
std::vector<uint8_t> EncodeTraceDump();

std::vector<uint8_t> EncodeCreateSketch(const CreateSketchRequest& request);
bool DecodeCreateSketch(const Frame& frame, CreateSketchRequest* out);

std::vector<uint8_t> EncodeIngest(const IngestRequest& request);
/// Encodes directly from a span (avoids copying batches into a request).
std::vector<uint8_t> EncodeIngestSpan(const std::string& name,
                                      UpdateSpan updates);
bool DecodeIngest(const Frame& frame, IngestRequestView* out);
bool DecodeIngest(const Frame& frame, IngestRequest* out);

std::vector<uint8_t> EncodePointQuery(const PointQueryRequest& request);
bool DecodePointQuery(const Frame& frame, PointQueryRequest* out);

std::vector<uint8_t> EncodePointQueryBatch(
    const PointQueryBatchRequest& request);
bool DecodePointQueryBatch(const Frame& frame, PointQueryBatchRequest* out);

std::vector<uint8_t> EncodeHeavyHitters(const HeavyHittersRequest& request);
bool DecodeHeavyHitters(const Frame& frame, HeavyHittersRequest* out);

std::vector<uint8_t> EncodeInnerProduct(const InnerProductRequest& request);
bool DecodeInnerProduct(const Frame& frame, InnerProductRequest* out);

std::vector<uint8_t> EncodeDropSketch(const NamedRequest& request);
std::vector<uint8_t> EncodeSnapshot(const NamedRequest& request);
bool DecodeNamedRequest(const Frame& frame, NamedRequest* out);

std::vector<uint8_t> EncodeRestore(const RestoreRequest& request);
bool DecodeRestore(const Frame& frame, RestoreRequestView* out);
bool DecodeRestore(const Frame& frame, RestoreRequest* out);

std::vector<uint8_t> EncodeOk();
std::vector<uint8_t> EncodePong();

std::vector<uint8_t> EncodeError(const ErrorResponse& response);
bool DecodeError(const Frame& frame, ErrorResponse* out);

std::vector<uint8_t> EncodePointValue(const PointValueResponse& response);
bool DecodePointValue(const Frame& frame, PointValueResponse* out);

std::vector<uint8_t> EncodeItems(const ItemsResponse& response);
bool DecodeItems(const Frame& frame, ItemsResponse* out);

/// Encodes a kBlob frame whose blob is whatever `append` appends to the
/// frame buffer it is handed, so a snapshot is written once, straight
/// after the frame header. `size_hint` (the expected blob bytes) sizes the
/// first allocation. CHECKs the blob is within kMaxBlobBytes.
std::vector<uint8_t> EncodeBlob(
    std::size_t size_hint,
    const std::function<void(std::vector<uint8_t>*)>& append);
std::vector<uint8_t> EncodeBlob(const BlobResponse& response);
bool DecodeBlob(const Frame& frame, BlobResponse* out);

std::vector<uint8_t> EncodeText(const TextResponse& response);
bool DecodeText(const Frame& frame, TextResponse* out);

std::vector<uint8_t> EncodeIngestAck(const IngestAckResponse& response);
bool DecodeIngestAck(const Frame& frame, IngestAckResponse* out);

std::vector<uint8_t> EncodeValueBatch(const ValueBatchResponse& response);
bool DecodeValueBatch(const Frame& frame, ValueBatchResponse* out);

/// True for opcodes in the request range that this protocol version knows.
bool IsKnownRequestOpcode(uint8_t raw);

/// Human-readable opcode / type names (diagnostics, statsz).
const char* OpcodeName(Opcode opcode);
const char* SketchTypeName(SketchType type);

}  // namespace sketch::server

#endif  // SKETCH_SERVER_PROTOCOL_H_
