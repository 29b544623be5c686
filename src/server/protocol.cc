#include "server/protocol.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>
#include <span>
#include <type_traits>
#include <utility>

#include "common/check.h"

namespace sketch::server {

namespace {

/// Offset of the u16 flags in the frame header.
constexpr std::size_t kFlagsOffset = 6;

/// FrameDecoder moves its unread bytes to the front of its buffer once
/// the consumed bytes before them outnumber them this many times.
constexpr std::size_t kCompactRatio = 8;

struct FrameHeader {
  uint32_t payload_length = 0;
  uint8_t opcode = 0;
  uint8_t version = 0;
  uint16_t flags = 0;
};

/// Parses the fixed header at the front of `bytes`, which holds at least
/// kFrameHeaderBytes.
FrameHeader ReadFrameHeader(std::span<const uint8_t> bytes) {
  ByteReader reader(bytes.first(kFrameHeaderBytes));
  FrameHeader header;
  reader.ReadU32(&header.payload_length);
  reader.ReadU8(&header.opcode);
  reader.ReadU8(&header.version);
  reader.ReadU16(&header.flags);
  return header;
}

/// Starts a frame: appends the header with a zero payload length, ready
/// for the payload to be appended to the same buffer. `payload_bytes`
/// only sizes the first allocation; the default covers every fixed-size
/// message with a short name.
std::vector<uint8_t> BeginFrame(Opcode opcode, std::size_t payload_bytes = 56) {
  std::vector<uint8_t> frame;
  frame.reserve(kFrameHeaderBytes + payload_bytes);
  AppendU32(0, &frame);  // payload length, patched by SealFrame
  AppendU8(static_cast<uint8_t>(opcode), &frame);
  AppendU8(kProtocolVersion, &frame);
  AppendU16(0, &frame);  // flags (must-be-zero bits; see StampTraceId)
  return frame;
}

/// Patches the payload length into a frame started by BeginFrame. CHECKs
/// the payload is within kMaxFramePayloadBytes: an oversized frame is a
/// bug in this process.
std::vector<uint8_t> SealFrame(std::vector<uint8_t> frame) {
  const std::size_t payload_length = frame.size() - kFrameHeaderBytes;
  SKETCH_CHECK_MSG(payload_length <= kMaxFramePayloadBytes,
                   "frame payload exceeds kMaxFramePayloadBytes");
  StoreLittleEndian(static_cast<uint32_t>(payload_length), frame.data());
  return frame;
}

/// A blob field (snapshot bytes, text): u32 length + raw bytes, capped at
/// kMaxBlobBytes. `append` writes the bytes straight into `out` and the
/// length is patched in after, so a snapshot is serialized in place.
template <typename Append>
void AppendBlobWith(const Append& append, std::vector<uint8_t>* out) {
  AppendU32(0, out);
  const std::size_t blob_at = out->size();
  append(out);
  const std::size_t blob_bytes = out->size() - blob_at;
  SKETCH_CHECK_MSG(blob_bytes <= kMaxBlobBytes,
                   "encoded blob exceeds kMaxBlobBytes");
  StoreLittleEndian(static_cast<uint32_t>(blob_bytes),
                    out->data() + blob_at - 4);
}

template <typename Bytes>
void AppendBlob(const Bytes& blob, std::vector<uint8_t>* out) {
  AppendBlobWith(
      [&](std::vector<uint8_t>* field) {
        field->insert(field->end(), blob.begin(), blob.end());
      },
      out);
}

template <typename Bytes>
bool TryReadBlob(ByteReader* reader, Bytes* out) {
  return reader->ReadLengthPrefixed<uint32_t>(kMaxBlobBytes, out);
}

/// Reads a u32 element count and checks it against `cap` and against the
/// bytes left (`item_bytes` per element), so the caller can size its
/// output from it without trusting the wire.
bool TryReadCount(ByteReader* reader, uint32_t cap, std::size_t item_bytes,
                  uint32_t* count) {
  return reader->ReadU32(count) && *count <= cap &&
         reader->remaining() / item_bytes >= *count;
}

/// One point-value entry: i64 estimate + f64 bound + u8 kind.
void AppendPointValue(const PointValueResponse& value,
                      std::vector<uint8_t>* out) {
  AppendI64(value.estimate, out);
  AppendF64(value.error_bound, out);
  AppendU8(static_cast<uint8_t>(value.bound_kind), out);
}

bool TryReadPointValue(ByteReader* reader, PointValueResponse* out) {
  uint8_t raw_kind = 0;
  if (!reader->ReadI64(&out->estimate) || !reader->ReadF64(&out->error_bound) ||
      !reader->ReadU8(&raw_kind)) {
    return false;
  }
  out->bound_kind = static_cast<BoundKind>(raw_kind);
  return true;
}

/// Writes the updates in `bytes` (kUpdateWireBytes each) to `out`. The
/// wire order of an update's fields is StreamUpdate's member order, so on
/// a little-endian host the bytes already are the array.
void CopyWireUpdates(std::span<const uint8_t> bytes, StreamUpdate* out) {
  static_assert(std::is_trivially_copyable_v<StreamUpdate> &&
                    sizeof(StreamUpdate) == kUpdateWireBytes &&
                    offsetof(StreamUpdate, delta) == 8,
                "StreamUpdate must be the wire's (item, delta) pair");
  if constexpr (std::endian::native == std::endian::little) {
    if (!bytes.empty()) std::memcpy(out, bytes.data(), bytes.size());
  } else {
    const std::size_t count = bytes.size() / kUpdateWireBytes;
    for (std::size_t i = 0; i < count; ++i) {
      const uint8_t* src = bytes.data() + i * kUpdateWireBytes;
      out[i].item = LoadLittleEndian<uint64_t>(src);
      out[i].delta = static_cast<int64_t>(LoadLittleEndian<uint64_t>(src + 8));
    }
  }
}

/// The one ingest parser: an IngestRequestView borrows the update bytes,
/// an IngestRequest copies them. The declared count is checked against
/// kMaxBatchUpdates and against the bytes present before anything is
/// sized from it.
template <typename Request>
bool ParseIngest(const Frame& frame, Request* out) {
  if (frame.opcode != Opcode::kIngest) return false;
  ByteReader reader(frame.payload);
  uint32_t count = 0;
  std::span<const uint8_t> updates;
  if (!TryReadName(&reader, &out->name) ||
      !TryReadCount(&reader, kMaxBatchUpdates, kUpdateWireBytes, &count) ||
      !reader.ReadSpan(uint64_t{count} * (kUpdateWireBytes / 8), &updates) ||
      !reader.AtEnd()) {
    return false;
  }
  if constexpr (std::is_same_v<Request, IngestRequestView>) {
    out->updates = updates;
  } else {
    out->trace_id = frame.trace_id;  // framing metadata, not payload
    out->updates.resize(count);
    CopyWireUpdates(updates, out->updates.data());
  }
  return true;
}

/// The one restore parser: a RestoreRequestView borrows the blob, a
/// RestoreRequest copies it.
template <typename Request>
bool ParseRestore(const Frame& frame, Request* out) {
  if (frame.opcode != Opcode::kRestore) return false;
  ByteReader reader(frame.payload);
  uint8_t raw_type = 0;
  if (!TryReadName(&reader, &out->name) || !reader.ReadU8(&raw_type)) {
    return false;
  }
  out->type = static_cast<SketchType>(raw_type);
  return TryReadBlob(&reader, &out->blob) && reader.AtEnd();
}

}  // namespace

void AppendName(const std::string& name, std::vector<uint8_t>* out) {
  SKETCH_CHECK_MSG(name.size() <= kMaxNameBytes,
                   "encoded string exceeds kMaxNameBytes");
  AppendLengthPrefixed<uint16_t>(name, out);
}

bool TryReadName(ByteReader* reader, std::string* out) {
  return reader->ReadLengthPrefixed<uint16_t>(kMaxNameBytes, out);
}

// --- Framing --------------------------------------------------------------

std::vector<uint8_t> EncodeFrame(Opcode opcode,
                                 const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> frame = BeginFrame(opcode, payload.size());
  frame.insert(frame.end(), payload.begin(), payload.end());
  return SealFrame(std::move(frame));
}

void StampTraceId(std::vector<uint8_t>* frame, uint64_t trace_id) {
  SKETCH_CHECK_MSG(trace_id != 0, "trace id 0 is the untraced sentinel");
  SKETCH_CHECK_MSG(frame->size() >= kFrameHeaderBytes,
                   "StampTraceId on a truncated frame");
  const FrameHeader header = ReadFrameHeader(*frame);
  SKETCH_CHECK_MSG(
      frame->size() == kFrameHeaderBytes + header.payload_length,
      "StampTraceId on a malformed or multi-frame buffer");
  SKETCH_CHECK_MSG((header.flags & kFrameFlagTraceId) == 0,
                   "frame already carries a trace id");
  const uint32_t new_length =
      header.payload_length + static_cast<uint32_t>(kTraceIdBytes);
  SKETCH_CHECK_MSG(new_length <= kMaxFramePayloadBytes,
                   "trace id would push frame over kMaxFramePayloadBytes");
  StoreLittleEndian(new_length, frame->data());
  StoreLittleEndian(static_cast<uint16_t>(header.flags | kFrameFlagTraceId),
                    frame->data() + kFlagsOffset);
  AppendU64(trace_id, frame);
}

std::span<uint8_t> FrameDecoder::WriteWindow() {
  if (in_place_received_ < in_place_bytes_) {
    std::vector<uint8_t>& payload = in_place_.payload;
    // Next() reserved the whole validated length, so growing the size
    // never moves the bytes already received.
    SKETCH_CHECK(payload.capacity() >= in_place_bytes_);
    if (payload.size() == in_place_received_) {
      payload.resize(in_place_received_ +
                     std::min(kWindowBytes,
                              in_place_bytes_ - in_place_received_));
    }
    return std::span(payload).subspan(in_place_received_);
  }
  if (buffer_.size() - filled_ < kWindowBytes) {
    // Move the unread bytes to the front once the consumed bytes before
    // them are kCompactRatio times as many, so the moves add at most
    // 1/kCompactRatio of a copy per byte received. Otherwise grow by one
    // window step: only bytes about to be received are zero-filled.
    if (consumed_ > 0 && consumed_ >= kCompactRatio * (filled_ - consumed_)) {
      std::copy(buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_),
                buffer_.begin() + static_cast<std::ptrdiff_t>(filled_),
                buffer_.begin());
      filled_ -= consumed_;
      consumed_ = 0;
    }
    if (buffer_.size() - filled_ < kWindowBytes) {
      buffer_.resize(filled_ + kWindowBytes);
    }
  }
  return std::span(buffer_).subspan(filled_, kWindowBytes);
}

void FrameDecoder::Commit(std::size_t size) {
  if (in_place_received_ < in_place_bytes_) {
    SKETCH_CHECK(size <= in_place_.payload.size() - in_place_received_);
    in_place_received_ += size;
    return;
  }
  SKETCH_CHECK(size <= buffer_.size() - filled_);
  if (failed_) return;  // stream is already unrecoverable
  filled_ += size;
}

void FrameDecoder::Feed(const uint8_t* data, std::size_t size) {
  while (size > 0) {
    const std::span<uint8_t> window = WriteWindow();
    const std::size_t n = std::min(size, window.size());
    std::memcpy(window.data(), data, n);
    Commit(n);
    data += n;
    size -= n;
  }
}

DecodeStatus FrameDecoder::Fail(ErrorCode code, const char* message) {
  failed_ = true;
  error_code_ = code;
  error_ = message;
  return DecodeStatus::kBadFrame;
}

DecodeStatus FrameDecoder::Next(Frame* out) {
  if (failed_) return DecodeStatus::kBadFrame;
  if (in_place_bytes_ != 0) {
    if (in_place_received_ < in_place_bytes_) return DecodeStatus::kNeedMore;
    // Strip the trailing trace id, as for a buffered frame below.
    const std::size_t message_length =
        in_place_traced_ ? in_place_bytes_ - kTraceIdBytes : in_place_bytes_;
    out->opcode = in_place_.opcode;
    out->trace_id = in_place_traced_
                        ? LoadLittleEndian<uint64_t>(
                              in_place_.payload.data() + message_length)
                        : 0;
    in_place_.payload.erase(
        in_place_.payload.begin() + static_cast<std::ptrdiff_t>(message_length),
        in_place_.payload.end());
    out->payload = std::move(in_place_.payload);
    in_place_bytes_ = 0;
    in_place_received_ = 0;
    return DecodeStatus::kFrame;
  }
  const std::size_t available = filled_ - consumed_;
  if (available < kFrameHeaderBytes) return DecodeStatus::kNeedMore;
  const std::span<const uint8_t> unread =
      std::span(buffer_).subspan(consumed_, available);
  const FrameHeader header = ReadFrameHeader(unread);
  // Header validation happens before the payload is required to be
  // present: an oversized declared length is rejected here, while only
  // kFrameHeaderBytes may have arrived.
  if (header.version != kProtocolVersion) {
    return Fail(ErrorCode::kBadFrameHeader, "unsupported protocol version");
  }
  if ((header.flags & ~kKnownFrameFlags) != 0) {
    return Fail(ErrorCode::kBadFrameHeader, "reserved frame-header bits set");
  }
  const bool traced = (header.flags & kFrameFlagTraceId) != 0;
  if (traced && header.payload_length < kTraceIdBytes) {
    return Fail(ErrorCode::kBadFrameHeader,
                "trace-id flag set but payload shorter than the id");
  }
  if (header.payload_length > kMaxFramePayloadBytes) {
    return Fail(ErrorCode::kFrameTooLarge,
                "frame payload length exceeds kMaxFramePayloadBytes");
  }
  const uint8_t* payload = unread.data() + kFrameHeaderBytes;
  const std::size_t received = available - kFrameHeaderBytes;
  if (received < header.payload_length) {
    if (header.payload_length - received > kWindowBytes) {
      // The rest is received in place: WriteWindow() now points into
      // this frame's own payload vector.
      in_place_.opcode = static_cast<Opcode>(header.opcode);
      in_place_.payload.reserve(header.payload_length);
      in_place_.payload.assign(payload, payload + received);
      in_place_bytes_ = header.payload_length;
      in_place_received_ = received;
      in_place_traced_ = traced;
      consumed_ = 0;
      filled_ = 0;
    }
    return DecodeStatus::kNeedMore;
  }
  out->opcode = static_cast<Opcode>(header.opcode);
  // The trailing trace id is framing, not message: strip it here so the
  // typed decoders (which reject trailing bytes) never see it.
  const std::size_t message_length =
      traced ? header.payload_length - kTraceIdBytes : header.payload_length;
  out->payload.assign(payload, payload + message_length);
  out->trace_id =
      traced ? LoadLittleEndian<uint64_t>(payload + message_length) : 0;
  consumed_ += kFrameHeaderBytes + header.payload_length;
  if (consumed_ == filled_) {
    consumed_ = 0;
    filled_ = 0;
  }
  return DecodeStatus::kFrame;
}

// --- Typed encode/decode --------------------------------------------------
//
// Every Decode* ends with reader.AtEnd(): a message must consume its
// payload exactly, so trailing bytes mean a malformed or mismatched frame.

std::vector<uint8_t> EncodePing() { return EncodeFrame(Opcode::kPing, {}); }
std::vector<uint8_t> EncodeShutdown() {
  return EncodeFrame(Opcode::kShutdown, {});
}
std::vector<uint8_t> EncodeListSketches() {
  return EncodeFrame(Opcode::kListSketches, {});
}
std::vector<uint8_t> EncodeStatsz() {
  return EncodeFrame(Opcode::kStatsz, {});
}
std::vector<uint8_t> EncodeTraceDump() {
  return EncodeFrame(Opcode::kTraceDump, {});
}

std::vector<uint8_t> EncodeCreateSketch(const CreateSketchRequest& request) {
  std::vector<uint8_t> frame = BeginFrame(Opcode::kCreateSketch);
  AppendName(request.name, &frame);
  AppendU8(static_cast<uint8_t>(request.type), &frame);
  for (uint64_t param : request.params) AppendU64(param, &frame);
  return SealFrame(std::move(frame));
}

bool DecodeCreateSketch(const Frame& frame, CreateSketchRequest* out) {
  if (frame.opcode != Opcode::kCreateSketch) return false;
  ByteReader reader(frame.payload);
  uint8_t raw_type = 0;
  if (!TryReadName(&reader, &out->name) || !reader.ReadU8(&raw_type)) {
    return false;
  }
  out->type = static_cast<SketchType>(raw_type);
  return reader.ReadWords(out->params) && reader.AtEnd();
}

std::vector<uint8_t> EncodeIngestSpan(const std::string& name,
                                      UpdateSpan updates) {
  SKETCH_CHECK_MSG(updates.size() <= kMaxBatchUpdates,
                   "ingest batch exceeds kMaxBatchUpdates");
  std::vector<uint8_t> frame = BeginFrame(
      Opcode::kIngest, 2 + name.size() + 4 + kUpdateWireBytes * updates.size());
  AppendName(name, &frame);
  AppendU32(static_cast<uint32_t>(updates.size()), &frame);
  for (const StreamUpdate& update : updates) {
    AppendU64(update.item, &frame);
    AppendI64(update.delta, &frame);
  }
  return SealFrame(std::move(frame));
}

std::vector<uint8_t> EncodeIngest(const IngestRequest& request) {
  return EncodeIngestSpan(request.name, UpdateSpan(request.updates));
}

void IngestRequestView::CopyUpdatesTo(StreamUpdate* out) const {
  CopyWireUpdates(updates, out);
}

bool DecodeIngest(const Frame& frame, IngestRequestView* out) {
  return ParseIngest(frame, out);
}

bool DecodeIngest(const Frame& frame, IngestRequest* out) {
  return ParseIngest(frame, out);
}

std::vector<uint8_t> EncodePointQuery(const PointQueryRequest& request) {
  std::vector<uint8_t> frame = BeginFrame(Opcode::kPointQuery);
  AppendName(request.name, &frame);
  AppendU64(request.item, &frame);
  return SealFrame(std::move(frame));
}

bool DecodePointQuery(const Frame& frame, PointQueryRequest* out) {
  if (frame.opcode != Opcode::kPointQuery) return false;
  ByteReader reader(frame.payload);
  return TryReadName(&reader, &out->name) && reader.ReadU64(&out->item) &&
         reader.AtEnd();
}

std::vector<uint8_t> EncodePointQueryBatch(
    const PointQueryBatchRequest& request) {
  SKETCH_CHECK_MSG(request.items.size() <= kMaxBatchQueryItems,
                   "point-query batch exceeds kMaxBatchQueryItems");
  std::vector<uint8_t> frame =
      BeginFrame(Opcode::kPointQueryBatch,
                 2 + request.name.size() + 4 + 8 * request.items.size());
  AppendName(request.name, &frame);
  AppendU32(static_cast<uint32_t>(request.items.size()), &frame);
  AppendWords(request.items, &frame);
  return SealFrame(std::move(frame));
}

bool DecodePointQueryBatch(const Frame& frame, PointQueryBatchRequest* out) {
  if (frame.opcode != Opcode::kPointQueryBatch) return false;
  ByteReader reader(frame.payload);
  uint32_t count = 0;
  if (!TryReadName(&reader, &out->name) ||
      !TryReadCount(&reader, kMaxBatchQueryItems, 8, &count)) {
    return false;
  }
  out->items.resize(count);
  return reader.ReadWords(out->items) && reader.AtEnd();
}

std::vector<uint8_t> EncodeHeavyHitters(const HeavyHittersRequest& request) {
  std::vector<uint8_t> frame = BeginFrame(Opcode::kHeavyHitters);
  AppendName(request.name, &frame);
  AppendF64(request.phi, &frame);
  return SealFrame(std::move(frame));
}

bool DecodeHeavyHitters(const Frame& frame, HeavyHittersRequest* out) {
  if (frame.opcode != Opcode::kHeavyHitters) return false;
  ByteReader reader(frame.payload);
  return TryReadName(&reader, &out->name) && reader.ReadF64(&out->phi) &&
         reader.AtEnd();
}

std::vector<uint8_t> EncodeInnerProduct(const InnerProductRequest& request) {
  std::vector<uint8_t> frame = BeginFrame(Opcode::kInnerProduct);
  AppendName(request.left, &frame);
  AppendName(request.right, &frame);
  return SealFrame(std::move(frame));
}

bool DecodeInnerProduct(const Frame& frame, InnerProductRequest* out) {
  if (frame.opcode != Opcode::kInnerProduct) return false;
  ByteReader reader(frame.payload);
  return TryReadName(&reader, &out->left) &&
         TryReadName(&reader, &out->right) && reader.AtEnd();
}

std::vector<uint8_t> EncodeDropSketch(const NamedRequest& request) {
  std::vector<uint8_t> frame = BeginFrame(Opcode::kDropSketch);
  AppendName(request.name, &frame);
  return SealFrame(std::move(frame));
}

std::vector<uint8_t> EncodeSnapshot(const NamedRequest& request) {
  std::vector<uint8_t> frame = BeginFrame(Opcode::kSnapshot);
  AppendName(request.name, &frame);
  return SealFrame(std::move(frame));
}

bool DecodeNamedRequest(const Frame& frame, NamedRequest* out) {
  if (frame.opcode != Opcode::kDropSketch &&
      frame.opcode != Opcode::kSnapshot) {
    return false;
  }
  ByteReader reader(frame.payload);
  return TryReadName(&reader, &out->name) && reader.AtEnd();
}

std::vector<uint8_t> EncodeRestore(const RestoreRequest& request) {
  std::vector<uint8_t> frame = BeginFrame(
      Opcode::kRestore, 2 + request.name.size() + 1 + 4 + request.blob.size());
  AppendName(request.name, &frame);
  AppendU8(static_cast<uint8_t>(request.type), &frame);
  AppendBlob(request.blob, &frame);
  return SealFrame(std::move(frame));
}

bool DecodeRestore(const Frame& frame, RestoreRequestView* out) {
  return ParseRestore(frame, out);
}

bool DecodeRestore(const Frame& frame, RestoreRequest* out) {
  return ParseRestore(frame, out);
}

std::vector<uint8_t> EncodeOk() { return EncodeFrame(Opcode::kOk, {}); }
std::vector<uint8_t> EncodePong() { return EncodeFrame(Opcode::kPong, {}); }

std::vector<uint8_t> EncodeError(const ErrorResponse& response) {
  std::vector<uint8_t> frame = BeginFrame(Opcode::kError);
  AppendU16(static_cast<uint16_t>(response.code), &frame);
  // Error text is bounded like a name so a response always fits one frame.
  std::string message = response.message;
  if (message.size() > kMaxNameBytes) message.resize(kMaxNameBytes);
  AppendName(message, &frame);
  return SealFrame(std::move(frame));
}

bool DecodeError(const Frame& frame, ErrorResponse* out) {
  if (frame.opcode != Opcode::kError) return false;
  ByteReader reader(frame.payload);
  uint16_t raw_code = 0;
  if (!reader.ReadU16(&raw_code)) return false;
  out->code = static_cast<ErrorCode>(raw_code);
  return TryReadName(&reader, &out->message) && reader.AtEnd();
}

std::vector<uint8_t> EncodePointValue(const PointValueResponse& response) {
  std::vector<uint8_t> frame = BeginFrame(Opcode::kPointValue);
  AppendPointValue(response, &frame);
  return SealFrame(std::move(frame));
}

bool DecodePointValue(const Frame& frame, PointValueResponse* out) {
  if (frame.opcode != Opcode::kPointValue) return false;
  ByteReader reader(frame.payload);
  return TryReadPointValue(&reader, out) && reader.AtEnd();
}

std::vector<uint8_t> EncodeValueBatch(const ValueBatchResponse& response) {
  SKETCH_CHECK_MSG(response.values.size() <= kMaxBatchQueryItems,
                   "value batch exceeds kMaxBatchQueryItems");
  std::vector<uint8_t> frame =
      BeginFrame(Opcode::kValueBatch, 4 + 17 * response.values.size());
  AppendU32(static_cast<uint32_t>(response.values.size()), &frame);
  for (const PointValueResponse& value : response.values) {
    AppendPointValue(value, &frame);
  }
  return SealFrame(std::move(frame));
}

bool DecodeValueBatch(const Frame& frame, ValueBatchResponse* out) {
  if (frame.opcode != Opcode::kValueBatch) return false;
  ByteReader reader(frame.payload);
  // 17 bytes per entry: i64 estimate + f64 bound + u8 kind.
  uint32_t count = 0;
  if (!TryReadCount(&reader, kMaxBatchQueryItems, 17, &count)) return false;
  out->values.resize(count);
  for (PointValueResponse& value : out->values) {
    if (!TryReadPointValue(&reader, &value)) return false;
  }
  return reader.AtEnd();
}

std::vector<uint8_t> EncodeItems(const ItemsResponse& response) {
  SKETCH_CHECK_MSG(response.items.size() <= kMaxHeavyHitterItems,
                   "items response exceeds kMaxHeavyHitterItems");
  std::vector<uint8_t> frame =
      BeginFrame(Opcode::kItems, 4 + 8 * response.items.size());
  AppendU32(static_cast<uint32_t>(response.items.size()), &frame);
  AppendWords(response.items, &frame);
  return SealFrame(std::move(frame));
}

bool DecodeItems(const Frame& frame, ItemsResponse* out) {
  if (frame.opcode != Opcode::kItems) return false;
  ByteReader reader(frame.payload);
  uint32_t count = 0;
  if (!TryReadCount(&reader, kMaxHeavyHitterItems, 8, &count)) return false;
  out->items.resize(count);
  return reader.ReadWords(out->items) && reader.AtEnd();
}

std::vector<uint8_t> EncodeBlob(
    std::size_t size_hint,
    const std::function<void(std::vector<uint8_t>*)>& append) {
  std::vector<uint8_t> frame = BeginFrame(Opcode::kBlob, 4 + size_hint);
  AppendBlobWith(append, &frame);
  return SealFrame(std::move(frame));
}

std::vector<uint8_t> EncodeBlob(const BlobResponse& response) {
  return EncodeBlob(response.bytes.size(), [&](std::vector<uint8_t>* out) {
    out->insert(out->end(), response.bytes.begin(), response.bytes.end());
  });
}

bool DecodeBlob(const Frame& frame, BlobResponse* out) {
  if (frame.opcode != Opcode::kBlob) return false;
  ByteReader reader(frame.payload);
  return TryReadBlob(&reader, &out->bytes) && reader.AtEnd();
}

// Text payloads (statsz JSON, trace JSON, listings) can exceed the name
// cap, so they ride as a length-prefixed blob.
std::vector<uint8_t> EncodeText(const TextResponse& response) {
  std::vector<uint8_t> frame =
      BeginFrame(Opcode::kText, 4 + response.text.size());
  AppendBlob(response.text, &frame);
  return SealFrame(std::move(frame));
}

bool DecodeText(const Frame& frame, TextResponse* out) {
  if (frame.opcode != Opcode::kText) return false;
  ByteReader reader(frame.payload);
  return TryReadBlob(&reader, &out->text) && reader.AtEnd();
}

std::vector<uint8_t> EncodeIngestAck(const IngestAckResponse& response) {
  std::vector<uint8_t> frame = BeginFrame(Opcode::kIngestAck);
  AppendU64(response.accepted, &frame);
  return SealFrame(std::move(frame));
}

bool DecodeIngestAck(const Frame& frame, IngestAckResponse* out) {
  if (frame.opcode != Opcode::kIngestAck) return false;
  ByteReader reader(frame.payload);
  return reader.ReadU64(&out->accepted) && reader.AtEnd();
}

bool IsKnownRequestOpcode(uint8_t raw) {
  return raw >= static_cast<uint8_t>(Opcode::kPing) &&
         raw <= static_cast<uint8_t>(Opcode::kPointQueryBatch);
}

const char* OpcodeName(Opcode opcode) {
  switch (opcode) {
    case Opcode::kPing: return "Ping";
    case Opcode::kCreateSketch: return "CreateSketch";
    case Opcode::kDropSketch: return "DropSketch";
    case Opcode::kIngest: return "Ingest";
    case Opcode::kPointQuery: return "PointQuery";
    case Opcode::kHeavyHitters: return "HeavyHitters";
    case Opcode::kInnerProduct: return "InnerProduct";
    case Opcode::kSnapshot: return "Snapshot";
    case Opcode::kRestore: return "Restore";
    case Opcode::kListSketches: return "ListSketches";
    case Opcode::kStatsz: return "Statsz";
    case Opcode::kTraceDump: return "TraceDump";
    case Opcode::kShutdown: return "Shutdown";
    case Opcode::kPointQueryBatch: return "PointQueryBatch";
    case Opcode::kOk: return "Ok";
    case Opcode::kError: return "Error";
    case Opcode::kPointValue: return "PointValue";
    case Opcode::kItems: return "Items";
    case Opcode::kBlob: return "Blob";
    case Opcode::kText: return "Text";
    case Opcode::kPong: return "Pong";
    case Opcode::kIngestAck: return "IngestAck";
    case Opcode::kValueBatch: return "ValueBatch";
  }
  return "Unknown";
}

const char* SketchTypeName(SketchType type) {
  switch (type) {
    case SketchType::kCountMin: return "CountMin";
    case SketchType::kCountSketch: return "CountSketch";
    case SketchType::kBloom: return "Bloom";
    case SketchType::kStreamSummary: return "StreamSummary";
    case SketchType::kShardedCountMin: return "ShardedCountMin";
  }
  return "Unknown";
}

}  // namespace sketch::server
