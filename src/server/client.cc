#include "server/client.h"

#include <span>

namespace sketch::server {

namespace {
ErrorResponse TransportError(const std::string& message) {
  ErrorResponse error;
  error.code = ErrorCode::kNone;
  error.message = message;
  return error;
}
}  // namespace

bool SketchClient::Transact(const std::vector<uint8_t>& request,
                            Frame* response) {
  last_trace_id_ = 0;
  bool sent = false;
  if (trace_every_ != 0 && transact_count_++ % trace_every_ == 0) {
    // Sampled request: stamp a nonzero trace id onto a copy of the frame
    // (the encoded request may be reused by the caller).
    uint64_t id = trace_rng_.Next();
    while (id == 0) id = trace_rng_.Next();
    std::vector<uint8_t> stamped = request;
    StampTraceId(&stamped, id);
    last_trace_id_ = id;
    sent = WriteAll(stream_.get(), stamped);
  } else {
    sent = WriteAll(stream_.get(), request);
  }
  if (!sent) {
    last_error_ = TransportError("write failed (connection lost?)");
    return false;
  }
  while (true) {
    const DecodeStatus status = decoder_.Next(response);
    if (status == DecodeStatus::kFrame) return true;
    if (status == DecodeStatus::kBadFrame) {
      last_error_ = TransportError("framing violation in server response");
      return false;
    }
    const std::span<uint8_t> window = decoder_.WriteWindow();
    const std::ptrdiff_t n = stream_->Read(window.data(), window.size());
    if (n <= 0) {
      last_error_ = TransportError("connection closed before response");
      return false;
    }
    decoder_.Commit(static_cast<std::size_t>(n));
  }
}

bool SketchClient::TransactChecked(const std::vector<uint8_t>& request,
                                   Frame* response) {
  if (!Transact(request, response)) return false;
  if (response->opcode == Opcode::kError) {
    if (!DecodeError(*response, &last_error_)) {
      last_error_ = TransportError("undecodable error response");
    }
    return false;
  }
  return true;
}

bool SketchClient::TransactExpectOk(const std::vector<uint8_t>& request) {
  Frame response;
  if (!TransactChecked(request, &response)) return false;
  if (response.opcode != Opcode::kOk) {
    last_error_ = TransportError("unexpected response opcode");
    return false;
  }
  return true;
}

bool SketchClient::Ping() {
  Frame response;
  return TransactChecked(EncodePing(), &response) &&
         response.opcode == Opcode::kPong;
}

bool SketchClient::CreateSketch(const std::string& name, SketchType type,
                                const std::array<uint64_t, 5>& params) {
  CreateSketchRequest request;
  request.name = name;
  request.type = type;
  request.params = params;
  return TransactExpectOk(EncodeCreateSketch(request));
}

bool SketchClient::DropSketch(const std::string& name) {
  NamedRequest request;
  request.name = name;
  return TransactExpectOk(EncodeDropSketch(request));
}

bool SketchClient::Ingest(const std::string& name, UpdateSpan updates,
                          uint64_t* accepted) {
  Frame response;
  if (!TransactChecked(EncodeIngestSpan(name, updates), &response)) {
    return false;
  }
  IngestAckResponse ack;
  if (!DecodeIngestAck(response, &ack)) {
    last_error_ = TransportError("undecodable ingest ack");
    return false;
  }
  if (accepted != nullptr) *accepted = ack.accepted;
  return true;
}

bool SketchClient::PointQuery(const std::string& name, uint64_t item,
                              PointValueResponse* out) {
  PointQueryRequest request;
  request.name = name;
  request.item = item;
  Frame response;
  if (!TransactChecked(EncodePointQuery(request), &response)) return false;
  if (!DecodePointValue(response, out)) {
    last_error_ = TransportError("undecodable point-value response");
    return false;
  }
  return true;
}

bool SketchClient::PointQueryBatch(const std::string& name,
                                   const std::vector<uint64_t>& items,
                                   std::vector<PointValueResponse>* out) {
  PointQueryBatchRequest request;
  request.name = name;
  request.items = items;
  Frame response;
  if (!TransactChecked(EncodePointQueryBatch(request), &response)) {
    return false;
  }
  ValueBatchResponse values;
  if (!DecodeValueBatch(response, &values) ||
      values.values.size() != items.size()) {
    last_error_ = TransportError("undecodable value-batch response");
    return false;
  }
  *out = std::move(values.values);
  return true;
}

bool SketchClient::HeavyHitters(const std::string& name, double phi,
                                std::vector<uint64_t>* out) {
  HeavyHittersRequest request;
  request.name = name;
  request.phi = phi;
  Frame response;
  if (!TransactChecked(EncodeHeavyHitters(request), &response)) return false;
  ItemsResponse items;
  if (!DecodeItems(response, &items)) {
    last_error_ = TransportError("undecodable items response");
    return false;
  }
  *out = std::move(items.items);
  return true;
}

bool SketchClient::InnerProduct(const std::string& left,
                                const std::string& right, int64_t* out) {
  InnerProductRequest request;
  request.left = left;
  request.right = right;
  Frame response;
  if (!TransactChecked(EncodeInnerProduct(request), &response)) return false;
  PointValueResponse value;
  if (!DecodePointValue(response, &value)) {
    last_error_ = TransportError("undecodable inner-product response");
    return false;
  }
  *out = value.estimate;
  return true;
}

bool SketchClient::Snapshot(const std::string& name,
                            std::vector<uint8_t>* blob) {
  NamedRequest request;
  request.name = name;
  Frame response;
  if (!TransactChecked(EncodeSnapshot(request), &response)) return false;
  BlobResponse payload;
  if (!DecodeBlob(response, &payload)) {
    last_error_ = TransportError("undecodable blob response");
    return false;
  }
  *blob = std::move(payload.bytes);
  return true;
}

bool SketchClient::Restore(const std::string& name, SketchType type,
                           const std::vector<uint8_t>& blob) {
  RestoreRequest request;
  request.name = name;
  request.type = type;
  request.blob = blob;
  return TransactExpectOk(EncodeRestore(request));
}

namespace {
bool DecodeTextInto(const Frame& response, std::string* out) {
  TextResponse text;
  if (!DecodeText(response, &text)) return false;
  *out = std::move(text.text);
  return true;
}
}  // namespace

bool SketchClient::ListSketches(std::string* json) {
  Frame response;
  if (!TransactChecked(EncodeListSketches(), &response)) return false;
  if (!DecodeTextInto(response, json)) {
    last_error_ = TransportError("undecodable text response");
    return false;
  }
  return true;
}

bool SketchClient::Statsz(std::string* json) {
  Frame response;
  if (!TransactChecked(EncodeStatsz(), &response)) return false;
  if (!DecodeTextInto(response, json)) {
    last_error_ = TransportError("undecodable text response");
    return false;
  }
  return true;
}

bool SketchClient::TraceDump(std::string* json) {
  Frame response;
  if (!TransactChecked(EncodeTraceDump(), &response)) return false;
  if (!DecodeTextInto(response, json)) {
    last_error_ = TransportError("undecodable text response");
    return false;
  }
  return true;
}

bool SketchClient::Shutdown() { return TransactExpectOk(EncodeShutdown()); }

}  // namespace sketch::server
