#ifndef SKETCH_SERVER_CLIENT_H_
#define SKETCH_SERVER_CLIENT_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/prng.h"
#include "server/protocol.h"
#include "server/transport.h"
#include "stream/update.h"

namespace sketch::server {

/// Synchronous client for the sketch daemon: one request in flight at a
/// time over any ByteStream (a socket, or a FaultyStream around one). Every call returns
/// false on transport failure, protocol violation, or a server error
/// response; last_error() explains the most recent failure.
class SketchClient {
 public:
  explicit SketchClient(std::unique_ptr<ByteStream> stream)
      : stream_(std::move(stream)) {}

  bool Ping();
  bool CreateSketch(const std::string& name, SketchType type,
                    const std::array<uint64_t, 5>& params);
  bool DropSketch(const std::string& name);
  bool Ingest(const std::string& name, UpdateSpan updates,
              uint64_t* accepted = nullptr);
  bool PointQuery(const std::string& name, uint64_t item,
                  PointValueResponse* out);
  /// Batched point query: one round trip for up to kMaxBatchQueryItems
  /// keys; *out holds one value per key in request order.
  bool PointQueryBatch(const std::string& name,
                       const std::vector<uint64_t>& items,
                       std::vector<PointValueResponse>* out);
  bool HeavyHitters(const std::string& name, double phi,
                    std::vector<uint64_t>* out);
  bool InnerProduct(const std::string& left, const std::string& right,
                    int64_t* out);
  bool Snapshot(const std::string& name, std::vector<uint8_t>* blob);
  bool Restore(const std::string& name, SketchType type,
               const std::vector<uint8_t>& blob);
  bool ListSketches(std::string* json);
  bool Statsz(std::string* json);
  bool TraceDump(std::string* json);
  bool Shutdown();

  /// The server's error response from the last failed call, if any (code
  /// is kNone when the failure was transport-level).
  const ErrorResponse& last_error() const { return last_error_; }

  /// Stamps every `every`-th request frame with a wire trace id (see
  /// StampTraceId): 1 traces everything, 0 (the default) nothing. Ids are
  /// drawn deterministically from `seed`, so a scripted run produces the
  /// same ids every time and a test can look its span up by value.
  void SetTraceSampling(uint64_t every, uint64_t seed = 1) {
    trace_every_ = every;
    trace_rng_ = SplitMix64(seed);
    transact_count_ = 0;
  }

  /// Trace id stamped on the most recent request (0 if it was unsampled).
  uint64_t last_trace_id() const { return last_trace_id_; }

  void Close() { stream_->Close(); }

 private:
  /// Writes a request frame and blocks for the response frame. False on
  /// transport or framing failure.
  bool Transact(const std::vector<uint8_t>& request, Frame* response);

  /// Transact + map a kError response into last_error_.
  bool TransactChecked(const std::vector<uint8_t>& request, Frame* response);

  /// For requests whose success response is a bare kOk.
  bool TransactExpectOk(const std::vector<uint8_t>& request);

  std::unique_ptr<ByteStream> stream_;
  FrameDecoder decoder_;
  ErrorResponse last_error_;
  uint64_t trace_every_ = 0;
  SplitMix64 trace_rng_{0};
  uint64_t transact_count_ = 0;
  uint64_t last_trace_id_ = 0;
};

}  // namespace sketch::server

#endif  // SKETCH_SERVER_CLIENT_H_
