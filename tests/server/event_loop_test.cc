// Integration tests for the E26 epoll front door over real kernel TCP
// sockets: many concurrent clients against one daemon, bit-identity of
// the served sketch with a sequential replay, pipelined-frame batching,
// slow-client backpressure/eviction, fragmented frames, and shutdown
// draining. Tests that specifically require the epoll transport skip
// themselves when SKETCH_FORCE_BLOCKING=1 pins the daemon to the
// thread-per-connection path; the rest run under both transports (the
// forced-blocking ctest re-run covers the fallback).

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/transport.h"
#include "sketch/count_min.h"
#include "stream/update.h"

namespace sketch::server {
namespace {

constexpr int kClients = 64;
constexpr uint64_t kBatchesPerClient = 8;
constexpr uint64_t kBatchSize = 128;
constexpr uint64_t kUniverse = 1 << 12;

bool ForcedBlocking() {
  const char* value = std::getenv("SKETCH_FORCE_BLOCKING");
  return value != nullptr && std::strcmp(value, "1") == 0;
}

/// Deterministic batch for (client, step): the full multiset is
/// reproducible for the sequential replay.
std::vector<StreamUpdate> BatchFor(int client, uint64_t step) {
  std::vector<StreamUpdate> batch;
  batch.reserve(kBatchSize);
  for (uint64_t i = 0; i < kBatchSize; ++i) {
    const uint64_t n =
        static_cast<uint64_t>(client) * 1000003 + step * 8191 + i;
    batch.push_back({n % kUniverse, static_cast<int64_t>(n % 5) + 1});
  }
  return batch;
}

/// Reads frames off `stream` until `count` responses have been decoded
/// (or the stream ends, which fails the calling test).
bool ReadResponses(ByteStream* stream, std::size_t count,
                   std::vector<Frame>* out) {
  FrameDecoder decoder;
  uint8_t chunk[4096];
  while (out->size() < count) {
    Frame frame;
    const DecodeStatus status = decoder.Next(&frame);
    if (status == DecodeStatus::kFrame) {
      out->push_back(std::move(frame));
      continue;
    }
    if (status == DecodeStatus::kBadFrame) return false;
    const std::ptrdiff_t n = stream->Read(chunk, sizeof(chunk));
    if (n <= 0) return false;
    decoder.Feed(chunk, static_cast<std::size_t>(n));
  }
  return true;
}

TEST(EventLoopTest, SixtyFourConcurrentClientsMatchSequentialReplay) {
  // 64 clients over real TCP, all ingesting into one shared CountMin
  // while interleaving point queries. The sketch is linear, so the final
  // snapshot must be bit-identical to a sequential replay regardless of
  // arrival order — under either transport.
  SketchServer server({});
  ASSERT_TRUE(server.Start());
  EXPECT_EQ(server.using_event_loop(), !ForcedBlocking());

  {
    auto admin = ConnectTcp("127.0.0.1", server.port());
    ASSERT_NE(admin, nullptr);
    SketchClient client(std::move(admin));
    ASSERT_TRUE(client.CreateSketch("shared", SketchType::kCountMin,
                                    {1024, 4, 77, 0, 0}));
  }

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([c, port = server.port()] {
      auto stream = ConnectTcp("127.0.0.1", port);
      ASSERT_NE(stream, nullptr);
      SketchClient client(std::move(stream));
      for (uint64_t step = 0; step < kBatchesPerClient; ++step) {
        const std::vector<StreamUpdate> batch = BatchFor(c, step);
        uint64_t accepted = 0;
        ASSERT_TRUE(client.Ingest("shared", UpdateSpan(batch), &accepted));
        ASSERT_EQ(accepted, batch.size());
        PointValueResponse value;
        ASSERT_TRUE(client.PointQuery("shared", step % kUniverse, &value));
        ASSERT_GE(value.estimate, 0);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  auto stream = ConnectTcp("127.0.0.1", server.port());
  ASSERT_NE(stream, nullptr);
  SketchClient client(std::move(stream));
  std::vector<uint8_t> served;
  ASSERT_TRUE(client.Snapshot("shared", &served));

  CountMinSketch local(1024, 4, 77);
  for (int c = 0; c < kClients; ++c) {
    for (uint64_t step = 0; step < kBatchesPerClient; ++step) {
      local.UpdateAll(BatchFor(c, step));
    }
  }
  EXPECT_EQ(served, local.Serialize());
  server.Stop();
}

TEST(EventLoopTest, PipelinedFramesEachGetAnOrderedResponse) {
  // One write carrying 16 ingest frames plus a trailing ping: the server
  // must answer every frame, in order — the epoll path applies the whole
  // ingest run under one entry lock but still acks per frame.
  SketchServer server({});
  ASSERT_TRUE(server.Start());
  auto stream = ConnectTcp("127.0.0.1", server.port());
  ASSERT_NE(stream, nullptr);

  CreateSketchRequest create;
  create.name = "pipe";
  create.type = SketchType::kCountMin;
  create.params = {512, 4, 9, 0, 0};
  ASSERT_TRUE(WriteAll(stream.get(), EncodeCreateSketch(create)));
  std::vector<Frame> created;
  ASSERT_TRUE(ReadResponses(stream.get(), 1, &created));
  ASSERT_EQ(created[0].opcode, Opcode::kOk);

  constexpr std::size_t kPipelined = 16;
  std::vector<uint8_t> wire;
  for (std::size_t i = 0; i < kPipelined; ++i) {
    IngestRequest ingest;
    ingest.name = "pipe";
    ingest.updates = {{i, 1}, {i + 1, 2}};
    const std::vector<uint8_t> frame = EncodeIngest(ingest);
    wire.insert(wire.end(), frame.begin(), frame.end());
  }
  const std::vector<uint8_t> ping = EncodePing();
  wire.insert(wire.end(), ping.begin(), ping.end());
  ASSERT_TRUE(WriteAll(stream.get(), wire));

  std::vector<Frame> responses;
  ASSERT_TRUE(ReadResponses(stream.get(), kPipelined + 1, &responses));
  for (std::size_t i = 0; i < kPipelined; ++i) {
    IngestAckResponse ack;
    ASSERT_TRUE(DecodeIngestAck(responses[i], &ack)) << "frame " << i;
    EXPECT_EQ(ack.accepted, 2u);
  }
  EXPECT_EQ(responses[kPipelined].opcode, Opcode::kPong);
  server.Stop();
}

TEST(EventLoopTest, SlowClientBackpressureEvictsTheConnection) {
  // A client that pipelines large batched queries without ever reading
  // responses must be evicted once its outbound backlog exceeds the
  // configured cap — not buffered without bound. Epoll-path specific:
  // the blocking transport applies backpressure by blocking the
  // connection thread in write() instead.
  if (ForcedBlocking()) {
    GTEST_SKIP() << "eviction is an event-loop behavior";
  }
  SketchServer::Options options;
  options.max_outbound_bytes = 16 * 1024;  // tiny cap: evict quickly
  options.io_threads = 1;
  SketchServer server(options);
  ASSERT_TRUE(server.Start());
  ASSERT_TRUE(server.using_event_loop());

  {
    auto admin = ConnectTcp("127.0.0.1", server.port());
    ASSERT_NE(admin, nullptr);
    SketchClient client(std::move(admin));
    ASSERT_TRUE(client.CreateSketch("victim", SketchType::kCountMin,
                                    {1024, 4, 3, 0, 0}));
  }

  auto stream = ConnectTcp("127.0.0.1", server.port());
  ASSERT_NE(stream, nullptr);
  // Each response to a 4096-key batch query is ~70 KiB — far past the
  // 16 KiB cap once the kernel socket buffers fill. Keep writing without
  // reading until the server gives up on us.
  PointQueryBatchRequest query;
  query.name = "victim";
  query.items.resize(4096);
  for (std::size_t i = 0; i < query.items.size(); ++i) query.items[i] = i;
  const std::vector<uint8_t> frame = EncodePointQueryBatch(query);
  bool write_failed = false;
  for (int i = 0; i < 512 && !write_failed; ++i) {
    write_failed = !WriteAll(stream.get(), frame);
  }
  // The server's receive buffer may have taken every query above (its
  // kernel limit can exceed their 16 MiB), so the writes need not have
  // failed yet. Still without reading, keep pinging: the server answers
  // only after it reads, its answers back up, and once it has evicted
  // us a write into the closed connection fails. The deadline turns a
  // missing eviction into a failure instead of a hang.
  const std::vector<uint8_t> ping = EncodePing();
  for (int i = 0; i < 3000 && !write_failed; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    write_failed = !WriteAll(stream.get(), ping);
  }
  ASSERT_TRUE(write_failed) << "the server never evicted the connection";
  // The server has closed the connection: draining what it already sent
  // ends in EOF/reset rather than blocking forever.
  uint8_t sink[64 * 1024];
  std::ptrdiff_t n;
  do {
    n = stream->Read(sink, sizeof(sink));
  } while (n > 0);
  EXPECT_LE(n, 0);
  server.Stop();
}

TEST(EventLoopTest, SingleByteWritesStillDecodeAndServe) {
  // Frames dribbled one byte per send exercise the decoder's resumption
  // inside the event loop (every read boundary splits a frame).
  SketchServer server({});
  ASSERT_TRUE(server.Start());
  auto stream = ConnectTcp("127.0.0.1", server.port());
  ASSERT_NE(stream, nullptr);

  CreateSketchRequest create;
  create.name = "frag";
  create.type = SketchType::kCountMin;
  create.params = {256, 4, 5, 0, 0};
  std::vector<uint8_t> wire = EncodeCreateSketch(create);
  IngestRequest ingest;
  ingest.name = "frag";
  ingest.updates = {{5, 10}};
  const std::vector<uint8_t> ingest_frame = EncodeIngest(ingest);
  wire.insert(wire.end(), ingest_frame.begin(), ingest_frame.end());
  PointQueryRequest query;
  query.name = "frag";
  query.item = 5;
  const std::vector<uint8_t> query_frame = EncodePointQuery(query);
  wire.insert(wire.end(), query_frame.begin(), query_frame.end());

  for (const uint8_t byte : wire) {
    ASSERT_TRUE(WriteAll(stream.get(), &byte, 1));
  }
  std::vector<Frame> responses;
  ASSERT_TRUE(ReadResponses(stream.get(), 3, &responses));
  EXPECT_EQ(responses[0].opcode, Opcode::kOk);
  IngestAckResponse ack;
  ASSERT_TRUE(DecodeIngestAck(responses[1], &ack));
  EXPECT_EQ(ack.accepted, 1u);
  PointValueResponse value;
  ASSERT_TRUE(DecodePointValue(responses[2], &value));
  EXPECT_GE(value.estimate, 10);
  server.Stop();
}

TEST(EventLoopTest, ShutdownFrameDrainsAndStopsTheServer) {
  SketchServer server({});
  ASSERT_TRUE(server.Start());
  auto stream = ConnectTcp("127.0.0.1", server.port());
  ASSERT_NE(stream, nullptr);
  SketchClient client(std::move(stream));
  ASSERT_TRUE(client.Ping());
  EXPECT_TRUE(client.Shutdown());  // response delivered before the close
  server.Wait();                   // must return: the daemon drained
}

TEST(EventLoopTest, FramingViolationGetsErrorThenClose) {
  SketchServer server({});
  ASSERT_TRUE(server.Start());
  auto stream = ConnectTcp("127.0.0.1", server.port());
  ASSERT_NE(stream, nullptr);

  // A header claiming a 4 GiB payload: rejected from the header alone.
  const uint8_t bad_header[8] = {0xff, 0xff, 0xff, 0xff, 0x01, 0x01, 0, 0};
  ASSERT_TRUE(WriteAll(stream.get(), bad_header, sizeof(bad_header)));
  std::vector<Frame> responses;
  ASSERT_TRUE(ReadResponses(stream.get(), 1, &responses));
  ErrorResponse error;
  ASSERT_TRUE(DecodeError(responses[0], &error));
  EXPECT_EQ(error.code, ErrorCode::kFrameTooLarge);
  // After the best-effort diagnostic the server closes the stream.
  uint8_t sink[256];
  std::ptrdiff_t n;
  do {
    n = stream->Read(sink, sizeof(sink));
  } while (n > 0);
  EXPECT_LE(n, 0);
  server.Stop();
}

}  // namespace
}  // namespace sketch::server
