// Integration tests for the daemon's epoll front door over real kernel
// TCP sockets: many concurrent clients against one daemon, bit-identity
// of the served sketch with a sequential replay, pipelined-frame
// batching, slow-client backpressure/eviction, fragmented frames,
// shutdown draining, a Stop that does not wait on a client that stopped
// reading, a pipeline served through small socket buffers on the served
// end, HTTP scrapes sharing an I/O thread with sketchwire traffic,
// the threads a started server runs, and a failed Start that leaves
// nothing running.

#include <dirent.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/prng.h"
#include "gtest/gtest.h"
#include "loop_harness.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/sketch_service.h"
#include "server/transport.h"
#include "sketch/count_min.h"
#include "stream/update.h"
#include "telemetry/metric_registry.h"

namespace sketch::server {
namespace {

constexpr int kClients = 64;
constexpr uint64_t kBatchesPerClient = 8;
constexpr uint64_t kBatchSize = 128;
constexpr uint64_t kUniverse = 1 << 12;

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
  // arrival order.
  SketchServer server({});
  ASSERT_TRUE(server.Start());

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

TEST(EventLoopTest, PipelinedSnapshotsAroundAPingComeBackInOrder) {
  // One write carrying Snapshot + Ping + Snapshot. The first response is
  // handed to the connection's outbound buffer without a copy, the other
  // two are appended behind it; all three must come back in order, and
  // both blobs must be the table's bytes.
  SketchServer server({});
  ASSERT_TRUE(server.Start());
  auto stream = ConnectTcp("127.0.0.1", server.port());
  ASSERT_NE(stream, nullptr);

  CreateSketchRequest create;
  create.name = "snap";
  create.type = SketchType::kCountMin;
  create.params = {8192, 4, 9, 0, 0};  // a 256 KiB table
  std::vector<StreamUpdate> updates;
  for (uint64_t i = 0; i < 4096; ++i) {
    updates.push_back({i * 7919, static_cast<int64_t>(i % 11) - 5});
  }
  std::vector<uint8_t> setup = EncodeCreateSketch(create);
  const std::vector<uint8_t> ingest =
      EncodeIngestSpan("snap", UpdateSpan(updates));
  setup.insert(setup.end(), ingest.begin(), ingest.end());
  ASSERT_TRUE(WriteAll(stream.get(), setup));
  std::vector<Frame> acks;
  ASSERT_TRUE(ReadResponses(stream.get(), 2, &acks));
  ASSERT_EQ(acks[0].opcode, Opcode::kOk);
  ASSERT_EQ(acks[1].opcode, Opcode::kIngestAck);

  const std::vector<uint8_t> snapshot = EncodeSnapshot({"snap"});
  const std::vector<uint8_t> ping = EncodePing();
  std::vector<uint8_t> wire = snapshot;
  wire.insert(wire.end(), ping.begin(), ping.end());
  wire.insert(wire.end(), snapshot.begin(), snapshot.end());
  ASSERT_TRUE(WriteAll(stream.get(), wire));

  std::vector<Frame> responses;
  ASSERT_TRUE(ReadResponses(stream.get(), 3, &responses));
  CountMinSketch replay(8192, 4, 9);
  replay.ApplyBatch(updates);
  const std::vector<uint8_t> expected = replay.Serialize();
  BlobResponse first;
  BlobResponse second;
  ASSERT_TRUE(DecodeBlob(responses[0], &first));
  EXPECT_EQ(responses[1].opcode, Opcode::kPong);
  ASSERT_TRUE(DecodeBlob(responses[2], &second));
  EXPECT_EQ(first.bytes, expected);
  EXPECT_EQ(second.bytes, expected);
  server.Stop();
}

TEST(EventLoopTest, SlowClientBackpressureEvictsTheConnection) {
  // A client that pipelines large batched queries without ever reading
  // responses must be evicted once its outbound backlog exceeds the
  // configured cap — not buffered without bound.
  SketchServer::Options options;
  options.max_outbound_bytes = 16 * 1024;  // tiny cap: evict quickly
  options.io_threads = 1;
  SketchServer server(options);
  ASSERT_TRUE(server.Start());

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

TEST(EventLoopTest, TwoMiBRestoreInAnyPiecesIsServedByteIdentically) {
  // A 2 MiB restore is received in place (straight into its frame's
  // payload) once its header is in. Sent one byte per write, or in
  // random pieces, with a ping pipelined behind it, the restored table
  // must snapshot back to the very bytes sent.
  SketchServer server({});
  ASSERT_TRUE(server.Start());
  CountMinSketch source(1 << 16, 4, 21);  // 2 MiB of counters
  std::vector<StreamUpdate> updates;
  for (uint64_t i = 0; i < 20000; ++i) {
    updates.push_back({i * 104729, static_cast<int64_t>(i % 13) - 6});
  }
  source.ApplyBatch(updates);
  RestoreRequest restore;
  restore.type = SketchType::kCountMin;
  restore.blob = source.Serialize();
  ASSERT_GT(restore.blob.size(), std::size_t{2} << 20);

  Xoshiro256StarStar rng(7);
  for (const bool one_byte : {true, false}) {
    SCOPED_TRACE(one_byte ? "1-byte pieces" : "random pieces");
    restore.name = one_byte ? "bytes" : "pieces";
    std::vector<uint8_t> wire = EncodeRestore(restore);
    const std::vector<uint8_t> ping = EncodePing();
    wire.insert(wire.end(), ping.begin(), ping.end());
    auto stream = ConnectTcp("127.0.0.1", server.port());
    ASSERT_NE(stream, nullptr);
    std::size_t offset = 0;
    while (offset < wire.size()) {
      const std::size_t piece = one_byte ? 1 : 1 + rng.NextBounded(96 * 1024);
      const std::size_t n = std::min(piece, wire.size() - offset);
      ASSERT_TRUE(WriteAll(stream.get(), wire.data() + offset, n));
      offset += n;
    }
    std::vector<Frame> responses;
    ASSERT_TRUE(ReadResponses(stream.get(), 2, &responses));
    EXPECT_EQ(responses[0].opcode, Opcode::kOk);
    EXPECT_EQ(responses[1].opcode, Opcode::kPong);

    SketchClient client(std::move(stream));
    std::vector<uint8_t> snapshot;
    ASSERT_TRUE(client.Snapshot(restore.name, &snapshot));
    EXPECT_EQ(snapshot, restore.blob);
  }
  server.Stop();
}

TEST(EventLoopTest, SmallServedBuffersServeAPipelineAsASequentialReplay) {
  // The served end of the connection gets a ~4 KiB receive buffer and a
  // ~4 KiB send buffer. Eight 4096-update ingests and a batch query,
  // pipelined in one write, reach the loop in short reads that split
  // frames anywhere; a 1 MiB snapshot behind them leaves the loop's
  // first write short, so the rest goes out on EPOLLOUT. Every response
  // must equal what the service answers for the same frames one at a
  // time, and the snapshot must equal a local replay.
  telemetry::Counter& write_waits =
      telemetry::MetricRegistry::Instance().GetCounter(
          "server.epoll.write_waits");
  telemetry::Counter& wakeups =
      telemetry::MetricRegistry::Instance().GetCounter("server.epoll.wakeups");
  const uint64_t write_waits_before = write_waits.Value();
  const uint64_t wakeups_before = wakeups.Value();

  LoopHarness harness;
  std::unique_ptr<ByteStream> stream =
      harness.ConnectWithBuffers({.receive_bytes = 4096, .send_bytes = 4096});
  ASSERT_NE(stream, nullptr);

  CreateSketchRequest create;
  create.name = "small";
  create.type = SketchType::kCountMin;
  create.params = {16384, 8, 5, 0, 0};  // 1 MiB of counters
  std::vector<std::vector<uint8_t>> requests = {EncodeCreateSketch(create)};
  CountMinSketch replay(16384, 8, 5);
  constexpr std::size_t kIngests = 8;
  for (uint64_t f = 0; f < kIngests; ++f) {
    std::vector<StreamUpdate> updates;
    for (uint64_t i = 0; i < 4096; ++i) {
      const uint64_t n = f * 4096 + i;
      updates.push_back({n * n % 100003, static_cast<int64_t>(n % 7) - 3});
    }
    requests.push_back(EncodeIngestSpan("small", UpdateSpan(updates)));
    replay.ApplyBatch(updates);
  }
  PointQueryBatchRequest query;
  query.name = "small";
  for (uint64_t i = 0; i < 512; ++i) query.items.push_back(i * 97);
  requests.push_back(EncodePointQueryBatch(query));
  requests.push_back(EncodeSnapshot({"small"}));

  std::vector<uint8_t> wire;
  for (const std::vector<uint8_t>& request : requests) {
    wire.insert(wire.end(), request.begin(), request.end());
  }
  ASSERT_TRUE(WriteAll(stream.get(), wire));
  std::vector<Frame> responses;
  ASSERT_TRUE(ReadResponses(stream.get(), requests.size(), &responses));

  SketchService sequential({});
  for (std::size_t i = 0; i < requests.size(); ++i) {
    FrameDecoder decoder;
    decoder.Feed(requests[i].data(), requests[i].size());
    Frame request;
    ASSERT_EQ(decoder.Next(&request), DecodeStatus::kFrame);
    FrameDecoder response_decoder;
    const std::vector<uint8_t> expected = sequential.HandleFrame(request);
    response_decoder.Feed(expected.data(), expected.size());
    Frame expected_frame;
    ASSERT_EQ(response_decoder.Next(&expected_frame), DecodeStatus::kFrame);
    EXPECT_EQ(responses[i].opcode, expected_frame.opcode) << "frame " << i;
    EXPECT_EQ(responses[i].payload, expected_frame.payload) << "frame " << i;
  }
  BlobResponse snapshot;
  ASSERT_TRUE(DecodeBlob(responses.back(), &snapshot));
  EXPECT_EQ(snapshot.bytes, replay.Serialize());
  EXPECT_GE(snapshot.bytes.size(), std::size_t{1} << 20);
  // Short reads: the 520 KiB of requests took many more wakeups than
  // there were frames. Short writes: EPOLLOUT was armed at least once.
  EXPECT_GT(wakeups.Value() - wakeups_before, 2 * requests.size());
  EXPECT_GT(write_waits.Value() - write_waits_before, 0u);
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

TEST(EventLoopTest, StopDoesNotWaitForANonReadingClient) {
  // A client pipelines a create and six snapshots of a 1 MiB table and
  // never reads, so megabytes of responses stay queued for it; it closes
  // only after 3 s. Stop must hand the kernel what it takes without
  // blocking and close, not wait for that client.
  using Clock = std::chrono::steady_clock;
  SketchServer::Options options;
  options.io_threads = 1;
  options.max_outbound_bytes = 64 * 1024 * 1024;  // queue, never evict
  SketchServer server(options);
  ASSERT_TRUE(server.Start());
  constexpr uint64_t kSnapshots = 6;
  telemetry::Counter& snapshots =
      telemetry::MetricRegistry::Instance().GetCounter("server.snapshots");
  const uint64_t snapshots_before = snapshots.Value();

  CreateSketchRequest create;
  create.name = "mib";
  create.type = SketchType::kCountMin;
  create.params = {1 << 15, 4, 3, 0, 0};  // 4 x 32768 counters = 1 MiB
  std::vector<uint8_t> wire = EncodeCreateSketch(create);
  const std::vector<uint8_t> snapshot = EncodeSnapshot({"mib"});
  for (uint64_t i = 0; i < kSnapshots; ++i) {
    wire.insert(wire.end(), snapshot.begin(), snapshot.end());
  }
  std::thread client([port = server.port(), &wire] {
    auto stream = ConnectTcp("127.0.0.1", port);
    ASSERT_NE(stream, nullptr);
    ASSERT_TRUE(WriteAll(stream.get(), wire));
    std::this_thread::sleep_for(std::chrono::seconds(3));
  });
  // Every snapshot has been served (its response queued) before Stop.
  for (int i = 0; i < 5000; ++i) {
    if (snapshots.Value() - snapshots_before >= kSnapshots) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(snapshots.Value() - snapshots_before, kSnapshots);

  const Clock::time_point stop_start = Clock::now();
  server.Stop();
  EXPECT_LT(Clock::now() - stop_start, std::chrono::milliseconds(500));
  client.join();
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

/// Everything the server sends on `stream` before it closes the
/// connection (empty when it closes with no response).
std::string ReadUntilClosed(ByteStream* stream) {
  std::string received;
  uint8_t chunk[4096];
  std::ptrdiff_t n;
  while ((n = stream->Read(chunk, sizeof(chunk))) > 0) {
    received.append(reinterpret_cast<const char*>(chunk),
                    static_cast<std::size_t>(n));
  }
  return received;
}

/// One HTTP/1.0 request head sent `piece` bytes per write; the response.
std::string HttpGet(uint16_t port, const std::string& path,
                    std::size_t piece) {
  std::unique_ptr<ByteStream> stream = ConnectTcp("127.0.0.1", port);
  if (stream == nullptr) return "";
  const std::string head = "GET " + path + " HTTP/1.0\r\n\r\n";
  const auto* bytes = reinterpret_cast<const uint8_t*>(head.data());
  for (std::size_t at = 0; at < head.size(); at += piece) {
    if (!WriteAll(stream.get(), bytes + at,
                  std::min(piece, head.size() - at))) {
      return "";
    }
    if (piece < head.size()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  return ReadUntilClosed(stream.get());
}

/// `200 OK` whose Content-Length is exactly the body's length.
void ExpectOkWithExactLength(const std::string& response) {
  EXPECT_EQ(response.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << response;
  const std::size_t split = response.find("\r\n\r\n");
  ASSERT_NE(split, std::string::npos) << response;
  const std::string length =
      "\r\nContent-Length: " + std::to_string(response.size() - split - 4) +
      "\r\n";
  EXPECT_NE(response.substr(0, split + 2).find(length), std::string::npos)
      << response;
}

TEST(EventLoopTest, HttpAndSketchwireShareALoop) {
  // One I/O thread serves a pipelining sketchwire client and three HTTP
  // clients at once: one sends its request head a byte at a time, one
  // sends 9 KiB that never ends the head, and one scrapes /statsz and
  // /healthz, each of which walks the registry on that thread. Every
  // complete head gets its 200, the oversized one is closed unanswered,
  // and the ingests land exactly as a sequential replay.
  SketchServer::Options options;
  options.io_threads = 1;
  options.http_port = 0;
  SketchServer server(options);
  ASSERT_TRUE(server.Start());
  const uint16_t http_port = server.http_port();
  {
    auto admin = ConnectTcp("127.0.0.1", server.port());
    ASSERT_NE(admin, nullptr);
    SketchClient client(std::move(admin));
    // Wide enough for the 4096-key universe to keep /healthz at "ok".
    ASSERT_TRUE(client.CreateSketch("shared", SketchType::kCountMin,
                                    {16384, 4, 77, 0, 0}));
  }

  constexpr uint64_t kWindows = 32;
  constexpr uint64_t kFramesPerWindow = 8;
  std::thread sketchwire([port = server.port()] {
    auto stream = ConnectTcp("127.0.0.1", port);
    ASSERT_NE(stream, nullptr);
    for (uint64_t window = 0; window < kWindows; ++window) {
      std::vector<uint8_t> wire;
      for (uint64_t f = 0; f < kFramesPerWindow; ++f) {
        const std::vector<StreamUpdate> batch =
            BatchFor(0, window * kFramesPerWindow + f);
        const std::vector<uint8_t> frame =
            EncodeIngestSpan("shared", UpdateSpan(batch));
        wire.insert(wire.end(), frame.begin(), frame.end());
      }
      ASSERT_TRUE(WriteAll(stream.get(), wire));
      std::vector<Frame> acks;
      ASSERT_TRUE(ReadResponses(stream.get(), kFramesPerWindow, &acks));
      for (const Frame& frame : acks) {
        IngestAckResponse ack;
        ASSERT_TRUE(DecodeIngestAck(frame, &ack));
        EXPECT_EQ(ack.accepted, kBatchSize);
      }
    }
  });
  std::string dribbled;
  std::thread dribbler(
      [&dribbled, http_port] { dribbled = HttpGet(http_port, "/metrics", 1); });
  std::string oversized_reply = "not run";
  std::thread oversized([&oversized_reply, http_port] {
    auto stream = ConnectTcp("127.0.0.1", http_port);
    ASSERT_NE(stream, nullptr);
    const std::vector<uint8_t> junk(9 * 1024, 'a');
    // The server may close mid-write once it has buffered its 8 KiB cap.
    (void)WriteAll(stream.get(), junk);
    oversized_reply = ReadUntilClosed(stream.get());
  });
  std::vector<std::string> scrapes;
  std::thread scraper([&scrapes, http_port] {
    for (int round = 0; round < 5; ++round) {
      scrapes.push_back(HttpGet(http_port, "/statsz", 64));
      scrapes.push_back(HttpGet(http_port, "/healthz", 64));
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  sketchwire.join();
  dribbler.join();
  oversized.join();
  scraper.join();

  ExpectOkWithExactLength(dribbled);
  EXPECT_EQ(oversized_reply, "");
  ASSERT_EQ(scrapes.size(), 10u);
  for (const std::string& scrape : scrapes) ExpectOkWithExactLength(scrape);
  EXPECT_NE(scrapes.back().find("\"status\":\"ok\""), std::string::npos)
      << scrapes.back();

  auto stream = ConnectTcp("127.0.0.1", server.port());
  ASSERT_NE(stream, nullptr);
  SketchClient client(std::move(stream));
  std::vector<uint8_t> served;
  ASSERT_TRUE(client.Snapshot("shared", &served));
  CountMinSketch replay(16384, 4, 77);
  for (uint64_t step = 0; step < kWindows * kFramesPerWindow; ++step) {
    replay.UpdateAll(BatchFor(0, step));
  }
  EXPECT_EQ(served, replay.Serialize());
  server.Stop();
}

/// Threads in this process, counted from /proc/self/task. A joined
/// thread can linger there for a moment after the join returns, so
/// callers poll.
int ThreadCount() {
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return -1;
  int count = 0;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++count;
  }
  ::closedir(dir);
  return count;
}

/// ThreadCount once it has held still for 10 ms, so threads that earlier
/// tests joined have left /proc/self/task.
int SettledThreadCount() {
  int count = ThreadCount();
  for (int i = 0; i < 200; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const int again = ThreadCount();
    if (again == count) break;
    count = again;
  }
  return count;
}

TEST(EventLoopTest, StartRunsIoAndAcceptThreadsOnly) {
  // With an HTTP port, Start adds the I/O threads and one accept thread
  // per listener, nothing more: sketch health is evaluated by the scrape
  // that reads it, on an I/O thread.
  SketchServer::Options options;
  options.http_port = 0;
  options.io_threads = 2;
  SketchServer server(options);
  // A runtime may start a helper thread of its own at the process's first
  // thread creation (ThreadSanitizer does); start it here, not in Start.
  std::thread([] {}).join();
  const int threads_before = SettledThreadCount();
  ASSERT_GT(threads_before, 0);
  ASSERT_TRUE(server.Start());
  EXPECT_EQ(ThreadCount() - threads_before,
            static_cast<int>(options.io_threads) + 2);
  server.Stop();
}

TEST(EventLoopTest, FailedStartLeavesNothingRunning) {
  // The HTTP port is taken, so Start fails after the sketchwire listener
  // is already bound. It must release it again: no thread left running
  // and no sketchwire port accepting.
  const std::unique_ptr<SocketListener> occupied = SocketListener::ListenTcp(0);
  ASSERT_NE(occupied, nullptr);
  uint16_t sketchwire_port = 0;
  {
    const std::unique_ptr<SocketListener> probe = SocketListener::ListenTcp(0);
    ASSERT_NE(probe, nullptr);
    sketchwire_port = probe->port();
  }
  SketchServer::Options options;
  options.tcp_port = sketchwire_port;
  options.http_port = occupied->port();
  options.io_threads = 2;
  SketchServer server(options);
  const int threads_before = ThreadCount();
  ASSERT_GT(threads_before, 0);
  EXPECT_FALSE(server.Start());
  int threads_after = ThreadCount();
  for (int i = 0; i < 2000 && threads_after != threads_before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    threads_after = ThreadCount();
  }
  EXPECT_EQ(threads_after, threads_before);
  EXPECT_EQ(ConnectTcp("127.0.0.1", sketchwire_port), nullptr);
}

}  // namespace
}  // namespace sketch::server
