// End-to-end integration through the daemon's epoll event loop: the
// real EventLoopPool serving one end of a socketpair (LoopHarness), the
// real SketchClient on the test thread, and a FaultyStream around the
// client's end when the test wants the wire to misbehave. Covers the
// full ingest -> query -> snapshot -> restore round trip for every
// sketch type the daemon serves, plus fault-injection scenarios:
// fragmented reads/writes, mid-frame disconnects in both directions, a
// mid-frame TCP reset, slow clients, and garbage framing. What a
// connection did is checked from outside: its effects as seen from a
// second connection, the frames the client receives, and the pool's
// open-connection count.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "loop_harness.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/sketch_service.h"
#include "server/transport.h"
#include "sketch/count_min.h"
#include "stream/update.h"

namespace sketch::server {
namespace {

/// A raw TCP client descriptor whose server end the harness's event loop
/// serves (a socketpair cannot carry a reset). -1 on failure.
int ConnectRawTcp(LoopHarness& server) {
  const std::unique_ptr<SocketListener> listener =
      SocketListener::ListenTcp(0);
  if (listener == nullptr) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(listener->port());
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  server.pool().Adopt(listener->AcceptRaw());
  return fd;
}

struct TypeCase {
  const char* name;
  SketchType type;
  std::array<uint64_t, 5> params;
};

/// Creates a sketch, streams a workload, round-trips a point query, then
/// snapshot -> restore under a new name and checks the restored copy
/// answers identically.
void RoundTrip(SketchClient& client, const TypeCase& c) {
  SCOPED_TRACE(c.name);
  ASSERT_TRUE(client.CreateSketch(c.name, c.type, c.params))
      << client.last_error().message;

  std::vector<StreamUpdate> updates;
  for (uint64_t i = 0; i < 512; ++i) updates.push_back({i % 97, 2});
  updates.push_back({7, 500});
  uint64_t accepted = 0;
  ASSERT_TRUE(client.Ingest(c.name, UpdateSpan(updates), &accepted))
      << client.last_error().message;
  EXPECT_EQ(accepted, updates.size());

  PointValueResponse before;
  ASSERT_TRUE(client.PointQuery(c.name, 7, &before));

  std::vector<uint8_t> blob;
  ASSERT_TRUE(client.Snapshot(c.name, &blob));
  EXPECT_FALSE(blob.empty());

  const std::string copy = std::string(c.name) + "-copy";
  ASSERT_TRUE(client.Restore(copy, c.type, blob))
      << client.last_error().message;
  PointValueResponse after;
  ASSERT_TRUE(client.PointQuery(copy, 7, &after));
  EXPECT_EQ(after.estimate, before.estimate);
  EXPECT_EQ(after.bound_kind, before.bound_kind);
  EXPECT_DOUBLE_EQ(after.error_bound, before.error_bound);
}

const TypeCase kAllTypes[] = {
    {"cm", SketchType::kCountMin, {2048, 4, 7, 0, 0}},
    {"cs", SketchType::kCountSketch, {2048, 5, 11, 0, 0}},
    {"bloom", SketchType::kBloom, {16384, 4, 3, 0, 0}},
    {"summary", SketchType::kStreamSummary, {16, 256, 4, 2048, 13}},
    {"sharded", SketchType::kShardedCountMin, {2048, 4, 7, 4, 0}},
};

TEST(LoopbackIntegrationTest, AllFiveTypesRoundTripOverTheWire) {
  LoopHarness server;
  const auto client = server.Connect();
  ASSERT_TRUE(client->Ping());
  for (const TypeCase& c : kAllTypes) RoundTrip(*client, c);
  // Five originals + five restored copies.
  EXPECT_EQ(server.service().sketch_count(), 10u);
}

TEST(LoopbackIntegrationTest, HeavyHittersOverTheWire) {
  LoopHarness server;
  const auto client = server.Connect();
  ASSERT_TRUE(client->CreateSketch("hh", SketchType::kStreamSummary,
                                   {16, 512, 4, 4096, 21}));
  std::vector<StreamUpdate> updates;
  for (uint64_t i = 0; i < 4000; ++i) updates.push_back({i % 1000, 1});
  updates.push_back({33, 5000});
  ASSERT_TRUE(client->Ingest("hh", UpdateSpan(updates)));
  std::vector<uint64_t> items;
  ASSERT_TRUE(client->HeavyHitters("hh", 0.3, &items));
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0], 33u);
}

TEST(LoopbackIntegrationTest, InnerProductAndIntrospectionOverTheWire) {
  LoopHarness server;
  const auto client = server.Connect();
  ASSERT_TRUE(client->CreateSketch("a", SketchType::kCountMin,
                                   {1024, 4, 5, 0, 0}));
  ASSERT_TRUE(client->CreateSketch("b", SketchType::kCountMin,
                                   {1024, 4, 5, 0, 0}));
  ASSERT_TRUE(
      client->Ingest("a", UpdateSpan(std::vector<StreamUpdate>{{1, 6}})));
  ASSERT_TRUE(
      client->Ingest("b", UpdateSpan(std::vector<StreamUpdate>{{1, 7}})));
  int64_t product = 0;
  ASSERT_TRUE(client->InnerProduct("a", "b", &product));
  EXPECT_EQ(product, 42);

  std::string json;
  ASSERT_TRUE(client->ListSketches(&json));
  EXPECT_NE(json.find("\"a\""), std::string::npos);
  ASSERT_TRUE(client->Statsz(&json));
  EXPECT_NE(json.find("\"sketches\""), std::string::npos);
  ASSERT_TRUE(client->TraceDump(&json));
  EXPECT_NE(json.find("traceEvents"), std::string::npos);
}

TEST(LoopbackIntegrationTest, ServerErrorsSurfaceThroughTheClient) {
  LoopHarness server;
  const auto client = server.Connect();
  PointValueResponse value;
  EXPECT_FALSE(client->PointQuery("ghost", 1, &value));
  EXPECT_EQ(client->last_error().code, ErrorCode::kNoSuchSketch);
  // The connection survives an application-level error.
  EXPECT_TRUE(client->Ping());
}

TEST(LoopbackIntegrationTest, ShutdownFrameStopsTheConnectionLoop) {
  LoopHarness server;
  const auto client = server.Connect();
  ASSERT_TRUE(client->Ping());
  EXPECT_TRUE(client->Shutdown());  // acked before the close
  EXPECT_TRUE(server.service().shutdown_requested());
  // The loop closes the connection once the ack is flushed, so nothing
  // after the kShutdown frame is served.
  EXPECT_FALSE(client->Ping());
  EXPECT_TRUE(server.AwaitConnectionsLive(0));
}

// --- Fault injection ------------------------------------------------------

TEST(LoopbackIntegrationTest, SurvivesSingleByteFragmentation) {
  // Every read and write on the client side is capped to 1 byte, so each
  // frame crosses the wire in ~dozens of fragments and the server-side
  // decoder resumes from every possible split point.
  LoopHarness server;
  FaultPlan plan;
  plan.max_read_chunk = 1;
  plan.max_write_chunk = 1;
  const auto client = server.Connect(&plan);
  ASSERT_TRUE(client->CreateSketch("frag", SketchType::kCountMin,
                                   {256, 4, 9, 0, 0}));
  ASSERT_TRUE(client->Ingest(
      "frag", UpdateSpan(std::vector<StreamUpdate>{{5, 10}, {6, 20}})));
  PointValueResponse value;
  ASSERT_TRUE(client->PointQuery("frag", 6, &value));
  EXPECT_GE(value.estimate, 20);
}

TEST(LoopbackIntegrationTest, SlowClientStillCompletes) {
  LoopHarness server;
  FaultPlan plan;
  plan.max_write_chunk = 7;
  plan.delay_micros = 200;
  const auto client = server.Connect(&plan);
  ASSERT_TRUE(client->CreateSketch("slow", SketchType::kBloom,
                                   {1024, 3, 1, 0, 0}));
  ASSERT_TRUE(
      client->Ingest("slow", UpdateSpan(std::vector<StreamUpdate>{{99, 1}})));
  PointValueResponse value;
  ASSERT_TRUE(client->PointQuery("slow", 99, &value));
  EXPECT_EQ(value.estimate, 1);
}

TEST(LoopbackIntegrationTest, MidFrameWriteFailureLeavesServiceUsable) {
  // The client's stream dies partway through writing an ingest frame. The
  // server sees a truncated stream, drops the connection without applying
  // any of it, and the service keeps working for the next client.
  LoopHarness server;
  {
    const auto healthy = server.Connect();
    ASSERT_TRUE(healthy->CreateSketch("durable", SketchType::kCountMin,
                                      {512, 4, 3, 0, 0}));
  }
  {
    FaultPlan plan;
    plan.fail_write_after_bytes = 20;  // dies inside the second frame
    const auto doomed = server.Connect(&plan);
    ASSERT_TRUE(doomed->Ping());  // first frame: 8 bytes, fits
    std::vector<StreamUpdate> batch;
    for (uint64_t i = 0; i < 100; ++i) batch.push_back({i, 1});
    EXPECT_FALSE(doomed->Ingest("durable", UpdateSpan(batch)));
  }
  EXPECT_TRUE(server.AwaitConnectionsLive(0));
  // A fresh connection finds the registry intact and fully functional,
  // holding exactly its own update.
  const auto fresh = server.Connect();
  ASSERT_TRUE(
      fresh->Ingest("durable", UpdateSpan(std::vector<StreamUpdate>{{1, 4}})));
  PointValueResponse value;
  ASSERT_TRUE(fresh->PointQuery("durable", 1, &value));
  EXPECT_EQ(value.estimate, 4);
  std::vector<uint8_t> blob;
  ASSERT_TRUE(fresh->Snapshot("durable", &blob));
  CountMinSketch expected(512, 4, 3);
  expected.Update({1, 4});
  EXPECT_EQ(blob, expected.Serialize());
}

TEST(LoopbackIntegrationTest, MidFrameReadFailureIsATransportError) {
  // The client stops being able to read mid-response: from the client's
  // side the call fails. The server has still served the request, and
  // when the client goes it drops the connection rather than crashing.
  LoopHarness server;
  {
    const auto admin = server.Connect();
    ASSERT_TRUE(admin->CreateSketch("served", SketchType::kCountMin,
                                    {512, 4, 3, 0, 0}));
  }
  {
    FaultPlan plan;
    plan.fail_read_after_bytes = 4;  // dies inside the first response header
    const auto doomed = server.Connect(&plan);
    EXPECT_FALSE(doomed->Ingest(
        "served", UpdateSpan(std::vector<StreamUpdate>{{9, 5}})));
  }
  EXPECT_TRUE(server.AwaitConnectionsLive(0));
  // The ingest was served: a second connection sees its effect.
  const auto fresh = server.Connect();
  PointValueResponse value;
  ASSERT_TRUE(fresh->PointQuery("served", 9, &value));
  EXPECT_EQ(value.estimate, 5);
}

TEST(LoopbackIntegrationTest, MidFrameResetDropsTheConnectionAndAppliesNothing) {
  // A TCP client sends a ping and the first half of an ingest frame, then
  // resets the connection. The loop must drop it, apply none of the half
  // frame's complete updates, and keep serving everyone else.
  LoopHarness server;
  {
    const auto admin = server.Connect();
    ASSERT_TRUE(admin->CreateSketch("reset", SketchType::kCountMin,
                                    {512, 4, 3, 0, 0}));
  }
  ASSERT_TRUE(server.AwaitConnectionsLive(0));

  const int fd = ConnectRawTcp(server);
  ASSERT_GE(fd, 0);
  IngestRequest ingest;
  ingest.name = "reset";
  for (uint64_t i = 0; i < 64; ++i) ingest.updates.push_back({1000 + i, 7});
  const std::vector<uint8_t> frame = EncodeIngest(ingest);
  std::vector<uint8_t> wire = EncodePing();
  wire.insert(wire.end(), frame.begin(), frame.begin() + frame.size() / 2);
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  // The pong shows the loop has read the bytes sent with the ping.
  FrameDecoder decoder;
  Frame pong;
  uint8_t buffer[64];
  while (decoder.Next(&pong) == DecodeStatus::kNeedMore) {
    const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
    ASSERT_GT(got, 0);
    decoder.Feed(buffer, static_cast<std::size_t>(got));
  }
  EXPECT_EQ(pong.opcode, Opcode::kPong);
  EXPECT_EQ(server.pool().connections_live(), 1u);
  // Linger on with a zero timeout: close() sends an RST, not a FIN.
  const linger reset{1, 0};
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_LINGER, &reset, sizeof(reset)), 0);
  ::close(fd);
  EXPECT_TRUE(server.AwaitConnectionsLive(0));

  const auto fresh = server.Connect();
  ASSERT_TRUE(
      fresh->Ingest("reset", UpdateSpan(std::vector<StreamUpdate>{{1, 4}})));
  PointValueResponse value;
  ASSERT_TRUE(fresh->PointQuery("reset", 1, &value));
  EXPECT_EQ(value.estimate, 4);
  std::vector<uint8_t> blob;
  ASSERT_TRUE(fresh->Snapshot("reset", &blob));
  CountMinSketch expected(512, 4, 3);
  expected.Update({1, 4});
  EXPECT_EQ(blob, expected.Serialize());
}

TEST(LoopbackIntegrationTest, GarbageFramingGetsErrorResponseThenClose) {
  LoopHarness server;
  const std::unique_ptr<ByteStream> stream = server.ConnectStream();

  // A header claiming a 4 GiB payload: rejected from the header alone.
  const uint8_t bad_header[8] = {0xff, 0xff, 0xff, 0xff, 0x01, 0x01, 0, 0};
  ASSERT_TRUE(WriteAll(stream.get(), bad_header, sizeof(bad_header)));

  // The server sends a best-effort kError frame, then closes: the next
  // read is end-of-stream, and the pool no longer holds the connection.
  FrameDecoder decoder;
  Frame frame;
  uint8_t buffer[256];
  DecodeStatus status = DecodeStatus::kNeedMore;
  while (status == DecodeStatus::kNeedMore) {
    const std::ptrdiff_t got = stream->Read(buffer, sizeof(buffer));
    ASSERT_GT(got, 0);
    decoder.Feed(buffer, static_cast<std::size_t>(got));
    status = decoder.Next(&frame);
  }
  ASSERT_EQ(status, DecodeStatus::kFrame);
  ErrorResponse error;
  ASSERT_TRUE(DecodeError(frame, &error));
  EXPECT_EQ(error.code, ErrorCode::kFrameTooLarge);
  EXPECT_LE(stream->Read(buffer, sizeof(buffer)), 0);
  EXPECT_TRUE(server.AwaitConnectionsLive(0));
  EXPECT_EQ(server.service().sketch_count(), 0u);
}

// --- Kernel sockets -------------------------------------------------------

TEST(LoopbackIntegrationTest, TcpServerEndToEnd) {
  SketchServer::Options options;
  options.tcp_port = 0;  // pick a free port
  SketchServer server(options);
  ASSERT_TRUE(server.Start());
  ASSERT_NE(server.port(), 0);

  auto stream = ConnectTcp("127.0.0.1", server.port());
  ASSERT_NE(stream, nullptr);
  SketchClient client(std::move(stream));
  ASSERT_TRUE(client.Ping());
  ASSERT_TRUE(client.CreateSketch("tcp", SketchType::kCountMin,
                                  {1024, 4, 17, 0, 0}));
  ASSERT_TRUE(client.Ingest(
      "tcp", UpdateSpan(std::vector<StreamUpdate>{{8, 3}})));
  PointValueResponse value;
  ASSERT_TRUE(client.PointQuery("tcp", 8, &value));
  EXPECT_GE(value.estimate, 3);
  EXPECT_TRUE(client.Shutdown());
  server.Wait();
}

TEST(LoopbackIntegrationTest, UnixSocketServerEndToEnd) {
  const std::string path =
      ::testing::TempDir() + "/sketch_serverd_test.sock";
  SketchServer::Options options;
  options.unix_path = path;
  SketchServer server(options);
  ASSERT_TRUE(server.Start());

  auto stream = ConnectUnix(path);
  ASSERT_NE(stream, nullptr);
  SketchClient client(std::move(stream));
  ASSERT_TRUE(client.Ping());
  ASSERT_TRUE(client.CreateSketch("uds", SketchType::kBloom,
                                  {4096, 4, 5, 0, 0}));
  ASSERT_TRUE(client.Ingest(
      "uds", UpdateSpan(std::vector<StreamUpdate>{{77, 1}})));
  PointValueResponse value;
  ASSERT_TRUE(client.PointQuery("uds", 77, &value));
  EXPECT_EQ(value.estimate, 1);
  EXPECT_TRUE(client.Shutdown());
  server.Wait();
}

}  // namespace
}  // namespace sketch::server
