// End-to-end wire tracing: a sampling client stamps trace ids, the
// daemon's epoll event loop decodes them (LoopHarness), and the service's
// spans come out of the trace export tagged with the same id — the
// property that makes one Perfetto query collect a request's full life
// across threads.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "loop_harness.h"
#include "server/client.h"
#include "stream/update.h"
#include "telemetry/trace.h"

namespace sketch::server {
namespace {

std::string HexId(uint64_t id) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, id);
  return std::string(buffer);
}

TEST(TraceSpanE2eTest, SampledRequestSpansCarryWireTraceId) {
  telemetry::TraceRecorder::Instance().Clear();
  telemetry::TraceRecorder::Instance().SetEnabled(true);

  auto server = std::make_unique<LoopHarness>();
  const std::unique_ptr<SketchClient> connection = server->Connect();
  SketchClient& client = *connection;

  client.SetTraceSampling(1, 0xace1);  // every request stamped
  ASSERT_TRUE(client.CreateSketch("traced", SketchType::kCountMin,
                                  {1024, 4, 42, 0, 0}));
  ASSERT_NE(client.last_trace_id(), 0u);

  std::vector<StreamUpdate> updates;
  for (uint64_t i = 0; i < 64; ++i) updates.push_back({i, 1});
  uint64_t accepted = 0;
  ASSERT_TRUE(client.Ingest("traced", UpdateSpan(updates), &accepted));
  const uint64_t ingest_id = client.last_trace_id();
  ASSERT_NE(ingest_id, 0u);

  PointValueResponse value;
  ASSERT_TRUE(client.PointQuery("traced", 7, &value));
  const uint64_t query_id = client.last_trace_id();
  ASSERT_NE(query_id, 0u);
  ASSERT_NE(query_id, ingest_id);  // distinct draws from the sampler rng

  client.Close();
  server.reset();  // joins the I/O thread, so its spans are all recorded

  // Every sampled request must have produced a handle_frame span tagged
  // with its wire id, and the kernel span of the query must carry the
  // same id — the decode -> dispatch -> kernel chain joins on it.
  const std::vector<telemetry::TraceEvent> events =
      telemetry::TraceRecorder::Instance().CollectEvents();
  bool query_handle_span = false;
  bool query_kernel_span = false;
  bool ingest_span = false;
  for (const telemetry::TraceEvent& event : events) {
    const std::string name = event.name == nullptr ? "" : event.name;
    if (event.correlation_id == query_id) {
      if (name == "server.handle_frame") query_handle_span = true;
      if (name == "server.kernel") query_kernel_span = true;
    }
    if (event.correlation_id == ingest_id) ingest_span = true;
  }
  EXPECT_TRUE(query_handle_span);
  EXPECT_TRUE(query_kernel_span);
  EXPECT_TRUE(ingest_span);

  // The Chrome-trace export tags those spans with args.trace_id so the
  // id is queryable in Perfetto.
  const std::string json =
      telemetry::TraceRecorder::Instance().ExportChromeTraceJson();
  EXPECT_NE(json.find("\"trace_id\":\"" + HexId(query_id) + "\""),
            std::string::npos);
  EXPECT_NE(json.find("\"trace_id\":\"" + HexId(ingest_id) + "\""),
            std::string::npos);
}

TEST(TraceSpanE2eTest, UnsampledRequestsProduceNoTaggedSpans) {
  telemetry::TraceRecorder::Instance().Clear();
  telemetry::TraceRecorder::Instance().SetEnabled(true);

  auto server = std::make_unique<LoopHarness>();
  const std::unique_ptr<SketchClient> connection = server->Connect();
  SketchClient& client = *connection;

  // Sampling off (the default): no stamping, so last_trace_id stays 0
  // and no span carries a correlation id.
  ASSERT_TRUE(client.CreateSketch("untraced", SketchType::kCountMin,
                                  {1024, 4, 42, 0, 0}));
  EXPECT_EQ(client.last_trace_id(), 0u);
  PointValueResponse value;
  ASSERT_TRUE(client.PointQuery("untraced", 7, &value));
  EXPECT_EQ(client.last_trace_id(), 0u);

  client.Close();
  server.reset();  // joins the I/O thread, so its spans are all recorded

  for (const telemetry::TraceEvent& event :
       telemetry::TraceRecorder::Instance().CollectEvents()) {
    EXPECT_EQ(event.correlation_id, 0u)
        << (event.name == nullptr ? "<null>" : event.name);
  }
}

}  // namespace
}  // namespace sketch::server
