// Per-opcode request latency in the default build: requests served
// through the epoll front door (LoopHarness) land in their
// server.latency_ns.<Opcode> histograms on /metrics, and every name the
// service can record under is a row in docs/metrics_inventory.md.

#include <cstdint>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "loop_harness.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/sketch_service.h"
#include "stream/update.h"
#include "telemetry/metric_registry.h"
#include "telemetry/prometheus.h"

namespace sketch::server {
namespace {

/// Value of the sample line `series` in Prometheus text, or -1 if absent.
double SampleValue(const std::string& text, const std::string& series) {
  const std::string prefix = "\n" + series + " ";
  const std::size_t at = text.find(prefix);
  if (at == std::string::npos) return -1.0;
  return std::stod(text.substr(at + prefix.size()));
}

TEST(OpcodeLatencyTest, DefaultBuildRecordsServedRequestLatency) {
  telemetry::MetricRegistry::Instance().ResetForTest();
  {
    LoopHarness server;
    const std::unique_ptr<SketchClient> client = server.Connect();
    ASSERT_TRUE(client->CreateSketch("observed", SketchType::kCountMin,
                                     {1024, 4, 42, 0, 0}));
    const std::vector<StreamUpdate> updates = {{7, 3}, {9, 1}};
    uint64_t accepted = 0;
    ASSERT_TRUE(client->Ingest("observed", UpdateSpan(updates), &accepted));
    PointValueResponse value;
    ASSERT_TRUE(client->PointQuery("observed", 7, &value));
    client->Close();
  }  // joins the I/O thread

  const std::string metrics = telemetry::DumpPrometheus();
  EXPECT_GT(SampleValue(metrics, "server_latency_ns_Ingest_count"), 0.0)
      << metrics;
  EXPECT_GT(SampleValue(metrics, "server_latency_ns_PointQuery_count"), 0.0)
      << metrics;
}

TEST(OpcodeLatencyTest, EveryOpcodeLatencyNameIsInTheInventory) {
  std::ifstream in(SKETCH_METRICS_INVENTORY);
  ASSERT_TRUE(in) << "cannot open " << SKETCH_METRICS_INVENTORY;
  const std::string inventory((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
  for (unsigned byte = 0; byte < 256; ++byte) {
    const std::string name = OpcodeLatencyMetric(static_cast<Opcode>(byte));
    EXPECT_NE(inventory.find("| `" + name + "` |"), std::string::npos)
        << name << " (opcode byte " << byte << ") has no inventory row";
  }
  // The names are the ones scrapes already key on.
  EXPECT_EQ(OpcodeLatencyMetric(Opcode::kIngest), "server.latency_ns.Ingest");
  EXPECT_EQ(OpcodeLatencyMetric(Opcode::kPointQueryBatch),
            "server.latency_ns.PointQueryBatch");
  EXPECT_EQ(OpcodeLatencyMetric(Opcode::kOk), "server.latency_ns.Unknown");
  EXPECT_EQ(OpcodeLatencyMetric(static_cast<Opcode>(0x7f)),
            "server.latency_ns.Unknown");
}

}  // namespace
}  // namespace sketch::server
