// Sketch health: EvaluateHealth's distillation of an introspection
// snapshot into the four health scalars and their thresholds, plus
// CheckHealth against a live registry (gauges, /healthz JSON, degraded
// flag).

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "json_check.h"
#include "server/health_monitor.h"
#include "server/protocol.h"
#include "server/sketch_service.h"
#include "telemetry/prometheus.h"
#include "telemetry/stats.h"

namespace sketch::server {
namespace {

constexpr double kEuler = 2.718281828459045;

StatsSnapshot MakeSnapshot(double occupancy, double collision) {
  StatsSnapshot s;
  s.type = "CountMin";
  s.AddField("occupied_fraction", occupancy);
  s.AddField("estimated_collision_rate", collision);
  return s;
}

TEST(HealthMonitorEvaluateTest, HealthySnapshotIsNotDegraded) {
  const SketchHealth h = EvaluateHealth("s", MakeSnapshot(0.5, 0.3));
  EXPECT_FALSE(h.degraded);
  EXPECT_TRUE(h.reasons.empty());
  EXPECT_EQ(h.name, "s");
  EXPECT_EQ(h.type, "CountMin");
  EXPECT_DOUBLE_EQ(h.occupancy, 0.5);
  EXPECT_DOUBLE_EQ(h.collision_rate, 0.3);
  EXPECT_DOUBLE_EQ(h.saturation, 0.0);
  EXPECT_DOUBLE_EQ(h.eps_drift, 0.3 / (kEuler * 0.5));
}

TEST(HealthMonitorEvaluateTest, OccupancyThreshold) {
  static_assert(kMaxHealthyOccupancy == 0.95);
  EXPECT_FALSE(EvaluateHealth("s", MakeSnapshot(0.95, 0.0)).degraded);
  const SketchHealth h = EvaluateHealth("s", MakeSnapshot(0.96, 0.0));
  EXPECT_TRUE(h.degraded);
  EXPECT_EQ(h.reasons, "occupancy");
}

TEST(HealthMonitorEvaluateTest, CollisionRateThresholdAndBloomSpelling) {
  // Bloom filters report "fill_ratio" instead of "occupied_fraction";
  // both must feed the occupancy scalar.
  StatsSnapshot bloom;
  bloom.type = "Bloom";
  bloom.AddField("fill_ratio", 0.97);
  const SketchHealth bh = EvaluateHealth("b", bloom);
  EXPECT_DOUBLE_EQ(bh.occupancy, 0.97);
  EXPECT_TRUE(bh.degraded);

  const SketchHealth ch = EvaluateHealth("s", MakeSnapshot(0.2, 0.8));
  EXPECT_NE(ch.reasons.find("collision_rate"), std::string::npos);
  // 0.8 / (e * 0.2) = 1.47 > 1, so eps_drift trips alongside it.
  EXPECT_NE(ch.reasons.find("eps_drift"), std::string::npos);
  EXPECT_EQ(ch.reasons, "collision_rate,eps_drift");
}

TEST(HealthMonitorEvaluateTest, SaturationFromOccupancyLog2) {
  StatsSnapshot s = MakeSnapshot(0.5, 0.1);
  // 100 nonzero cells, 2 of them within 2 bits of the int64 limit.
  s.occupancy_log2.assign(65, 0);
  s.occupancy_log2[0] = 900;  // zero cells don't count
  s.occupancy_log2[5] = 98;
  s.occupancy_log2[62] = 1;
  s.occupancy_log2[63] = 1;
  const SketchHealth h = EvaluateHealth("s", s);
  EXPECT_DOUBLE_EQ(h.saturation, 0.02);
  EXPECT_TRUE(h.degraded);  // 0.02 > kMaxHealthySaturation 0.01
  EXPECT_EQ(h.reasons, "saturation");
  // Bit width 61 is still two doublings away — not saturated.
  s.occupancy_log2[62] = 0;
  s.occupancy_log2[63] = 0;
  s.occupancy_log2[61] = 2;
  EXPECT_FALSE(EvaluateHealth("s", s).degraded);
}

TEST(HealthMonitorEvaluateTest, EmptySketchHasNoDrift) {
  // occupancy == 0 would divide by zero; the contract is drift 0.
  const SketchHealth h = EvaluateHealth("s", MakeSnapshot(0.0, 0.0));
  EXPECT_DOUBLE_EQ(h.eps_drift, 0.0);
  EXPECT_FALSE(h.degraded);
}

TEST(HealthMonitorEvaluateTest, WorstChildDominatesTree) {
  StatsSnapshot root;
  root.type = "ShardedCountMin";
  root.children.push_back(MakeSnapshot(0.1, 0.05));
  root.children.push_back(MakeSnapshot(0.99, 0.1));
  root.children.push_back(MakeSnapshot(0.3, 0.2));
  const SketchHealth h = EvaluateHealth("s", root);
  EXPECT_DOUBLE_EQ(h.occupancy, 0.99);
  EXPECT_DOUBLE_EQ(h.collision_rate, 0.2);
  EXPECT_TRUE(h.degraded);
  EXPECT_EQ(h.reasons, "occupancy");
}

class HealthMonitorServiceTest : public ::testing::Test {
 protected:
  SketchService service_{SketchService::Options{}};

  void Create(const std::string& name, uint64_t width) {
    CreateSketchRequest request;
    request.name = name;
    request.type = SketchType::kCountMin;
    request.params = {width, 4, 42, 0, 0};
    Frame frame;
    FrameDecoder decoder;
    const std::vector<uint8_t> wire = EncodeCreateSketch(request);
    decoder.Feed(wire.data(), wire.size());
    ASSERT_EQ(decoder.Next(&frame), DecodeStatus::kFrame);
    const std::vector<uint8_t> response = service_.HandleFrame(frame);
    ASSERT_FALSE(response.empty());
    EXPECT_EQ(static_cast<Opcode>(response[4]), Opcode::kOk);
  }

  void IngestDistinct(const std::string& name, uint64_t count) {
    IngestRequest request;
    request.name = name;
    for (uint64_t i = 0; i < count; ++i) request.updates.push_back({i, 1});
    Frame frame;
    FrameDecoder decoder;
    const std::vector<uint8_t> wire = EncodeIngest(request);
    decoder.Feed(wire.data(), wire.size());
    ASSERT_EQ(decoder.Next(&frame), DecodeStatus::kFrame);
    service_.HandleFrame(frame);
  }
};

TEST_F(HealthMonitorServiceTest, CheckHealthPublishesGaugesAndHealthz) {
  Create("wide", 1u << 16);
  IngestDistinct("wide", 64);  // near-empty: healthy

  const HealthReport report = CheckHealth(service_);

  EXPECT_FALSE(report.degraded);
  const std::vector<SketchHealth> snapshot = report.sketches;
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].name, "wide");
  EXPECT_FALSE(snapshot[0].degraded);

  // Gauges: all five families, labeled by sketch, plus the process flag.
  const std::vector<telemetry::PromGauge> gauges = report.Gauges();
  bool found_occupancy = false;
  bool found_process_flag = false;
  for (const telemetry::PromGauge& g : gauges) {
    if (g.name == "sketch_health_occupancy") {
      ASSERT_EQ(g.labels.size(), 1u);
      EXPECT_EQ(g.labels[0].key, "sketch");
      EXPECT_EQ(g.labels[0].value, "wide");
      found_occupancy = true;
    }
    if (g.name == "server_health_degraded") {
      EXPECT_TRUE(g.labels.empty());
      EXPECT_DOUBLE_EQ(g.value, 0.0);
      found_process_flag = true;
    }
  }
  EXPECT_TRUE(found_occupancy);
  EXPECT_TRUE(found_process_flag);

  const std::string healthz = report.HealthzJson();
  EXPECT_NE(healthz.find("\"status\":\"ok\""), std::string::npos) << healthz;
}

TEST_F(HealthMonitorServiceTest, OverfilledSketchDegradesHealthz) {
  // Width 16, 4096 distinct keys: every bucket occupied, every key
  // colliding — the check must flag it.
  Create("tiny", 16);
  IngestDistinct("tiny", 4096);

  const HealthReport report = CheckHealth(service_);

  EXPECT_TRUE(report.degraded);
  const std::string healthz = report.HealthzJson();
  EXPECT_NE(healthz.find("\"status\":\"degraded\""), std::string::npos)
      << healthz;
  EXPECT_NE(healthz.find("\"tiny\""), std::string::npos) << healthz;
  EXPECT_NE(healthz.find("occupancy"), std::string::npos) << healthz;
}

TEST_F(HealthMonitorServiceTest, HostileNameEscapesAlikeInEveryJsonBody) {
  // One escaper serves /healthz, /statsz and the slow-query log: a name
  // holding a quote, a backslash and a control byte must come out as
  // valid JSON in all three, the control byte as \u0001 (not dropped, so
  // "a\x01" and "a" stay distinguishable).
  const std::string name = "q\"b\\c\x01";
  const std::string escaped = "q\\\"b\\\\c\\u0001";
  Create(name, 16);
  IngestDistinct(name, 4096);  // overfilled: listed in /healthz

  const std::string healthz = CheckHealth(service_).HealthzJson();
  const std::string statsz = service_.StatszJson();
  const std::string slow_log = service_.slow_query_log().ToJson();
  for (const std::string* json : {&healthz, &statsz, &slow_log}) {
    EXPECT_TRUE(JsonCheck::Valid(*json)) << *json;
    EXPECT_NE(json->find("\"" + escaped + "\""), std::string::npos) << *json;
  }
}

}  // namespace
}  // namespace sketch::server
